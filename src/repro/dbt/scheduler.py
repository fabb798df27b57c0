"""Greedy first-fit scheduler: instruction stream -> virtual grid.

This is the *traditional, energy-oriented* allocation the paper uses as
its baseline ([12], [13], [17] in the text): each operation is placed
at the earliest column allowed by its dependences, in the first free
row scanning from row 0. Minimising the start column minimises the
configuration's critical path (execution time); always preferring low
rows is what produces the top-left utilization bias of Fig. 1.

The scheduler only decides *virtual* coordinates. Where the
configuration lands on the physical fabric is the allocation policy's
job (:mod:`repro.core`), which is the paper's contribution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cgra.configuration import PlacedOp
from repro.cgra.fabric import FabricGeometry
from repro.cgra.fu import (
    MEM_PORT_ISSUE_COLUMNS,
    FUKind,
    fu_kind_for,
    latency_columns,
)
from repro.cgra.interconnect import (
    FOLLOW_GEOMETRY,
    LinePressureTracker,
    resolve_line_budget,
)
from repro.dbt.dfg import source_registers
from repro.isa.instructions import InstrClass
from repro.sim.trace import TraceRecord


@dataclass
class SchedulerState:
    """Mutable occupancy/dependence state while building one unit.

    ``row_policy`` selects how rows are scanned during placement:

    * ``"first_fit"`` (default) — always from row 0, the traditional
      energy-oriented allocation whose corner bias motivates the paper;
    * ``"round_robin"`` — the start row rotates per op, a *scheduler-
      level* balancing alternative. It spreads rows but cannot spread
      columns (dependences still anchor chains at column 0), which is
      exactly why the paper moves whole configurations at run time
      instead of touching the scheduler.

    ``line_budget`` bounds the per-column context-line pressure: a
    candidate column whose operand routing would overflow is skipped
    (the op falls back to a later column, or placement fails and the
    unit closes). The default follows the geometry's declared routing
    budget — elastic unless ``ctx_lines`` was set explicitly, so the
    paper pipeline is untouched; pass an int to override, or ``None``
    to force elastic routing.
    """

    geometry: FabricGeometry
    row_policy: str = "first_fit"
    line_budget: int | str | None = FOLLOW_GEOMETRY

    def __post_init__(self) -> None:
        if self.row_policy not in ("first_fit", "round_robin"):
            raise ValueError(f"unknown row policy {self.row_policy!r}")
        self._row_busy = [0] * self.geometry.rows  # column bitmask per row
        self._load_busy = 0    # columns with a load in flight (1 read port)
        self._store_busy = 0   # columns with a store in flight (1 write port)
        self._reg_ready: dict[int, int] = {}        # reg -> producer end col
        self._store_ready: dict[int, int] = {}      # word -> last store end
        self._load_ready: dict[int, int] = {}       # word -> last load end
        self._next_start_row = 0
        self._lines = LinePressureTracker(
            self.geometry.cols,
            resolve_line_budget(self.line_budget, self.geometry),
        )

    # -- dependence queries ------------------------------------------------

    def earliest_column(
        self, record: TraceRecord, sources: tuple[int, ...]
    ) -> int:
        """First column where ``record`` (reading ``sources``) may
        start, per dependences.

        Loads are ordered after overlapping stores (RAW through memory);
        stores are ordered after overlapping stores (WAW) and loads
        (WAR); load-load pairs stay unordered, matching
        :func:`repro.dbt.dfg.build_dfg`.
        """
        earliest = 0
        for reg in sources:
            earliest = max(earliest, self._reg_ready.get(reg, 0))
        if record.mem_addr is not None:
            is_store = record.cls is InstrClass.STORE
            for word in self._word_span(record):
                earliest = max(earliest, self._store_ready.get(word, 0))
                if is_store:
                    earliest = max(earliest, self._load_ready.get(word, 0))
        return earliest

    @staticmethod
    def _word_span(record: TraceRecord) -> range:
        first = record.mem_addr >> 2
        last = (record.mem_addr + record.mem_bytes - 1) >> 2
        return range(first, last + 1)

    # -- placement ----------------------------------------------------------

    def try_place(
        self, record: TraceRecord, trace_offset: int
    ) -> PlacedOp | None:
        """Greedily place ``record``; return the op or ``None`` if full.

        On success the occupancy and dependence state are updated; on
        failure the state is left untouched (so the caller can close
        the unit).
        """
        kind = fu_kind_for(record.cls)
        if kind is None:
            return None
        width = latency_columns(kind)
        span = (1 << width) - 1
        # Dependences and line charges resolve sources through the DFG
        # oracle's single source-register rule, once per placement.
        sources = source_registers(record)
        earliest = self.earliest_column(record, sources)
        slot = self._find_slot(kind, width, span, earliest, sources=sources)
        if slot is None:
            return None
        row, col = slot
        self._commit(record, sources, kind, row, col, width)
        return PlacedOp(
            op=record.op,
            kind=kind,
            row=row,
            col=col,
            width=width,
            trace_offset=trace_offset,
            is_branch=record.cls is InstrClass.BRANCH,
        )

    @staticmethod
    def _port_mask(col: int) -> int:
        """Cache-port occupancy of a memory op starting at ``col``: the
        port is pipelined, so only the issue cycle's columns are held."""
        return ((1 << MEM_PORT_ISSUE_COLUMNS) - 1) << col

    def _find_slot(
        self,
        kind: FUKind,
        width: int,
        span: int,
        earliest: int,
        sources: tuple[int, ...] = (),
    ) -> tuple[int, int] | None:
        """Greedy search: earliest column, rows per ``row_policy``.

        A line-budget overflow ends the search outright: pressure is
        per column boundary (no row can help), and a value's charge
        range only grows with later columns, so the overflowing
        boundary stays overflowed for every column further right.
        """
        rows = self.geometry.rows
        if self.row_policy == "round_robin":
            start = self._next_start_row
            row_order = [(start + r) % rows for r in range(rows)]
        else:
            row_order = range(rows)
        last_start = self.geometry.cols - width
        for col in range(earliest, last_start + 1):
            mask = span << col
            if not self._port_free(kind, col):
                continue
            if not self._lines.fits(sources, col):
                break
            for row in row_order:
                if not self._row_busy[row] & mask:
                    if self.row_policy == "round_robin":
                        self._next_start_row = (row + 1) % rows
                    return (row, col)
        return None

    def _port_free(self, kind: FUKind, col: int) -> bool:
        if kind is FUKind.LOAD:
            return not self._load_busy & self._port_mask(col)
        if kind is FUKind.STORE:
            return not self._store_busy & self._port_mask(col)
        return True

    def _commit(
        self,
        record: TraceRecord,
        sources: tuple[int, ...],
        kind: FUKind,
        row: int,
        col: int,
        width: int,
    ) -> None:
        self._row_busy[row] |= ((1 << width) - 1) << col
        if kind is FUKind.LOAD:
            self._load_busy |= self._port_mask(col)
        elif kind is FUKind.STORE:
            self._store_busy |= self._port_mask(col)
        end = col + width
        # Charge operand routing before (re)defining rd: when rd is
        # also a source, the read refers to the previous value.
        self._lines.charge(sources, col)
        if record.rd:
            self._reg_ready[record.rd] = end
            self._lines.define(record.rd, end)
        if kind is FUKind.STORE:
            for word in self._word_span(record):
                self._store_ready[word] = max(
                    self._store_ready.get(word, 0), end
                )
        elif kind is FUKind.LOAD:
            for word in self._word_span(record):
                self._load_ready[word] = max(self._load_ready.get(word, 0), end)

    def try_place_constant(
        self, op: str, rd: int | None, trace_offset: int
    ) -> PlacedOp | None:
        """Place a dependence-free single-column ALU op (constant
        generator, e.g. the ``pc+4`` link value of ``jal``)."""
        slot = self._find_slot(FUKind.ALU, 1, 1, 0)
        if slot is None:
            return None
        row, col = slot
        self._row_busy[row] |= 1 << col
        if rd:
            self._reg_ready[rd] = col + 1
            self._lines.define(rd, col + 1)
        return PlacedOp(
            op=op, kind=FUKind.ALU, row=row, col=col, width=1,
            trace_offset=trace_offset,
        )

    # -- introspection ------------------------------------------------------

    @property
    def placed_cells(self) -> int:
        """Total occupied virtual cells so far."""
        return sum(busy.bit_count() for busy in self._row_busy)

    @property
    def peak_line_pressure(self) -> int:
        """Worst per-boundary context-line demand charged so far."""
        return self._lines.peak
