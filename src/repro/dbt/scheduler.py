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

Placement reads :class:`PlacementFacts`, the per-instruction facts it
needs (unit-ending test, ``jal`` handling, FU kind and span, source and
destination registers, branch flag, access width), plus the record's
memory address. Unit discovery (:func:`repro.dbt.window.translate_unit`)
is the one greedy placement pass: it decodes each row of a trace's
:class:`~repro.sim.trace.InstructionTable` once (:func:`table_facts`)
and places straight from the trace's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

from repro.cgra.configuration import PlacedOp
from repro.cgra.fabric import FabricGeometry
from repro.cgra.fu import (
    MEM_PORT_ISSUE_COLUMNS,
    FUKind,
    fu_kind_for,
    latency_columns,
)
from repro.cgra.interconnect import LinePressureTracker
from repro.dbt.dfg import source_registers
from repro.isa.instructions import InstrClass
from repro.sim.trace import ABSENT, InstructionTable, TraceRecord

#: Sentinel returned by :meth:`SchedulerState.place` for instructions
#: that stay on the recorded path but contribute no fabric op
#: (``jal x0``, a pure goto with no dataflow).
NO_FABRIC_OP = object()

#: Cache-port occupancy of a memory op starting at column 0: the port
#: is pipelined, so only the issue cycle's columns are held.
_PORT_MASK = (1 << MEM_PORT_ISSUE_COLUMNS) - 1


class PlacementFacts:
    """What placing one static instruction needs to know, decoded from
    a record (its dynamic fields are ignored).

    Attributes:
        op: mnemonic (copied onto the placed op).
        ends_unit: the unit can never contain or continue across the
            instruction (DIV, SYSTEM, ``jalr``: target unknown at
            translation time).
        jal: a ``jal``: a goto without fabric op when ``rd`` is
            ``None``, otherwise a link-value constant generator.
        kind: FU kind executing the instruction, ``None`` when the
            fabric cannot (DIV, JUMP, SYSTEM).
        width: columns the op spans (0 when ``kind`` is ``None``).
        sources: registers read, by :func:`repro.dbt.dfg.source_registers`.
        rd: destination register, or ``None``.
        is_branch: a speculated branch comparison.
        mem_bytes: access width in bytes (0 for non-memory ops).
    """

    # A plain slotted class: no caller needs a dataclass's generated
    # methods, which would cost each process ~1 ms to build at import.
    __slots__ = (
        "op", "ends_unit", "jal", "kind", "width", "sources", "rd",
        "is_branch", "mem_bytes",
    )

    def __init__(self, record: TraceRecord) -> None:
        cls = record.cls
        kind = fu_kind_for(cls)
        is_jump = cls is InstrClass.JUMP
        self.op = record.op
        self.ends_unit = cls in (InstrClass.DIV, InstrClass.SYSTEM) or (
            is_jump and record.op == "jalr"
        )
        self.jal = is_jump and record.op == "jal"
        self.kind = kind
        self.width = 0 if kind is None else latency_columns(kind)
        self.sources = source_registers(record)
        self.rd = record.rd
        self.is_branch = cls is InstrClass.BRANCH
        self.mem_bytes = record.mem_bytes


#: Decoded rows per instruction table; weak keys, so a table's facts
#: go with the last trace that holds it.
_TABLE_FACTS: WeakKeyDictionary[InstructionTable, tuple[PlacementFacts, ...]]
_TABLE_FACTS = WeakKeyDictionary()


def table_facts(table: InstructionTable) -> tuple[PlacementFacts, ...]:
    """:class:`PlacementFacts` of every row of ``table``, indexed like
    the table (decoded once per table)."""
    facts = _TABLE_FACTS.get(table)
    if facts is None:
        facts = tuple(
            PlacementFacts(
                TraceRecord(
                    pc, op, cls, rd, rs1, rs2, imm,
                    None, None, mem_bytes, None, pc + 4,
                )
            )
            for pc, op, cls, rd, rs1, rs2, imm, mem_bytes in zip(
                table.pc, table.op, table.cls, table.rd, table.rs1,
                table.rs2, table.imm, table.mem_bytes,
            )
        )
        _TABLE_FACTS[table] = facts
    return facts


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

    The geometry's declared routing budget
    (:attr:`~repro.cgra.fabric.FabricGeometry.routing_budget`) bounds
    the per-column context-line pressure: the slot search stops at the
    first candidate column whose operand routing would overflow, so
    placement fails and the unit closes (a later column only lengthens
    the routed values, so none can fit). A geometry that leaves
    ``ctx_lines`` undeclared routes elastically, as the paper pipeline
    does.
    """

    geometry: FabricGeometry
    row_policy: str = "first_fit"

    def __post_init__(self) -> None:
        if self.row_policy not in ("first_fit", "round_robin"):
            raise ValueError(f"unknown row policy {self.row_policy!r}")
        self._rows = self.geometry.rows
        self._cols = self.geometry.cols
        self._round_robin = self.row_policy == "round_robin"
        self._row_busy = [0] * self._rows  # column bitmask per row
        self._load_busy = 0    # columns with a load in flight (1 read port)
        self._store_busy = 0   # columns with a store in flight (1 write port)
        self._reg_ready: dict[int, int] = {}        # reg -> producer end col
        self._store_ready: dict[int, int] = {}      # word -> last store end
        self._load_ready: dict[int, int] = {}       # word -> last load end
        self._next_start_row = 0
        self._lines = LinePressureTracker(
            self._cols, self.geometry.routing_budget
        )

    # -- placement ----------------------------------------------------------

    def place(
        self, facts: PlacementFacts, mem_addr: int, trace_offset: int
    ) -> PlacedOp | object | None:
        """Greedily place one instruction.

        ``mem_addr`` is the record's effective address, or
        :data:`~repro.sim.trace.ABSENT` for none. Returns the
        :class:`PlacedOp`, :data:`NO_FABRIC_OP` for ``jal x0``, or
        ``None`` when the instruction is unmappable or found no free
        slot. On success the occupancy and dependence state are
        updated; on failure the state is left untouched (so the caller
        can close the unit).

        Loads are ordered after overlapping stores (RAW through memory);
        stores are ordered after overlapping stores (WAW) and loads
        (WAR); load-load pairs stay unordered, matching
        :func:`repro.dbt.dfg.build_dfg`.
        """
        if facts.jal:
            if facts.rd is None:
                return NO_FABRIC_OP
            # The link value pc+4 is a translation-time constant
            # generated by an ALU cell with no input dependences.
            return self.try_place_constant(facts.op, facts.rd, trace_offset)
        kind = facts.kind
        if kind is None:
            return None
        sources = facts.sources
        earliest = 0
        reg_ready = self._reg_ready
        for reg in sources:
            ready = reg_ready.get(reg, 0)
            if ready > earliest:
                earliest = ready
        words = None
        if mem_addr != ABSENT:
            words = range(
                mem_addr >> 2, ((mem_addr + facts.mem_bytes - 1) >> 2) + 1
            )
            store_ready = self._store_ready
            load_ready = self._load_ready
            is_store = kind is FUKind.STORE
            for word in words:
                ready = store_ready.get(word, 0)
                if ready > earliest:
                    earliest = ready
                if is_store:
                    ready = load_ready.get(word, 0)
                    if ready > earliest:
                        earliest = ready
        width = facts.width
        slot = self._find_slot(kind, width, earliest, sources)
        if slot is None:
            return None
        row, col = slot
        end = col + width
        self._row_busy[row] |= ((1 << width) - 1) << col
        # Charge operand routing before (re)defining rd: when rd is
        # also a source, the read refers to the previous value.
        if sources:
            self._lines.charge(sources, col)
        rd = facts.rd
        if rd:
            reg_ready[rd] = end
            self._lines.define(rd, end)
        if kind is FUKind.LOAD:
            self._load_busy |= _PORT_MASK << col
            ready_map = self._load_ready
        elif kind is FUKind.STORE:
            self._store_busy |= _PORT_MASK << col
            ready_map = self._store_ready
        else:
            ready_map = None
        if ready_map is not None and words is not None:
            for word in words:
                if ready_map.get(word, 0) < end:
                    ready_map[word] = end
        return PlacedOp(
            facts.op, kind, row, col, width, trace_offset, facts.is_branch
        )

    def _find_slot(
        self,
        kind: FUKind,
        width: int,
        earliest: int,
        sources: tuple[int, ...] = (),
    ) -> tuple[int, int] | None:
        """Greedy search: earliest column, rows per ``row_policy``.

        A line-budget overflow ends the search outright: pressure is
        per column boundary (no row can help), and a value's charge
        range only grows with later columns, so the overflowing
        boundary stays overflowed for every column further right.
        """
        rows = self._rows
        if self._round_robin:
            start = self._next_start_row
            row_order = [(start + r) % rows for r in range(rows)]
        else:
            row_order = range(rows)
        if kind is FUKind.LOAD:
            port_busy = self._load_busy
        elif kind is FUKind.STORE:
            port_busy = self._store_busy
        else:
            port_busy = 0
        lines = self._lines
        if not sources or lines.limit is None:
            lines = None  # fits() holds trivially
        row_busy = self._row_busy
        span = (1 << width) - 1
        for col in range(earliest, self._cols - width + 1):
            if port_busy & (_PORT_MASK << col):
                continue
            if lines is not None and not lines.fits(sources, col):
                break
            mask = span << col
            for row in row_order:
                if not row_busy[row] & mask:
                    if self._round_robin:
                        self._next_start_row = (row + 1) % rows
                    return (row, col)
        return None

    def try_place_constant(
        self, op: str, rd: int | None, trace_offset: int
    ) -> PlacedOp | None:
        """Place a dependence-free single-column ALU op (constant
        generator, e.g. the ``pc+4`` link value of ``jal``)."""
        slot = self._find_slot(FUKind.ALU, 1, 0)
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
