"""Committed-instruction traces, stored by column.

A trace is the single source of truth shared by every downstream model:
the GPP timing model, the DBT and the CGRA utilization accounting all
walk the same committed trace, which is produced once per workload by
the functional simulator (mirroring how the paper drives everything
from gem5 execution).

A :class:`Trace` holds its program's decoded static instructions once,
as an :class:`InstructionTable`, and per record only compact read-only
numpy columns: the static index, the memory address, the value written
to ``rd``, the branch outcome and the next pc. The walkers, the GPP
reference and DBT unit discovery read the columns (discovery places
from facts decoded once per table row); ``trace[i]``, slices and
iteration build :class:`TraceRecord` views on demand for the code that
wants whole records (mapper windows, the CGRA value oracle and tests).

What the pipeline derives from a trace under some parameters — shared
launch schedules, the GPP reference, the stream's dcache outcome and
front-end annotations — is memoised per process in one memo,
:func:`trace_memo`, weakly keyed on the trace and emptied by
:func:`clear_schedule_caches`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from weakref import WeakKeyDictionary

import numpy as np

from repro.isa.instructions import InstrClass

#: Canonical member order used to encode :attr:`TraceRecord.cls` as a
#: small integer in :attr:`Trace.class_code_array` (``CLASS_MEMBERS[code]``
#: decodes one).
CLASS_MEMBERS = tuple(InstrClass)
_CLASS_INDEX = {cls: index for index, cls in enumerate(CLASS_MEMBERS)}

#: Record-kind codes for speculative streams (:class:`SpeculativeTrace`).
#: Plain committed traces are implicitly all-:data:`KIND_COMMITTED`.
KIND_COMMITTED = 0
KIND_WRONG_PATH = 1
KIND_HANDLER = 2

#: Column entry of a record without a memory address, a written value
#: or a branch outcome (every real one is non-negative).
ABSENT = -1

#: Records viewed per batch when iterating a trace.
_VIEW_CHUNK = 1024


def _column(values, dtype) -> np.ndarray:
    column = np.asarray(values, dtype=dtype)
    column.flags.writeable = False
    return column


def class_histogram(codes: np.ndarray) -> dict[InstrClass, int]:
    """Records per class among the class codes ``codes``, keyed in
    first-occurrence order.

    Downstream energy sums iterate the dict, so its insertion order is
    part of the bit-identical contract with a per-record count.
    """
    counts = np.bincount(codes, minlength=len(CLASS_MEMBERS))
    present = np.flatnonzero(counts).tolist()
    first = [int(np.argmax(codes == code)) for code in present]
    return {
        CLASS_MEMBERS[code]: int(counts[code])
        for _, code in sorted(zip(first, present))
    }


@dataclass(slots=True)
class TraceRecord:
    """One committed instruction (a view built from a :class:`Trace`).

    Attributes:
        pc: address of the instruction.
        op: mnemonic.
        cls: functional class (ALU/MUL/DIV/LOAD/STORE/BRANCH/JUMP/SYSTEM).
        rd: destination register index or ``None`` (x0 normalised to None).
        rs1: first source register index or ``None`` when unused.
        rs2: second source register index or ``None`` when unused.
        imm: immediate value or ``None``.
        rd_value: value written to ``rd`` (for debugging/verification).
        mem_addr: effective address for loads/stores, else ``None``.
        mem_bytes: access width in bytes (0 for non-memory ops).
        taken: branch outcome; ``None`` for non-control-flow ops.
        next_pc: address of the next committed instruction.
    """

    pc: int
    op: str
    cls: InstrClass
    rd: int | None
    rs1: int | None
    rs2: int | None
    imm: int | None
    rd_value: int | None
    mem_addr: int | None
    mem_bytes: int
    taken: bool | None
    next_pc: int

    @property
    def redirects(self) -> bool:
        """Whether the instruction actually changed control flow."""
        return self.next_pc != self.pc + 4


@dataclass(frozen=True, eq=False)
class InstructionTable:
    """Decoded static instructions, one entry per static index.

    Every field is a tuple with one entry per instruction, holding the
    :class:`TraceRecord` field of the same name.
    """

    pc: tuple[int, ...]
    op: tuple[str, ...]
    cls: tuple[InstrClass, ...]
    rd: tuple[int | None, ...]
    rs1: tuple[int | None, ...]
    rs2: tuple[int | None, ...]
    imm: tuple[int | None, ...]
    mem_bytes: tuple[int, ...]

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> InstructionTable:
        """Build a table from ``(pc, op, cls, rd, rs1, rs2, imm,
        mem_bytes)`` rows."""
        columns = tuple(zip(*rows))
        return cls(*(columns or ((),) * 8))

    def __len__(self) -> int:
        return len(self.pc)

    def extended(self, rows: Iterable[tuple]) -> InstructionTable:
        """This table with ``rows`` appended (existing indices keep
        their entries)."""
        own = zip(
            self.pc, self.op, self.cls, self.rd, self.rs1, self.rs2,
            self.imm, self.mem_bytes,
        )
        return InstructionTable.from_rows([*own, *rows])

    @cached_property
    def pc_array(self) -> np.ndarray:
        """Static PCs as a read-only int64 vector."""
        return _column(self.pc, np.int64)

    @cached_property
    def class_codes(self) -> np.ndarray:
        """Static class codes (``CLASS_MEMBERS`` order, read-only int64)."""
        return _column([_CLASS_INDEX[cls] for cls in self.cls], np.int64)

    @cached_property
    def _view_heads(self) -> tuple[tuple, ...]:
        """``(pc, op, cls, rd, rs1, rs2, imm)`` per entry: the leading
        :class:`TraceRecord` fields a view takes from the table."""
        return tuple(
            zip(self.pc, self.op, self.cls, self.rd, self.rs1, self.rs2, self.imm)
        )


class Trace(Sequence[TraceRecord]):
    """An immutable sequence of committed instructions, stored by column.

    Per-record columns (read-only numpy vectors, :data:`ABSENT` where a
    record has no such value):

    * ``static_index_array`` (int32): the record's entry in :attr:`table`;
    * ``mem_addr_array`` (int64): effective address of a load/store;
    * ``rd_value_array`` (int64): value written to ``rd``;
    * ``taken_array`` (int8): 1 taken, 0 not taken, for branches and
      jumps (a taken branch to ``pc + 4`` does not redirect, so the
      outcome is stored rather than derived);
    * ``next_pc_array`` (int64): address of the next record.
    """

    def __init__(
        self,
        table: InstructionTable,
        static_index,
        mem_addr,
        rd_value,
        taken,
        next_pc,
        name: str = "",
    ) -> None:
        self.table = table
        self.name = name
        self.static_index_array = _column(static_index, np.int32)
        self.mem_addr_array = _column(mem_addr, np.int64)
        self.rd_value_array = _column(rd_value, np.int64)
        self.taken_array = _column(taken, np.int8)
        self.next_pc_array = _column(next_pc, np.int64)
        n_records = len(self.static_index_array)
        for column in (
            self.mem_addr_array,
            self.rd_value_array,
            self.taken_array,
            self.next_pc_array,
        ):
            if column.shape != (n_records,):
                raise ValueError("trace columns must have one entry per record")

    def __len__(self) -> int:
        return len(self.static_index_array)

    # -- record views ------------------------------------------------------

    @cached_property
    def _record_columns(self) -> tuple[memoryview, ...]:
        return (
            memoryview(self.static_index_array),
            memoryview(self.rd_value_array),
            memoryview(self.mem_addr_array),
            memoryview(self.taken_array),
            memoryview(self.next_pc_array),
        )

    def __getitem__(self, index):  # noqa: ANN001 - Sequence protocol
        if isinstance(index, slice):
            return self._records(index)
        # Building one record directly costs a third of a one-element
        # slice.
        static_index, rd_values, mem_addrs, outcomes, next_pcs = (
            self._record_columns
        )
        static = static_index[index]
        rd_value = rd_values[index]
        mem_addr = mem_addrs[index]
        taken = outcomes[index]
        return TraceRecord(
            *self.table._view_heads[static],
            None if rd_value < 0 else rd_value,
            None if mem_addr < 0 else mem_addr,
            self.table.mem_bytes[static],
            None if taken < 0 else taken == 1,
            next_pcs[index],
        )

    def _records(self, span: slice) -> list[TraceRecord]:
        heads = self.table._view_heads
        mem_bytes = self.table.mem_bytes
        return [
            TraceRecord(
                *heads[static],
                None if rd_value < 0 else rd_value,
                None if mem_addr < 0 else mem_addr,
                mem_bytes[static],
                None if taken < 0 else taken == 1,
                next_pc,
            )
            for static, rd_value, mem_addr, taken, next_pc in zip(
                *(column[span] for column in self._record_columns)
            )
        ]

    def __iter__(self) -> Iterator[TraceRecord]:
        for start in range(0, len(self), _VIEW_CHUNK):
            yield from self._records(slice(start, start + _VIEW_CHUNK))

    # -- column expressions ------------------------------------------------
    #
    # The timing walkers touch a handful of record fields millions of
    # times; these read-only columns are derived once per trace from the
    # static table and the per-record columns.

    @cached_property
    def pc_array(self) -> np.ndarray:
        """Per-record PCs as a read-only int64 vector."""
        return _column(self.table.pc_array[self.static_index_array], np.int64)

    @cached_property
    def redirect_array(self) -> np.ndarray:
        """Per-record :attr:`TraceRecord.redirects` flags (read-only)."""
        return _column(self.next_pc_array != self.pc_array + 4, bool)

    @cached_property
    def class_code_array(self) -> np.ndarray:
        """Per-record instruction-class codes (read-only int64).

        Codes index the canonical ``tuple(InstrClass)`` member order.
        """
        return _column(
            self.table.class_codes[self.static_index_array], np.int64
        )

    @cached_property
    def _class_counts(self) -> Counter[InstrClass]:
        return Counter(class_histogram(self.class_code_array))

    def class_counts(self) -> Counter[InstrClass]:
        """Histogram of committed instructions by functional class.

        Computed once per trace (cached); a copy is returned so callers
        may mutate it freely.
        """
        return Counter(self._class_counts)

    def class_mix(self) -> dict[InstrClass, float]:
        """Fractional instruction mix by class (sums to 1.0)."""
        total = len(self)
        if not total:
            return {}
        return {cls: count / total for cls, count in self.class_counts().items()}

    def memory_fraction(self) -> float:
        """Fraction of committed instructions that access memory."""
        if not len(self):
            return 0.0
        counts = self.class_counts()
        loads = counts.get(InstrClass.LOAD, 0)
        stores = counts.get(InstrClass.STORE, 0)
        return (loads + stores) / len(self)

    # -- speculative-stream annotations ------------------------------------
    #
    # A plain committed trace carries trivial annotations (all records
    # committed, no flush gaps); :class:`SpeculativeTrace` overrides
    # these with the columns produced by the front end. The walkers only
    # touch them when a front end is configured, so plain traces never
    # pay for the zero columns unless asked.

    #: Whether this trace carries front-end (speculation) annotations.
    speculative: bool = False

    @property
    def n_committed(self) -> int:
        """Number of architecturally committed records in the stream."""
        return len(self)

    @cached_property
    def kind_array(self) -> np.ndarray:
        """Per-record kind codes (read-only int8); all committed here."""
        return _column(np.zeros(len(self), dtype=np.int8), np.int8)

    @cached_property
    def flush_gap_array(self) -> np.ndarray:
        """Pipeline-flush cycles charged *after* each record (read-only)."""
        return _column(np.zeros(len(self), dtype=np.int64), np.int64)

    @cached_property
    def committed_prefix(self) -> np.ndarray:
        """Exclusive prefix sums of committed-record counts (len + 1).

        ``committed_prefix[j]`` is the number of committed records in
        ``trace[:j]``; span counts are two lookups.
        """
        prefix = np.zeros(len(self) + 1, dtype=np.int64)
        np.cumsum(self.kind_array == KIND_COMMITTED, out=prefix[1:])
        return _column(prefix, np.int64)

    @cached_property
    def flush_gap_prefix(self) -> np.ndarray:
        """Exclusive prefix sums of :attr:`flush_gap_array` (len + 1)."""
        prefix = np.zeros(len(self) + 1, dtype=np.int64)
        np.cumsum(self.flush_gap_array, out=prefix[1:])
        return _column(prefix, np.int64)


class SpeculativeTrace(Trace):
    """A front-end-annotated instruction stream.

    Produced by :class:`repro.frontend.SpeculativeFrontEnd` from a
    committed :class:`Trace`: the committed records appear in order,
    interleaved with wrong-path runs after each mispredicted branch and
    interrupt-handler mini-traces, with pipeline-flush gap cycles
    attached to the records that precede a fetch redirect. ``next_pc``
    is *stream-consistent* (each record's ``next_pc`` is the pc of the
    following stream record), so unit-head detection and prefix
    matching see the fetch stream the fabric actually saw. Its table
    extends the base trace's with the synthesized and handler
    instructions.
    """

    speculative = True

    def __init__(
        self,
        table: InstructionTable,
        static_index,
        mem_addr,
        rd_value,
        taken,
        next_pc,
        name: str,
        kinds,
        flush_gaps,
        *,
        n_committed: int,
        mispredicts: int,
        flushes: int,
        interrupts: int,
        frontend_fingerprint: str,
    ) -> None:
        super().__init__(
            table, static_index, mem_addr, rd_value, taken, next_pc, name
        )
        self._kinds = _column(kinds, np.int8)
        self._flush_gaps = _column(flush_gaps, np.int64)
        if self._kinds.shape != (len(self),) or self._flush_gaps.shape != (
            len(self),
        ):
            raise ValueError("annotation columns must match record count")
        self._n_committed = n_committed
        #: Mispredicted branches encountered by the front end.
        self.mispredicts = mispredicts
        #: Pipeline flush events (mispredict resolutions + interrupt
        #: entries/returns).
        self.flushes = flushes
        #: Injected asynchronous interrupts.
        self.interrupts = interrupts
        #: Fingerprint of the :class:`~repro.frontend.FrontEndSpec` that
        #: produced this stream.
        self.frontend_fingerprint = frontend_fingerprint

    @property
    def n_committed(self) -> int:
        return self._n_committed

    @property
    def n_wrong_path(self) -> int:
        """Number of wrong-path records in the stream."""
        return int(np.count_nonzero(self.kind_array == KIND_WRONG_PATH))

    @property
    def flush_cycles(self) -> int:
        """Total pipeline-flush gap cycles in the stream."""
        return int(self.flush_gap_prefix[-1])

    @cached_property
    def kind_array(self) -> np.ndarray:
        return self._kinds

    @cached_property
    def flush_gap_array(self) -> np.ndarray:
        return self._flush_gaps


#: trace -> its :func:`trace_memo`.
_MEMOS: WeakKeyDictionary[Trace, dict] = WeakKeyDictionary()


def trace_memo(trace: Trace) -> dict:
    """The per-process memo of values derived from ``trace``.

    Each entry is keyed by what it holds and the parameter value it is
    derived with (``("dcache", cache_params)``, ...), so equal
    parameters share one computation. Weakly keyed: a trace's entries
    go with it.
    """
    memo = _MEMOS.get(trace)
    if memo is None:
        memo = _MEMOS[trace] = {}
    return memo


def clear_schedule_caches() -> None:
    """Drop every trace's memo: shared schedules, GPP references,
    stream dcache outcomes and front-end annotations (benchmarking and
    test isolation; re-exported by :mod:`repro.system.schedule`)."""
    _MEMOS.clear()
