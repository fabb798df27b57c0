"""Committed-instruction trace records.

A trace is the single source of truth shared by every downstream model:
the GPP timing model, the DBT and the CGRA utilization accounting all
walk the same committed trace, which is produced once per workload by
the functional simulator (mirroring how the paper drives everything
from gem5 execution).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One committed instruction.

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
    def is_control_flow(self) -> bool:
        """Whether this record may redirect the instruction stream."""
        return self.cls in (InstrClass.BRANCH, InstrClass.JUMP)

    @property
    def redirects(self) -> bool:
        """Whether the instruction actually changed control flow."""
        return self.next_pc != self.pc + 4


class Trace(Sequence[TraceRecord]):
    """An immutable-by-convention sequence of committed instructions."""

    def __init__(self, records: list[TraceRecord], name: str = "") -> None:
        self._records = records
        self.name = name

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):  # noqa: ANN001 - Sequence protocol
        return self._records[index]

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def records(self) -> list[TraceRecord]:
        """The underlying record list (read-only by convention): the
        hot walkers index it directly instead of going through the
        sequence protocol."""
        return self._records

    # -- cached columnar views ---------------------------------------------
    #
    # The timing walkers touch a handful of record fields millions of
    # times; these read-only numpy columns are extracted once per trace
    # so the hot loops (prefix matching, unit-head detection, dcache
    # costing) run on arrays instead of attribute chases. They rely on
    # the trace being immutable-by-convention.

    @cached_property
    def pc_array(self) -> np.ndarray:
        """Per-record PCs as a read-only int64 vector."""
        pcs = np.fromiter(
            (record.pc for record in self._records),
            dtype=np.int64,
            count=len(self._records),
        )
        pcs.flags.writeable = False
        return pcs

    @cached_property
    def redirect_array(self) -> np.ndarray:
        """Per-record :attr:`TraceRecord.redirects` flags (read-only)."""
        flags = np.fromiter(
            (record.redirects for record in self._records),
            dtype=bool,
            count=len(self._records),
        )
        flags.flags.writeable = False
        return flags

    @cached_property
    def _mem_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        positions = []
        addresses = []
        for index, record in enumerate(self._records):
            if record.mem_addr is not None:
                positions.append(index)
                addresses.append(record.mem_addr)
        position_arr = np.asarray(positions, dtype=np.int64)
        address_arr = np.asarray(addresses, dtype=np.int64)
        position_arr.flags.writeable = False
        address_arr.flags.writeable = False
        return position_arr, address_arr

    @property
    def mem_positions(self) -> np.ndarray:
        """Sorted record indices of all loads/stores (read-only)."""
        return self._mem_arrays[0]

    @property
    def mem_addresses(self) -> np.ndarray:
        """Effective addresses aligned with :attr:`mem_positions`."""
        return self._mem_arrays[1]

    @cached_property
    def class_code_array(self) -> np.ndarray:
        """Per-record instruction-class codes (read-only int64).

        Codes index the canonical ``tuple(InstrClass)`` member order.
        """
        codes = np.fromiter(
            (_CLASS_INDEX[record.cls] for record in self._records),
            dtype=np.int64,
            count=len(self._records),
        )
        codes.flags.writeable = False
        return codes

    @cached_property
    def _class_counts(self) -> Counter[InstrClass]:
        codes = self.class_code_array
        if codes.size == 0:
            return Counter()
        values, first_index = np.unique(codes, return_index=True)
        counts = np.bincount(codes)
        # Preserve first-occurrence order: downstream energy sums
        # iterate the dict, so insertion order is part of the
        # bit-identical contract with the per-record Counter walk.
        order = np.argsort(first_index, kind="stable")
        return Counter(
            {
                CLASS_MEMBERS[int(values[i])]: int(counts[values[i]])
                for i in order
            }
        )

    def class_counts(self) -> Counter[InstrClass]:
        """Histogram of committed instructions by functional class.

        Computed once per trace (cached); a copy is returned so callers
        may mutate it freely.
        """
        return Counter(self._class_counts)

    def class_mix(self) -> dict[InstrClass, float]:
        """Fractional instruction mix by class (sums to 1.0)."""
        if not self._records:
            return {}
        total = len(self._records)
        return {cls: count / total for cls, count in self.class_counts().items()}

    def memory_fraction(self) -> float:
        """Fraction of committed instructions that access memory."""
        if not self._records:
            return 0.0
        counts = self.class_counts()
        loads = counts.get(InstrClass.LOAD, 0)
        stores = counts.get(InstrClass.STORE, 0)
        return (loads + stores) / len(self._records)

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
        return len(self._records)

    @cached_property
    def kind_array(self) -> np.ndarray:
        """Per-record kind codes (read-only int8); all committed here."""
        kinds = np.zeros(len(self._records), dtype=np.int8)
        kinds.flags.writeable = False
        return kinds

    @cached_property
    def flush_gap_array(self) -> np.ndarray:
        """Pipeline-flush cycles charged *after* each record (read-only)."""
        gaps = np.zeros(len(self._records), dtype=np.int64)
        gaps.flags.writeable = False
        return gaps

    @cached_property
    def committed_prefix(self) -> np.ndarray:
        """Exclusive prefix sums of committed-record counts (len + 1).

        ``committed_prefix[j]`` is the number of committed records in
        ``records[:j]``; span counts are two lookups.
        """
        prefix = np.zeros(len(self._records) + 1, dtype=np.int64)
        np.cumsum(self.kind_array == KIND_COMMITTED, out=prefix[1:])
        prefix.flags.writeable = False
        return prefix

    @cached_property
    def flush_gap_prefix(self) -> np.ndarray:
        """Exclusive prefix sums of :attr:`flush_gap_array` (len + 1)."""
        prefix = np.zeros(len(self._records) + 1, dtype=np.int64)
        np.cumsum(self.flush_gap_array, out=prefix[1:])
        prefix.flags.writeable = False
        return prefix


class SpeculativeTrace(Trace):
    """A front-end-annotated instruction stream.

    Produced by :class:`repro.frontend.SpeculativeFrontEnd` from a
    committed :class:`Trace`: the committed records appear in order,
    interleaved with wrong-path runs after each mispredicted branch and
    interrupt-handler mini-traces, with pipeline-flush gap cycles
    attached to the records that precede a fetch redirect. ``next_pc``
    is rewritten to be *stream-consistent* (each record's ``next_pc``
    is the pc of the following stream record), so unit-head detection
    and prefix matching see the fetch stream the fabric actually saw.
    """

    speculative = True

    def __init__(
        self,
        records: list[TraceRecord],
        name: str,
        kinds: list[int],
        flush_gaps: list[int],
        *,
        n_committed: int,
        mispredicts: int,
        flushes: int,
        interrupts: int,
        frontend_fingerprint: str,
    ) -> None:
        if len(kinds) != len(records) or len(flush_gaps) != len(records):
            raise ValueError("annotation columns must match record count")
        super().__init__(records, name)
        self._kinds = kinds
        self._flush_gaps = flush_gaps
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
        kinds = np.asarray(self._kinds, dtype=np.int8)
        kinds.flags.writeable = False
        return kinds

    @cached_property
    def flush_gap_array(self) -> np.ndarray:
        gaps = np.asarray(self._flush_gaps, dtype=np.int64)
        gaps.flags.writeable = False
        return gaps
