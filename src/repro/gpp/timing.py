"""Trace-driven timing model of the stand-alone GPP.

Times records of a trace in stream order:

``cycles = class histogram . base cycles per class
         + icache misses of the fetched PCs * icache miss penalty
         + mispredicted branches * branch mispredict penalty
         + dcache misses of the stream * dcache miss penalty``

One pass, :meth:`GPPTimingModel.cycles_at`, charges the first three
terms over a strictly ascending array of record positions: the
stand-alone reference passes every position of a trace, and the
TransRec walk the positions its GPP side ran (the union of its GPP
segments). Only state changes cost Python work:

* the base cycles weight one histogram of the class codes (an
  ``np.bincount``, which also gives the class counts) by the
  class-cycle table;
* the icache sees the fetched PCs through
  :meth:`~repro.gpp.cache.CacheModel.access_many`, which merges runs of
  fetches from one line (exact: such a repeat is a hit on the most
  recent line of its set);
* the branch predictor runs over the branch records alone, since no
  other record touches it.

The GPP and the CGRA share one L1 data cache, and every load/store of
a stream passes through it exactly once, in stream order, on whichever
side runs it. So a stream's dcache hit/miss sequence depends only on
the stream and the cache's params, and its penalty is charged once per
stream: :func:`stream_dcache` memoises the ``(misses, accesses)`` of
each (stream, :class:`~repro.gpp.cache.CacheParams`) pair in the
stream's :func:`~repro.sim.trace.trace_memo`. The reference and the
walk each add it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.gpp.branch import make_predictor
from repro.gpp.cache import CacheModel, CacheParams
from repro.gpp.params import GPPParams
from repro.isa.instructions import InstrClass
from repro.sim.trace import (
    ABSENT,
    CLASS_MEMBERS,
    Trace,
    class_histogram,
    trace_memo,
)

_BRANCH_CODE = CLASS_MEMBERS.index(InstrClass.BRANCH)

__all__ = [
    "CacheOutcome",
    "GPPTimingModel",
    "GPPTimingResult",
    "make_predictor",
    "stream_dcache",
]


class CacheOutcome(NamedTuple):
    """Hit/miss outcome of one cold cache over a whole stream."""

    misses: int
    accesses: int

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


def stream_dcache(trace: Trace, params: CacheParams) -> CacheOutcome:
    """Outcome of a cold data cache with ``params`` that sees every
    load/store of ``trace`` once, in order (memoised in the stream's
    :func:`~repro.sim.trace.trace_memo`)."""
    memo = trace_memo(trace)
    key = ("dcache", params)
    outcome = memo.get(key)
    if outcome is None:
        cache = CacheModel(params)
        addresses = trace.mem_addr_array
        cache.access_many(addresses[addresses != ABSENT])
        outcome = memo[key] = CacheOutcome(cache.misses, cache.accesses)
    return outcome


@dataclass
class GPPTimingResult:
    """Cycle breakdown for one trace on the stand-alone GPP."""

    cycles: int
    instructions: int
    base_cycles: int
    icache_miss_cycles: int
    dcache_miss_cycles: int
    mispredict_cycles: int
    icache_miss_rate: float
    dcache_miss_rate: float
    icache_misses: int = 0
    dcache_misses: int = 0

    @property
    def cpi(self) -> float:
        """Cycles per committed instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0


class GPPTimingModel:
    """Stateful per-trace timing walker for the stand-alone GPP."""

    def __init__(self, params: GPPParams | None = None) -> None:
        self.params = params if params is not None else GPPParams()
        self.predictor = make_predictor(self.params.predictor)
        self.reset()

    def cycles_at(self, trace: Trace, positions: np.ndarray) -> int:
        """Cycles of the records of ``trace`` at ``positions``, executed
        in order on this GPP, without the dcache (charged once per
        stream).

        ``positions`` is a strictly ascending int array of record
        positions. The model's one cost pass: base cycles per class,
        the icache penalty of every fetch and the refill penalty of
        every mispredicted branch. Updates the icache and predictor
        state and the running :attr:`base_cycles`, :attr:`mispredicts`
        and :attr:`class_counts`, so consecutive calls on the pieces of
        an ordered partition charge what one call on their union does.

        Raises:
            ValueError: if ``positions`` is not a strictly ascending
                1-D int array of positions inside ``trace``.
        """
        positions = _record_positions(positions, len(trace))
        codes = trace.class_code_array[positions]
        cycles_for = self.params.cycles_for
        class_counts = self.class_counts
        base = 0
        for cls, count in class_histogram(codes).items():
            base += cycles_for(cls) * count
            class_counts[cls] = class_counts.get(cls, 0) + count
        icache = self.icache
        icache_misses = icache.misses
        icache.access_many(trace.pc_array[positions])
        mispredicts = self._mispredicts(
            trace, positions[codes == _BRANCH_CODE]
        )
        self.base_cycles += base
        self.mispredicts += mispredicts
        return (
            base
            + (icache.misses - icache_misses) * icache.params.miss_penalty
            + mispredicts * self.params.branch_mispredict_penalty
        )

    def _mispredicts(self, trace: Trace, branches: np.ndarray) -> int:
        """Run the predictor over the branch records at ``branches``, in
        order (no other record touches it); return its mispredicts."""
        imms = trace.table.imm
        predict = self.predictor.predict
        update = self.predictor.update
        mispredicts = 0
        for pc, index, taken in zip(
            trace.pc_array[branches].tolist(),
            trace.static_index_array[branches].tolist(),
            (trace.taken_array[branches] == 1).tolist(),
        ):
            imm = imms[index]
            if predict(pc, imm if imm is not None else 0) != taken:
                mispredicts += 1
            update(pc, taken)
        return mispredicts

    def run(self, trace: Trace) -> GPPTimingResult:
        """Time a whole trace on a fresh GPP (state is reset first)."""
        self.reset()
        params = self.params
        dcache = stream_dcache(trace, params.dcache)
        dcache_miss_cycles = dcache.misses * params.dcache.miss_penalty
        total = (
            self.cycles_at(trace, np.arange(len(trace))) + dcache_miss_cycles
        )
        return GPPTimingResult(
            cycles=total,
            instructions=len(trace),
            base_cycles=self.base_cycles,
            icache_miss_cycles=self.icache.misses * params.icache.miss_penalty,
            dcache_miss_cycles=dcache_miss_cycles,
            mispredict_cycles=(
                self.mispredicts * params.branch_mispredict_penalty
            ),
            icache_miss_rate=self.icache.miss_rate,
            dcache_miss_rate=dcache.miss_rate,
            icache_misses=self.icache.misses,
            dcache_misses=dcache.misses,
        )

    def reset(self) -> None:
        """Reset the icache, predictor and counts to their initial
        (cold) state."""
        self.icache = CacheModel(self.params.icache)
        self.predictor.reset()
        #: Base (class) cycles charged since the last reset.
        self.base_cycles = 0
        #: Mispredicted branches since the last reset.
        self.mispredicts = 0
        #: Records timed per class since the last reset, in
        #: first-occurrence order.
        self.class_counts: dict[InstrClass, int] = {}


def _record_positions(positions: np.ndarray, n_records: int) -> np.ndarray:
    """``positions`` as int64, checked to be strictly ascending positions
    of a trace of ``n_records`` records."""
    array = np.asarray(positions)
    if array.ndim != 1 or (array.size and array.dtype.kind not in "iu"):
        raise ValueError(
            f"record positions must be a 1-D int array, got {array.dtype} "
            f"of shape {array.shape}"
        )
    array = array.astype(np.int64, copy=False)
    if not array.size:
        return array
    if array.size > 1 and not (array[1:] > array[:-1]).all():
        raise ValueError("record positions must be strictly ascending")
    if array[0] < 0 or array[-1] >= n_records:
        raise ValueError(
            f"record positions {int(array[0])}..{int(array[-1])} lie "
            f"outside a trace of {n_records} records"
        )
    return array
