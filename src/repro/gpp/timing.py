"""Trace-driven timing model of the stand-alone GPP.

Walks a committed trace and accumulates cycles:

``cycles = sum(base cycles per class)
         + icache miss penalties (per fetch)
         + branch mispredict penalties
         + dcache misses of the stream * dcache miss penalty``

The GPP and the CGRA share one L1 data cache, and every load/store of
a stream passes through it exactly once, in stream order, on whichever
side runs it. So a stream's dcache hit/miss sequence depends only on
the stream and the cache's params, and its penalty is charged once per
stream: :func:`stream_dcache` memoises the ``(misses, accesses)`` of
each (stream, :class:`~repro.gpp.cache.CacheParams`) pair, weakly
keyed on the stream. One per-record cost,
:meth:`GPPTimingModel.span_cycles`, charges the rest from the trace's
columns; the stand-alone reference times a whole trace with it and the
TransRec walk times the instructions that execute on the GPP side with
it, and both add the stream's dcache penalty once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple
from weakref import WeakKeyDictionary

from repro.gpp.branch import make_predictor
from repro.gpp.cache import CacheModel, CacheParams
from repro.gpp.params import GPPParams
from repro.isa.instructions import InstrClass
from repro.sim.trace import ABSENT, CLASS_MEMBERS, Trace

_BRANCH_CODE = CLASS_MEMBERS.index(InstrClass.BRANCH)

__all__ = [
    "CacheOutcome",
    "GPPTimingModel",
    "GPPTimingResult",
    "clear_stream_dcache",
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


_STREAM_DCACHE: WeakKeyDictionary = WeakKeyDictionary()


def stream_dcache(trace: Trace, params: CacheParams) -> CacheOutcome:
    """Outcome of a cold data cache with ``params`` that sees every
    load/store of ``trace`` once, in order (memoised per process,
    weakly keyed on the stream)."""
    per_stream = _STREAM_DCACHE.get(trace)
    if per_stream is None:
        per_stream = _STREAM_DCACHE[trace] = {}
    outcome = per_stream.get(params)
    if outcome is None:
        cache = CacheModel(params)
        access = cache.access
        addresses = trace.mem_addr_array
        for address in memoryview(addresses[addresses != ABSENT]):
            access(address)
        outcome = per_stream[params] = CacheOutcome(
            cache.misses, cache.accesses
        )
    return outcome


def clear_stream_dcache() -> None:
    """Drop every memoised :func:`stream_dcache` outcome."""
    _STREAM_DCACHE.clear()


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
        #: Base cycles per class code (``CLASS_MEMBERS`` order).
        self._class_cycles = [
            self.params.cycles_for(cls) for cls in CLASS_MEMBERS
        ]
        self._columns: tuple[Trace | None, tuple] = (None, ())
        self.reset()

    def _columns_of(self, trace: Trace) -> tuple[memoryview, ...]:
        bound, columns = self._columns
        if bound is not trace:
            columns = tuple(
                memoryview(column)
                for column in (
                    trace.class_code_array,
                    trace.pc_array,
                    trace.taken_array,
                    trace.static_index_array,
                )
            )
            self._columns = (trace, columns)
        return columns

    def span_cycles(self, trace: Trace, start: int, stop: int) -> int:
        """Cycles of ``trace[start:stop]`` executed in order on this GPP,
        without the dcache (charged once per stream).

        The model's one per-record cost: base cycles per class, plus
        the icache penalty of every fetch and the refill penalty of
        every mispredicted branch. Updates the icache and predictor
        state, and the running :attr:`base_cycles` and
        :attr:`mispredicts` :meth:`run` reports.
        """
        codes, pcs, outcomes, indices = self._columns_of(trace)
        imms = trace.table.imm
        class_cycles = self._class_cycles
        icache = self.icache
        icache_access = icache.access
        predict = self.predictor.predict
        update = self.predictor.update
        icache_misses = icache.misses
        base = 0
        mispredicts = 0
        for position in range(start, stop):
            code = codes[position]
            base += class_cycles[code]
            pc = pcs[position]
            icache_access(pc)
            if code == _BRANCH_CODE:
                imm = imms[indices[position]]
                taken = outcomes[position] == 1
                if predict(pc, imm if imm is not None else 0) != taken:
                    mispredicts += 1
                update(pc, taken)
        self.base_cycles += base
        self.mispredicts += mispredicts
        return (
            base
            + (icache.misses - icache_misses) * icache.params.miss_penalty
            + mispredicts * self.params.branch_mispredict_penalty
        )

    def run(self, trace: Trace) -> GPPTimingResult:
        """Time a whole trace on a fresh GPP (state is reset first)."""
        self.reset()
        params = self.params
        dcache = stream_dcache(trace, params.dcache)
        dcache_miss_cycles = dcache.misses * params.dcache.miss_penalty
        total = self.span_cycles(trace, 0, len(trace)) + dcache_miss_cycles
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
