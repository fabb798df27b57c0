"""Trace-driven timing model of the stand-alone GPP.

Walks a committed trace and accumulates cycles:

``cycles = sum(base cycles per class)
         + icache miss penalties (per fetch)
         + dcache miss penalties (per load/store)
         + branch mispredict penalties``

One per-record cost, :meth:`GPPTimingModel.span_cycles`, reads the
trace's columns; the stand-alone reference times a whole trace with it
and the TransRec walk times the instructions that execute on the GPP
side with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpp.branch import make_predictor
from repro.gpp.cache import CacheModel
from repro.gpp.params import GPPParams
from repro.isa.instructions import InstrClass
from repro.sim.trace import CLASS_MEMBERS, Trace

_BRANCH_CODE = CLASS_MEMBERS.index(InstrClass.BRANCH)

__all__ = ["GPPTimingModel", "GPPTimingResult", "make_predictor"]


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
                    trace.mem_addr_array,
                    trace.taken_array,
                    trace.static_index_array,
                )
            )
            self._columns = (trace, columns)
        return columns

    def span_cycles(self, trace: Trace, start: int, stop: int) -> int:
        """Cycles of ``trace[start:stop]`` executed in order on this GPP.

        The model's one per-record cost: base cycles per class, plus
        the icache penalty of every fetch, the dcache penalty of every
        load/store and the refill penalty of every mispredicted branch.
        Updates the cache and predictor state, and the running
        :attr:`base_cycles` and :attr:`mispredicts` :meth:`run` reports.
        """
        codes, pcs, addresses, outcomes, indices = self._columns_of(trace)
        imms = trace.table.imm
        class_cycles = self._class_cycles
        icache = self.icache
        dcache = self.dcache
        icache_access = icache.access
        dcache_access = dcache.access
        predict = self.predictor.predict
        update = self.predictor.update
        icache_misses = icache.misses
        dcache_misses = dcache.misses
        base = 0
        mispredicts = 0
        for position in range(start, stop):
            code = codes[position]
            base += class_cycles[code]
            pc = pcs[position]
            icache_access(pc)
            address = addresses[position]
            if address >= 0:
                dcache_access(address)
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
            + (dcache.misses - dcache_misses) * dcache.params.miss_penalty
            + mispredicts * self.params.branch_mispredict_penalty
        )

    def run(self, trace: Trace) -> GPPTimingResult:
        """Time a whole trace on a fresh GPP (state is reset first)."""
        self.reset()
        total = self.span_cycles(trace, 0, len(trace))
        params = self.params
        return GPPTimingResult(
            cycles=total,
            instructions=len(trace),
            base_cycles=self.base_cycles,
            icache_miss_cycles=self.icache.misses * params.icache.miss_penalty,
            dcache_miss_cycles=self.dcache.misses * params.dcache.miss_penalty,
            mispredict_cycles=(
                self.mispredicts * params.branch_mispredict_penalty
            ),
            icache_miss_rate=self.icache.miss_rate,
            dcache_miss_rate=self.dcache.miss_rate,
            icache_misses=self.icache.misses,
            dcache_misses=self.dcache.misses,
        )

    def reset(self) -> None:
        """Reset caches, predictor and counts to their initial (cold)
        state."""
        self.icache = CacheModel(self.params.icache)
        self.dcache = CacheModel(self.params.dcache)
        self.predictor.reset()
        #: Base (class) cycles charged since the last reset.
        self.base_cycles = 0
        #: Mispredicted branches since the last reset.
        self.mispredicts = 0
