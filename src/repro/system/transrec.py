"""The TransRec system timing simulation (Fig. 2's execution model).

The simulator walks a committed trace once:

* at every *unit head* (first instruction, or any instruction after a
  control-flow redirect) the configuration cache is probed with the PC;
* on a hit, the cached unit replays on the CGRA: the recorded PC path
  is compared against the upcoming trace, the matching prefix commits,
  a divergent branch squashes the rest (misspeculation penalty), and
  the allocation policy places the launch on the fabric;
* on a miss, the instruction executes on the GPP while the hardware
  DBT translates a new unit in the background (no cycle cost — the DBT
  is a parallel hardware module).

The walk lives in :mod:`repro.system.schedule`: it records the
policy-independent :class:`~repro.system.schedule.LaunchSchedule`
(everything above plus the activity counts the energy model needs).
The pipeline decides how the allocation policy is applied. A
stress-coupled mapper reads the allocator's live stress map, so its
walk (the *coupled* walk) carries an allocator and folds the launches
recorded since the previous read into it, as one batch, every time the
mapper reads the map. Every other pipeline replays, vectorized, a
schedule shared across all policies of the same pipeline — the lever
that makes policy-sweep campaigns cheap. Replay hands the policy the
whole launch sequence in one call
(:meth:`~repro.core.policy.AllocationPolicy.plan_pivots`), so even
stress-searching policies replay in a few vectorized passes per search
interval rather than launch by launch.
"""

from __future__ import annotations

from repro import obs
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import make_policy
from repro.hw.energy import EnergyModel
from repro.isa.program import Program
from repro.sim.cpu import CPU
from repro.sim.trace import Trace
from repro.system.params import SystemParams
from repro.system.schedule import (
    LaunchSchedule,
    compute_schedule,
    gpp_reference,
    params_stress_coupled,
    replay_schedule,
    shared_schedule,
)
from repro.system.stats import SystemResult


class TransRecSystem:
    """One design point: geometry + policy + timing parameters."""

    def __init__(self, params: SystemParams) -> None:
        self.params = params
        self.geometry = params.geometry
        self._energy_model = EnergyModel()

    @property
    def stress_coupled(self) -> bool:
        """Whether this pipeline's mapper reads live allocation stress
        (such design points cannot share launch schedules)."""
        return params_stress_coupled(self.params)

    # ------------------------------------------------------------------

    def run_program(self, program: Program) -> SystemResult:
        """Functionally execute ``program``, then time the trace."""
        return self.run_trace(CPU(program).run().trace)

    def run_trace(self, trace: Trace) -> SystemResult:
        """Time ``trace`` on the stand-alone GPP and on TransRec.

        Stress-coupled pipelines take the coupled walk; every other
        pipeline replays the memoised shared schedule under this
        point's policy.
        """
        if self.stress_coupled:
            return self._run_coupled(trace)
        obs.count("transrec.runs.replay")
        schedule = shared_schedule(self.params, trace)
        allocator = replay_schedule(schedule, self.geometry, self._policy())
        return self._assemble(schedule, allocator, trace)

    def _run_coupled(self, trace: Trace) -> SystemResult:
        """The walk with the allocator brought up to date at every
        stress read: the only path for stress-coupled pipelines. On a
        greedy pipeline nothing reads stress, so the walk folds all its
        launches in one batch at its end; tests match replay against
        it for the walk's counters and against a per-launch
        ``allocate`` loop for the tracker."""
        obs.count("transrec.runs.coupled")
        with obs.span("schedule.walk", trace=trace.name, coupled=True):
            allocator = ConfigurationAllocator(self.geometry, self._policy())
            schedule = compute_schedule(
                self.params, trace, allocator=allocator
            )
        return self._assemble(schedule, allocator, trace)

    # ------------------------------------------------------------------

    def _policy(self):
        return make_policy(self.params.policy, **self.params.policy_kwargs)

    def _assemble(
        self,
        schedule: LaunchSchedule,
        allocator: ConfigurationAllocator,
        trace: Trace,
    ) -> SystemResult:
        gpp_timing, gpp_energy = gpp_reference(trace, self.params)
        cgra_stats, cache_stats = schedule.result_template()
        return SystemResult(
            name=schedule.trace_name,
            gpp=gpp_timing,
            transrec_cycles=schedule.transrec_cycles,
            cgra=cgra_stats,
            cache_stats=cache_stats,
            tracker=allocator.tracker,
            gpp_energy=gpp_energy,
            transrec_energy=self._energy_model.report(schedule.activity),
            instructions=schedule.instructions,
        )
