"""Ablation benches for the design choices DESIGN.md calls out.

Each bench varies one knob the paper fixes and checks the reproduction
is robust (or sensitive) the way the design rationale predicts:

* movement pattern — any fabric-covering pattern balances equally well
  over long runs (the snake is chosen for its 1-step hardware moves);
* rotation stride — strides co-prime with the pattern length keep full
  coverage;
* config-cache capacity — small caches thrash and cost speedup but do
  not change the balancing result;
* speculated-branch budget — more speculation means larger units and
  higher occupation;
* misspeculation monitor — disabling it hurts branchy workloads.
"""

import numpy as np

from repro.cgra.fabric import FabricGeometry
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import make_policy
from repro.dbt.translator import DBTLimits
from repro.dbt.window import build_unit
from repro.system.params import SystemParams
from repro.system.transrec import TransRecSystem
from repro.workloads.suite import run_workload

GEOMETRY = FabricGeometry(rows=2, cols=16)


def suite_subset():
    return {
        name: run_workload(name)
        for name in ("bitcount", "crc32", "sha", "susan_corners")
    }


def test_ablation_movement_patterns(benchmark):
    """All fabric-covering patterns converge to the same balance."""
    trace = run_workload("sha")
    unit = build_unit(trace, 0, GEOMETRY)

    def run():
        outcome = {}
        for pattern in ("snake", "raster", "column_snake", "diagonal"):
            allocator = ConfigurationAllocator(
                GEOMETRY, make_policy("rotation", pattern=pattern)
            )
            allocator.allocate_batch([unit] * (GEOMETRY.n_cells * 8))
            outcome[pattern] = allocator.tracker.max_utilization()
        return outcome

    worst = benchmark.pedantic(run, rounds=1, iterations=1)
    values = list(worst.values())
    print("\npattern ablation (worst util):", worst)
    assert max(values) - min(values) < 0.02


def test_ablation_rotation_stride(benchmark):
    """Co-prime strides keep exact coverage; launches spread evenly."""
    trace = run_workload("sha")
    unit = build_unit(trace, 0, GEOMETRY)

    def run():
        outcome = {}
        for stride in (1, 3, 5, 7):  # all co-prime with 32
            allocator = ConfigurationAllocator(
                GEOMETRY, make_policy("rotation", stride=stride)
            )
            allocator.allocate_batch([unit] * (GEOMETRY.n_cells * 4))
            counts = allocator.tracker.execution_counts
            outcome[stride] = int(counts.max() - counts.min())
        return outcome

    spread = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nstride ablation (count spread):", spread)
    for stride, delta in spread.items():
        # A full number of sweeps -> identical per-cell counts.
        assert delta == 0, f"stride {stride} broke uniform coverage"


def test_ablation_config_cache_capacity(benchmark):
    """Small caches cost performance, never balance."""
    traces = suite_subset()

    def run():
        outcome = {}
        for capacity in (2, 8, 64):
            params = SystemParams(
                geometry=GEOMETRY, policy="rotation",
                config_cache_entries=capacity,
            )
            system = TransRecSystem(params)
            speedups = []
            worst = 0.0
            for trace in traces.values():
                result = system.run_trace(trace)
                speedups.append(result.speedup)
                worst = max(worst, result.tracker.max_utilization())
            outcome[capacity] = (
                float(np.exp(np.mean(np.log(speedups)))), worst
            )
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\ncache-capacity ablation (speedup, worst util):", outcome)
    assert outcome[2][0] <= outcome[64][0]  # thrashing costs speedup
    # Balancing quality does not depend on the cache size.
    assert abs(outcome[2][1] - outcome[64][1]) < 0.15


def test_ablation_branch_budget(benchmark):
    """More speculation -> larger units -> higher occupation."""
    traces = suite_subset()

    def run():
        outcome = {}
        for budget in (0, 1, 3, 6):
            params = SystemParams(
                geometry=GEOMETRY,
                dbt=DBTLimits(max_branches=budget),
            )
            system = TransRecSystem(params)
            counts = np.zeros((GEOMETRY.rows, GEOMETRY.cols))
            launches = 0
            for trace in traces.values():
                result = system.run_trace(trace)
                counts += result.tracker.execution_counts
                launches += result.tracker.total_executions
            outcome[budget] = float(counts.mean() / max(1, launches))
        return outcome

    occupation = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nbranch-budget ablation (mean occupation):", occupation)
    # Deep speculation forms the largest units; the trend is between
    # the low-budget region and the deep end (small budgets reshuffle
    # unit boundaries non-monotonically).
    assert min(occupation[0], occupation[1]) < occupation[6]
    assert occupation[3] < occupation[6]


def test_ablation_misspec_monitor(benchmark):
    """Disabling the monitor inflates misspeculations on branchy code."""
    trace = run_workload("crc32")

    def run():
        outcome = {}
        for monitored in (True, False):
            launches = 4 if monitored else 10**9
            params = SystemParams(
                geometry=GEOMETRY,
                dbt=DBTLimits(misspec_monitor_launches=launches),
            )
            result = TransRecSystem(params).run_trace(trace)
            outcome[monitored] = (
                result.cgra.misspeculations, result.speedup
            )
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nmonitor ablation (misspecs, speedup):", outcome)
    assert outcome[True][0] < outcome[False][0]
    assert outcome[True][1] >= outcome[False][1] * 0.95


def test_ablation_policy_family(benchmark):
    """Rotation ~ random ~ stress-aware on balance; baseline far off.

    Uses crc32, whose small units leave a large utilization budget on
    the BE fabric (a kernel like sha fills the whole fabric, leaving
    nothing to balance — see the occupation column of Fig. 6).
    """
    trace = run_workload("crc32")

    def run():
        outcome = {}
        for policy, kwargs in (
            ("baseline", {}),
            ("static_remap", {}),
            ("rotation", {}),
            ("random", {"seed": 5}),
            ("stress_aware", {"interval": 8}),
        ):
            params = SystemParams(
                geometry=GEOMETRY, policy=policy, policy_kwargs=kwargs
            )
            result = TransRecSystem(params).run_trace(trace)
            outcome[policy] = result.tracker.max_utilization()
        return outcome

    worst = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\npolicy ablation (worst util):", worst)
    assert worst["baseline"] > 0.9
    for policy in ("rotation", "random", "stress_aware"):
        assert worst[policy] < worst["baseline"] * 0.7
    # The static related-work approach helps, but run-time rotation
    # beats it (the paper's central argument vs [19]).
    assert worst["static_remap"] <= worst["baseline"]
    assert worst["rotation"] < worst["static_remap"]
