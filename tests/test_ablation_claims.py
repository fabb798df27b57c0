"""Design-choice ablations: each varies one knob the paper fixes.

The checks say how robust (or sensitive) the reproduction is to that
knob:

* movement pattern: every fabric-covering pattern balances equally well
  over long runs (the snake is chosen for its 1-step hardware moves);
* rotation stride: strides co-prime with the pattern length keep full
  coverage;
* config-cache capacity: small caches thrash and cost speedup but do
  not change the balancing result;
* speculated-branch budget: more speculation means larger units and
  higher occupation;
* misspeculation monitor: disabling it hurts branchy workloads;
* policy family: the run-time policies balance alike, and beat the
  static related-work placement.

``repro.experiments.ablation`` prints a reduced version of these
comparisons.
"""

import numpy as np
import pytest

from repro.cgra.fabric import FabricGeometry
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import make_policy
from repro.dbt.translator import DBTLimits
from repro.dbt.window import build_unit
from repro.system.params import SystemParams
from repro.system.transrec import TransRecSystem
from repro.workloads.suite import run_workload

GEOMETRY = FabricGeometry(rows=2, cols=16)
SUBSET = ("bitcount", "crc32", "sha", "susan_corners")


@pytest.fixture(scope="module")
def sha_unit():
    return build_unit(run_workload("sha"), 0, GEOMETRY)


def test_movement_patterns_balance_alike(sha_unit):
    worst = []
    for pattern in ("snake", "raster", "column_snake", "diagonal"):
        allocator = ConfigurationAllocator(
            GEOMETRY, make_policy("rotation", pattern=pattern)
        )
        allocator.allocate_batch([sha_unit] * (GEOMETRY.n_cells * 8))
        worst.append(allocator.tracker.max_utilization())
    assert max(worst) - min(worst) < 0.02


@pytest.mark.parametrize("stride", [1, 3, 5, 7])
def test_coprime_stride_covers_uniformly(sha_unit, stride):
    allocator = ConfigurationAllocator(
        GEOMETRY, make_policy("rotation", stride=stride)
    )
    # A whole number of sweeps gives every cell the same count.
    allocator.allocate_batch([sha_unit] * (GEOMETRY.n_cells * 4))
    counts = allocator.tracker.execution_counts
    assert counts.max() == counts.min()


def _suite_runs(**params):
    system = TransRecSystem(SystemParams(geometry=GEOMETRY, **params))
    return [system.run_trace(run_workload(name)) for name in SUBSET]


def test_small_config_cache_costs_speedup_not_balance():
    outcome = {}
    for capacity in (2, 8, 64):
        results = _suite_runs(policy="rotation", config_cache_entries=capacity)
        speedup = np.exp(np.mean(np.log([r.speedup for r in results])))
        worst = max(r.tracker.max_utilization() for r in results)
        outcome[capacity] = (speedup, worst)
    assert outcome[2][0] <= outcome[64][0]
    assert abs(outcome[2][1] - outcome[64][1]) < 0.15


def test_deeper_speculation_raises_occupation():
    occupation = {}
    for budget in (0, 1, 3, 6):
        results = _suite_runs(dbt=DBTLimits(max_branches=budget))
        counts = sum(r.tracker.execution_counts for r in results)
        launches = sum(r.tracker.total_executions for r in results)
        occupation[budget] = float(counts.mean() / max(1, launches))
    # Small budgets reshuffle unit boundaries non-monotonically, so the
    # trend holds between the low-budget region and the deep end.
    assert min(occupation[0], occupation[1]) < occupation[6]
    assert occupation[3] < occupation[6]


def test_misspeculation_monitor_pays_on_branchy_code():
    trace = run_workload("crc32")
    outcome = {}
    for monitored in (True, False):
        params = SystemParams(
            geometry=GEOMETRY,
            dbt=DBTLimits(misspec_monitor_launches=4 if monitored else 10**9),
        )
        result = TransRecSystem(params).run_trace(trace)
        outcome[monitored] = (result.cgra.misspeculations, result.speedup)
    assert outcome[True][0] < outcome[False][0]
    assert outcome[True][1] >= outcome[False][1] * 0.95


def test_policy_family_balance():
    # crc32's small units leave a large utilization budget on the BE
    # fabric; a kernel like sha fills the whole fabric.
    trace = run_workload("crc32")
    worst = {}
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
        worst[policy] = result.tracker.max_utilization()
    assert worst["baseline"] > 0.9
    for policy in ("rotation", "random", "stress_aware"):
        assert worst[policy] < worst["baseline"] * 0.7
    # The static related-work placement helps, but run-time rotation
    # beats it (the paper's central argument against [19]).
    assert worst["static_remap"] <= worst["baseline"]
    assert worst["rotation"] < worst["static_remap"]
