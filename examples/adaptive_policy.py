"""Policy ablation + writing a custom sequence-planning policy.

Part 1 compares the shipped allocation policies (plus rotation pattern
variants) on the largest scenario, where the utilization budget is
biggest. This covers the paper's future-work direction — using
run-time aging information (the stress-aware policy) — and shows why
the cheap hardware rotation is already close to the balancing optimum.

Part 2 shows how to write a *custom* policy
(`repro.core.policy.AllocationPolicy`). It implements both hooks:
``next_pivot`` places one launch (``ConfigurationAllocator.allocate``
calls it launch by launch with the live per-cell launch counts), and
``plan_pivots`` plans a whole launch schedule in one call against a
private copy of those counts, adding the launches it has planned to
the copy only where it reads it again. Both hooks produce
bit-identical stress.

Run:  python examples/adaptive_policy.py
"""

import numpy as np

from repro import NBTIModel, lifetime_improvement
from repro.analysis.distribution import gini, summary_statistics
from repro.analysis.tables import render_table
from repro.cgra.fabric import FabricGeometry
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import AllocationPolicy, candidate_footprints
from repro.core.utilization import Weighting
from repro.experiments.common import run_suite
from repro.system import SystemParams, replay_schedule, shared_schedule
from repro.workloads.suite import run_workload

ROWS, COLS = 8, 32  # the BU fabric

POLICIES = (
    ("baseline", {}),
    ("static_remap", {}),   # related work [19]: health-aware, frozen
    ("rotation", {"pattern": "snake"}),
    ("rotation", {"pattern": "raster"}),
    ("rotation", {"pattern": "column_snake"}),
    ("rotation", {"pattern": "diagonal"}),
    ("random", {"seed": 1}),
    ("stress_aware", {"interval": 16}),
)


def label_of(policy, kwargs):
    if policy == "rotation":
        return f"rotation/{kwargs['pattern']}"
    return policy


# ----------------------------------------------------------------------
# Part 2: a custom policy implementing both hooks.
#
# "Coolest-corner epochs": every ``epoch`` launches the controller
# reads the accumulated stress and re-anchors the pivot at the
# candidate whose footprint has the lowest *total* stress (a simpler
# duty cycle than stress_aware's min-max search); between re-anchors
# the pivot holds still, so the plan inside an epoch is a constant
# tile and the planner reads the counts once per epoch.


class CoolestCornerPolicy(AllocationPolicy):
    """Re-anchor at the minimum-total-stress pivot every ``epoch``
    launches."""

    name = "coolest_corner"
    plan_granularity = "interval"

    def __init__(self, epoch: int = 64) -> None:
        self.epoch = epoch
        self._launches = 0
        self._pivot = (0, 0)

    def bind(self, geometry: FabricGeometry) -> None:
        super().bind(geometry)
        self._launches = 0
        self._pivot = (0, 0)
        self._candidates = np.asarray(
            [
                (row, col)
                for row in range(geometry.rows)
                for col in range(geometry.cols)
            ],
            dtype=np.int64,
        )

    def _re_anchor(self, config, counts) -> tuple[int, int]:
        footprints = candidate_footprints(
            config, self._candidates, self.geometry
        )
        totals = counts[footprints].sum(axis=1)
        best = int(np.argmin(totals))  # first minimum wins: deterministic
        return (int(self._candidates[best, 0]), int(self._candidates[best, 1]))

    def next_pivot(self, config, counts) -> tuple[int, int]:
        if self._launches % self.epoch == 0:
            self._pivot = self._re_anchor(config, counts)
        self._launches += 1
        return self._pivot

    def plan_pivots(self, schedule, counts):
        n_launches = schedule.n_launches
        cols = self.geometry.cols
        pivots = np.empty((n_launches, 2), dtype=np.int64)
        counted = index = 0
        while index < n_launches:
            if self._launches % self.epoch == 0:
                # ``counts`` is the allocator's private copy: add the
                # launches planned since the last re-anchor, through the
                # fold's own tables, so this read sees what next_pivot
                # would see here.
                planned = pivots[counted:index]
                schedule.fold_tables(self.geometry).add_counts(
                    counts,
                    schedule.unit_index[counted:index],
                    planned[:, 0] * cols + planned[:, 1],
                )
                counted = index
                self._pivot = self._re_anchor(schedule.configs[index], counts)
            count = min(
                self.epoch - self._launches % self.epoch, n_launches - index
            )
            self._launches += count
            pivots[index : index + count] = self._pivot
            index += count
        return pivots

    def describe(self) -> str:
        return f"coolest_corner(epoch={self.epoch})"


def demo_custom_policy(rows: int = 4, cols: int = 16):
    """Run one workload's schedule through both hooks: a per-launch
    ``allocate`` loop places every launch with ``next_pivot``, the
    schedule replay plans them all with ``plan_pivots``. Returns the
    two trackers (identical)."""
    geometry = FabricGeometry(rows=rows, cols=cols)
    schedule = shared_schedule(
        SystemParams(geometry=geometry), run_workload("bitcount")
    )
    stepped = ConfigurationAllocator(geometry, CoolestCornerPolicy())
    for unit, cycles in zip(schedule.configs, schedule.exec_cycles.tolist()):
        stepped.allocate(unit, cycles=cycles)
    planned = replay_schedule(schedule, geometry, CoolestCornerPolicy())
    return planned.tracker, stepped.tracker


def main():
    model = NBTIModel()
    baseline_worst = None
    rows = []
    for policy, kwargs in POLICIES:
        run = run_suite(ROWS, COLS, policy=policy, **kwargs)
        util = run.utilization(Weighting.EXECUTIONS)
        stats = summary_statistics(util.ravel())
        if policy == "baseline":
            baseline_worst = stats["max"]
        improvement = lifetime_improvement(
            model, baseline_worst, stats["max"]
        )
        rows.append(
            (
                label_of(policy, kwargs),
                f"{run.geomean_speedup():.2f}x",
                f"{stats['max'] * 100:5.1f}%",
                f"{stats['mean'] * 100:5.1f}%",
                f"{gini(util.ravel()):.3f}",
                f"{improvement:.2f}x",
            )
        )
    print(
        render_table(
            ("policy", "speedup", "worst util", "mean util",
             "gini", "lifetime vs baseline"),
            rows,
            title=f"Allocation-policy ablation on the BU fabric "
                  f"({COLS}x{ROWS}, full suite)",
        )
    )
    print(
        "\nReading the table: every balancing policy pushes the worst-"
        "case utilization toward the fabric mean (gini -> 0). The "
        "paper's snake rotation gets there with a counter and a few "
        "muxes; the stress-aware variant (future work in the paper) "
        "buys only a little more balance for a pivot search."
    )

    planned, stepped = demo_custom_policy()
    identical = bool(
        np.array_equal(planned.execution_counts, stepped.execution_counts)
    )
    print(
        "\nCustom policy (coolest_corner): replayed "
        f"{planned.total_executions} launches in "
        f"{np.count_nonzero(planned.execution_counts)} stressed cells "
        "with plan_pivots; launch-by-launch allocate loop with "
        f"next_pivot identical: {identical}"
    )


if __name__ == "__main__":
    main()
