"""Ablation study over the reproduction's design choices.

Not a paper figure — this quantifies the choices DESIGN.md makes and
the comparisons the paper argues qualitatively: movement-pattern
equivalence, the static related-work placement ([19]) versus run-time
rotation, and the misspeculation monitor's effect. Runs on a fast
workload subset; ``tests/test_ablation_claims.py`` asserts these
comparisons and the stride, config-cache and branch-budget ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.tables import render_table
from repro.campaign import CampaignRunner, CampaignSpec, PolicySpec
from repro.cgra.fabric import FabricGeometry
from repro.core.utilization import Weighting
from repro.dbt.translator import DBTLimits
from repro.system.params import SystemParams
from repro.workloads.suite import run_workload

GEOMETRY = FabricGeometry(rows=2, cols=16)
SUBSET = ("bitcount", "crc32", "sha", "susan_corners")

_POLICIES = (
    ("baseline", {}),
    ("static_remap", {}),
    ("rotation", {"pattern": "snake"}),
    ("rotation", {"pattern": "raster"}),
    ("rotation", {"pattern": "diagonal"}),
    ("random", {"seed": 5}),
    ("stress_aware", {"interval": 8}),
)


@dataclass
class AblationResult:
    """Worst/mean utilization per policy plus monitor statistics."""

    policy_rows: list[tuple[str, float, float]] = field(default_factory=list)
    monitor_rows: list[tuple[str, int, int, float]] = field(
        default_factory=list
    )


def _label(policy: str, kwargs: dict) -> str:
    if policy == "rotation":
        return f"rotation/{kwargs.get('pattern', 'snake')}"
    return policy


def _measure(
    traces, policy: str, kwargs: dict, row_policy: str = "first_fit"
) -> tuple[float, float]:
    spec = CampaignSpec(
        geometries=((GEOMETRY.rows, GEOMETRY.cols),),
        policies=(PolicySpec.make(policy, **kwargs),),
        workloads=tuple(traces),
        name="ablation",
    )
    base_params = SystemParams(
        geometry=GEOMETRY, dbt=DBTLimits(row_policy=row_policy)
    )
    runner = CampaignRunner(base_params=base_params)
    suite_run = runner.run(spec, traces=traces).only_run()
    util = suite_run.utilization(Weighting.EXECUTIONS)
    return float(util.max()), float(util.mean())


def run() -> AblationResult:
    traces = {name: run_workload(name) for name in SUBSET}
    result = AblationResult()
    for policy, kwargs in _POLICIES:
        worst, mean = _measure(traces, policy, kwargs)
        result.policy_rows.append((_label(policy, kwargs), worst, mean))
    # Scheduler-level balancing: round-robin rows with a fixed pivot.
    worst, mean = _measure(traces, "baseline", {}, row_policy="round_robin")
    result.policy_rows.append(("scheduler round_robin rows", worst, mean))
    for monitored in (True, False):
        threshold = 4 if monitored else 10**9
        spec = CampaignSpec(
            geometries=((GEOMETRY.rows, GEOMETRY.cols),),
            policies=(PolicySpec.make("baseline"),),
            workloads=("crc32",),
            name="ablation_monitor",
        )
        runner = CampaignRunner(
            base_params=SystemParams(
                geometry=GEOMETRY,
                dbt=DBTLimits(misspec_monitor_launches=threshold),
            )
        )
        suite_run = runner.run(
            spec, traces={"crc32": run_workload("crc32")}
        ).only_run()
        run_result = suite_run.results["crc32"]
        result.monitor_rows.append(
            (
                "on" if monitored else "off",
                run_result.cgra.misspeculations,
                run_result.cgra.launches,
                run_result.speedup,
            )
        )
    return result


def render(result: AblationResult) -> str:
    policy_table = render_table(
        ("policy", "worst util", "mean util"),
        [
            (label, f"{worst * 100:5.1f}%", f"{mean * 100:5.1f}%")
            for label, worst, mean in result.policy_rows
        ],
        title="Allocation-policy ablation (BE fabric, 4-workload subset)",
    )
    monitor_table = render_table(
        ("misspec monitor", "misspeculations", "launches", "speedup"),
        [
            (state, f"{misses:,}", f"{launches:,}", f"{speedup:.2f}x")
            for state, misses, launches, speedup in result.monitor_rows
        ],
        title="Misspeculation monitor on crc32 (data-dependent branch)",
    )
    return policy_table + "\n\n" + monitor_table


def main() -> None:
    print(render(run()))  # noqa: T201


if __name__ == "__main__":
    main()
