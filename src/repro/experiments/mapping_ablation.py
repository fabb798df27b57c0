"""Mapping ablation — mapper-level vs allocation-level wear leveling.

Not a paper figure: the paper fixes the mapping stage to the greedy
first-fit scheduler and levels wear purely at allocation time. With the
pluggable :mod:`repro.mapping` stage the reproduction can ask the
question the paper could not — how much aging mitigation belongs in the
*mapper*, how much in the *allocator*, and what the two achieve
together. Four arms on the BE fabric:

======================  =========  =============
arm                     mapper     allocation
======================  =========  =============
neither                 greedy     baseline
mapper-level            annealing  baseline
allocation-level        greedy     stress_aware
combined                annealing  stress_aware
======================  =========  =============

The annealing mapper is bounded to the greedy bounding width of each
translated window, so its units cost no more execution cycles than
greedy's, except a misspeculation-truncated unit, whose annealed
prefix keeps its columns and can run wider than the greedy prefix
(:func:`repro.dbt.window.truncate_unit`); the cycle-overhead column
shows what that costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.tables import render_table
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    MapperSpec,
    PolicySpec,
    SuiteRun,
)
from repro.cgra.fabric import FabricGeometry
from repro.core.utilization import Weighting
from repro.workloads.suite import run_workload

GEOMETRY = FabricGeometry(rows=2, cols=16)
SUBSET = ("bitcount", "crc32", "sha", "susan_corners")
SA_SEED = 0

#: (arm label, mapper spec kwargs, policy spec kwargs)
ARMS = (
    ("neither", ("greedy", {}), ("baseline", {})),
    ("mapper-level", ("annealing", {"seed": SA_SEED}), ("baseline", {})),
    ("allocation-level", ("greedy", {}), ("stress_aware", {"interval": 8})),
    (
        "combined",
        ("annealing", {"seed": SA_SEED}),
        ("stress_aware", {"interval": 8}),
    ),
)


@dataclass
class MappingAblationResult:
    """Per-arm aggregates plus the per-workload peak-stress matrix."""

    #: (arm, worst util, mean util, cycle overhead vs "neither")
    arm_rows: list[tuple[str, float, float, float]] = field(
        default_factory=list
    )
    #: workload -> {arm: (peak utilization, transrec cycles)}
    per_workload: dict[str, dict[str, tuple[float, int]]] = field(
        default_factory=dict
    )


def _run_arm(traces, mapper: tuple, policy: tuple) -> SuiteRun:
    mapper_name, mapper_kwargs = mapper
    policy_name, policy_kwargs = policy
    spec = CampaignSpec(
        geometries=((GEOMETRY.rows, GEOMETRY.cols),),
        policies=(PolicySpec.make(policy_name, **policy_kwargs),),
        mappers=(MapperSpec.make(mapper_name, **mapper_kwargs),),
        workloads=tuple(traces),
        name="mapping_ablation",
    )
    return CampaignRunner().run(spec, traces=traces).only_run()


def run() -> MappingAblationResult:
    traces = {name: run_workload(name) for name in SUBSET}
    result = MappingAblationResult()
    runs: dict[str, SuiteRun] = {}
    for arm, mapper, policy in ARMS:
        runs[arm] = _run_arm(traces, mapper, policy)
    reference = runs["neither"]
    ref_cycles = {
        name: res.transrec_cycles for name, res in reference.results.items()
    }
    for arm, _, _ in ARMS:
        suite_run = runs[arm]
        util = suite_run.utilization(Weighting.EXECUTIONS)
        total = sum(r.transrec_cycles for r in suite_run.results.values())
        overhead = total / sum(ref_cycles.values()) - 1.0
        result.arm_rows.append(
            (arm, float(util.max()), float(util.mean()), overhead)
        )
        for name, res in suite_run.results.items():
            result.per_workload.setdefault(name, {})[arm] = (
                res.tracker.max_utilization(),
                res.transrec_cycles,
            )
    return result


def render(result: MappingAblationResult) -> str:
    arm_table = render_table(
        ("wear leveling", "worst util", "mean util", "cycle overhead"),
        [
            (
                arm,
                f"{worst * 100:5.1f}%",
                f"{mean * 100:5.1f}%",
                f"{overhead * 100:+5.2f}%",
            )
            for arm, worst, mean, overhead in result.arm_rows
        ],
        title="Mapping ablation (BE fabric, 4-workload subset)",
    )
    arms = [arm for arm, _, _ in ARMS]
    workload_table = render_table(
        ("workload", *arms),
        [
            (
                name,
                *(
                    f"{result.per_workload[name][arm][0] * 100:5.1f}%"
                    for arm in arms
                ),
            )
            for name in sorted(result.per_workload)
        ],
        title="Peak-cell stress per workload (lower is better)",
    )
    return arm_table + "\n\n" + workload_table


def main() -> None:
    print(render(run()))  # noqa: T201


if __name__ == "__main__":
    main()
