"""Routing ablation — context-line pressure under three mapping regimes.

Not a paper figure: the paper (and PR 2's mappers) treat the
left-to-right context-line interconnect as infinite, so wear-aware
annealing may crowd far more live values onto a column boundary than
the fabric has lines. With the :mod:`repro.mapping.routing` pressure
model the reproduction can quantify that: three arms on a wide fabric
where the annealer has room to move, all under simulated-annealing
mapping with the baseline allocator (mapper effects isolated):

==============  ==================================================
arm             mapping regime
==============  ==================================================
unconstrained   SA, congestion term off, elastic routing (PR 2)
hard-limit      SA under a declared ``ctx_lines = 2*rows`` budget
                (scheduler fallback + SA move rejection + oracle)
cost-shaped     SA with the congestion cost term (default weight),
                elastic routing — wide units pay for pressure
                beyond the fabric's line sizing but nothing is
                rejected
==============  ==================================================

The cost-shaped arm keeps unit discovery and the greedy width cap
identical to the unconstrained arm, so its cycle overhead is zero by
construction; the hard-limit arm may re-shape units (the scheduler
falls back to later columns, windows close earlier) and reports the
real price of guaranteed routability.
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

GEOMETRY = FabricGeometry(rows=4, cols=24)
#: The hard-limit arm's declared budget — the TransRec baseline sizing.
LINE_BUDGET = 2 * GEOMETRY.rows
SUBSET = ("bitcount", "crc32", "sha", "susan_corners")
SA_SEED = 0

#: (arm label, geometry shape for the campaign, SA mapper kwargs)
ARMS = (
    (
        "unconstrained",
        (GEOMETRY.rows, GEOMETRY.cols),
        {"seed": SA_SEED, "congestion_weight": 0.0},
    ),
    (
        "hard-limit",
        (GEOMETRY.rows, GEOMETRY.cols, LINE_BUDGET),
        {"seed": SA_SEED, "congestion_weight": 0.0},
    ),
    (
        "cost-shaped",
        (GEOMETRY.rows, GEOMETRY.cols),
        {"seed": SA_SEED},
    ),
)


@dataclass
class RoutingAblationResult:
    """Per-arm aggregates plus the per-workload pressure matrix."""

    #: (arm, peak line pressure, worst util, cycle overhead vs
    #: "unconstrained")
    arm_rows: list[tuple[str, int, float, float]] = field(
        default_factory=list
    )
    #: workload -> {arm: (peak line pressure, peak utilization,
    #: transrec cycles)}
    per_workload: dict[str, dict[str, tuple[int, float, int]]] = field(
        default_factory=dict
    )


def _run_arm(traces, shape: tuple, mapper_kwargs: dict) -> SuiteRun:
    spec = CampaignSpec(
        geometries=(shape,),
        policies=(PolicySpec.make("baseline"),),
        mappers=(MapperSpec.make("annealing", **mapper_kwargs),),
        workloads=tuple(traces),
        name="routing_ablation",
    )
    return CampaignRunner().run(spec, traces=traces).only_run()


def run() -> RoutingAblationResult:
    traces = {name: run_workload(name) for name in SUBSET}
    result = RoutingAblationResult()
    runs: dict[str, SuiteRun] = {}
    for arm, shape, mapper_kwargs in ARMS:
        runs[arm] = _run_arm(traces, shape, mapper_kwargs)
    reference = runs["unconstrained"]
    ref_cycles = sum(
        res.transrec_cycles for res in reference.results.values()
    )
    for arm, _, _ in ARMS:
        suite_run = runs[arm]
        peak_pressure = max(
            res.cgra.peak_line_pressure
            for res in suite_run.results.values()
        )
        util = suite_run.utilization(Weighting.EXECUTIONS)
        total = sum(
            res.transrec_cycles for res in suite_run.results.values()
        )
        result.arm_rows.append(
            (arm, peak_pressure, float(util.max()), total / ref_cycles - 1.0)
        )
        for name, res in suite_run.results.items():
            result.per_workload.setdefault(name, {})[arm] = (
                res.cgra.peak_line_pressure,
                res.tracker.max_utilization(),
                res.transrec_cycles,
            )
    return result


def render(result: RoutingAblationResult) -> str:
    arm_table = render_table(
        ("mapping regime", "peak line pressure", "worst util",
         "cycle overhead"),
        [
            (
                arm,
                f"{pressure:3d} / {LINE_BUDGET} lines",
                f"{worst * 100:5.1f}%",
                f"{overhead * 100:+5.2f}%",
            )
            for arm, pressure, worst, overhead in result.arm_rows
        ],
        title=(
            f"Routing ablation ({GEOMETRY}, 4-workload subset, "
            "SA mapping + baseline allocation)"
        ),
    )
    arms = [arm for arm, _, _ in ARMS]
    workload_table = render_table(
        ("workload", *arms),
        [
            (
                name,
                *(
                    f"{result.per_workload[name][arm][0]:3d} lines"
                    for arm in arms
                ),
            )
            for name in sorted(result.per_workload)
        ],
        title="Peak context-line pressure per workload (lower is better)",
    )
    return arm_table + "\n\n" + workload_table


def main() -> None:
    print(render(run()))  # noqa: T201


if __name__ == "__main__":
    main()
