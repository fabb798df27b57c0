"""Speculation study — aging under a speculative GPP front end.

Not a paper figure: the paper drives every experiment from clean
committed gem5 traces, so its aging numbers assume an ideal front end.
With :mod:`repro.frontend` the reproduction can quantify what real
speculation does to the fabric: per branch predictor, the front end
emits wrong-path launches (squashed work that still occupies fabric
cells and pollutes the config cache), pipeline flush gaps and seeded
interrupt punctuation, and the campaign layer sweeps the resulting
streams against the clean baseline.

Four front-end arms (clean baseline, then btfn / bimodal / gshare
predictors with identical fetch/resolve geometry and interrupt rate)
are crossed with the paper's two headline allocation policies on the
4x8 fabric. Reported per arm: the mispredict rate and wrong-path
pressure, then per policy the worst-cell utilization and NBTI lifetime
delta versus the clean-stream arm under the *same* policy — isolating
what speculation alone costs (or hides) in aging terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aging.lifetime import lifetime_years
from repro.aging.nbti import NBTIModel
from repro.analysis.tables import render_table
from repro.campaign import CampaignRunner, CampaignSpec, PolicySpec, SuiteRun
from repro.cgra.fabric import FabricGeometry
from repro.errors import checked_ratio
from repro.frontend import FrontEndSpec
from repro.isa.instructions import InstrClass
from repro.workloads.suite import run_workload

GEOMETRY = FabricGeometry(rows=4, cols=8)
SUBSET = ("bitcount", "crc32", "sha", "dijkstra")
POLICIES = ("baseline", "stress_aware")

#: Shared fetch/resolve geometry and interrupt punctuation of every
#: speculative arm — only the predictor differs between arms.
FRONTEND_KWARGS = {"interrupt_rate": 0.0005, "seed": 7}

#: (arm label, front end) — ``None`` is the clean committed stream.
ARMS: tuple[tuple[str, FrontEndSpec | None], ...] = (
    ("clean", None),
    ("btfn", FrontEndSpec.make("btfn", **FRONTEND_KWARGS)),
    ("bimodal", FrontEndSpec.make("bimodal", **FRONTEND_KWARGS)),
    ("gshare", FrontEndSpec.make("gshare", **FRONTEND_KWARGS)),
)


@dataclass
class SpeculationResult:
    """Per-arm front-end pressure plus per-policy aging deltas."""

    #: Committed branches in the workload subset (mispredict-rate
    #: denominator).
    branches: int = 0
    #: arm -> (mispredicts, wrong_path_launches, wrong_path_instructions,
    #: flushes, interrupts)
    frontend_rows: dict[str, tuple[int, int, int, int, int]] = field(
        default_factory=dict
    )
    #: policy -> arm -> (worst utilization, lifetime years)
    aging: dict[str, dict[str, tuple[float, float]]] = field(
        default_factory=dict
    )

    def mispredict_rate(self, arm: str) -> float:
        """Mispredicted fraction of committed branches for ``arm``."""
        if not self.branches:
            return 0.0
        return self.frontend_rows[arm][0] / self.branches

    def lifetime_ratio(self, policy: str, arm: str) -> float:
        """Arm lifetime / clean-stream lifetime under one policy."""
        return checked_ratio(
            self.aging[policy][arm][1],
            self.aging[policy]["clean"][1],
            "lifetime_ratio",
        )


def _arm_of(frontend: FrontEndSpec | None) -> str:
    for arm, spec in ARMS:
        if spec == frontend:
            return arm
    raise KeyError(f"unexpected front end {frontend!r}")


def run(model: NBTIModel | None = None) -> SpeculationResult:
    model = model if model is not None else NBTIModel()
    traces = {name: run_workload(name) for name in SUBSET}
    spec = CampaignSpec(
        geometries=((GEOMETRY.rows, GEOMETRY.cols),),
        policies=tuple(PolicySpec.make(name) for name in POLICIES),
        frontends=tuple(frontend for _, frontend in ARMS),
        workloads=SUBSET,
        name="speculation",
    )
    campaign = CampaignRunner().run(spec, traces=traces)

    result = SpeculationResult(
        branches=sum(
            trace.class_counts().get(InstrClass.BRANCH, 0)
            for trace in traces.values()
        )
    )
    runs: dict[tuple[str, str], SuiteRun] = {}
    for point, suite_run in campaign:
        runs[(_arm_of(point.frontend), point.policy.name)] = suite_run
    for arm, _ in ARMS:
        # Front-end pressure is policy-independent; read it off the
        # first policy's run.
        suite_run = runs[(arm, POLICIES[0])]
        result.frontend_rows[arm] = (
            sum(r.cgra.frontend_mispredicts for r in suite_run.results.values()),
            sum(r.cgra.wrong_path_launches for r in suite_run.results.values()),
            sum(
                r.cgra.wrong_path_instructions
                for r in suite_run.results.values()
            ),
            sum(r.cgra.frontend_flushes for r in suite_run.results.values()),
            sum(r.cgra.frontend_interrupts for r in suite_run.results.values()),
        )
    for policy in POLICIES:
        per_arm: dict[str, tuple[float, float]] = {}
        for arm, _ in ARMS:
            worst = runs[(arm, policy)].max_utilization()
            per_arm[arm] = (worst, lifetime_years(model, worst))
        result.aging[policy] = per_arm
    return result


def render(result: SpeculationResult) -> str:
    frontend_table = render_table(
        ("front end", "mispredict rate", "wrong-path launches",
         "wrong-path instr", "flushes", "interrupts"),
        [
            (
                arm,
                f"{result.mispredict_rate(arm) * 100:5.1f}%",
                f"{rows[1]:6d}",
                f"{rows[2]:6d}",
                f"{rows[3]:6d}",
                f"{rows[4]:4d}",
            )
            for arm, rows in result.frontend_rows.items()
        ],
        title=(
            f"Speculative front-end pressure ({GEOMETRY}, "
            f"{len(SUBSET)}-workload subset, "
            f"irq rate {FRONTEND_KWARGS['interrupt_rate']:g})"
        ),
    )
    aging_rows = []
    for policy, per_arm in result.aging.items():
        for arm, (worst, years) in per_arm.items():
            aging_rows.append(
                (
                    policy,
                    arm,
                    f"{worst * 100:5.1f}%",
                    f"{years:6.2f}",
                    f"{result.lifetime_ratio(policy, arm):.2f}x",
                )
            )
    aging_table = render_table(
        ("policy", "front end", "worst util", "lifetime (yr)",
         "vs clean"),
        aging_rows,
        title="Worst-cell stress and NBTI lifetime per front end",
    )
    return frontend_table + "\n\n" + aging_table


def main() -> None:
    print(render(run()))  # noqa: T201


if __name__ == "__main__":
    main()
