"""One sample of one benchmark workload, in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json REPORT.json``

``SPEC.json`` is the generated input (see ``run.py``): the workload
name, whether to trace, and the workload's parameters. The child
imports the program, does the workload's set-up, runs the timed part,
checks the outputs and writes ``REPORT.json`` with its clock readings
(``time.perf_counter`` is the system-wide monotonic clock, so the parent
can subtract its own spawn time), peak memory, check results and, when
traced, the per-layer summary.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import (  # noqa: E402
    check_experiment,
    check_fleet,
    check_policy_sweep,
    check_wear_mapping,
    lifetime_error_pct,
    speedup_error_pct,
)
from tracer import Tracer  # noqa: E402


def reference_seconds() -> float:
    """Time of a fixed piece of benchmark-owned work, an interpreter
    loop plus numpy element-wise passes like the program's own mix.

    Timed in the same process right before and after the timed part,
    it measures how fast the host runs at that moment; the parent
    divides it out (see ``run.py``, ``REFERENCE_NOMINAL_S``).
    """
    import numpy

    started = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(600_000):
        key = i % 251
        table[key] = table.get(key, 0) + i
        total += (i * 7) % 13
    values = numpy.arange(20_000, dtype=float)
    for _ in range(200):
        values = numpy.sqrt(values * values + 1.0)
    return time.perf_counter() - started


class Sample:
    """Clock readings, checks and extras of one child run."""

    def __init__(self, traced: bool) -> None:
        self.tracer = Tracer() if traced else None
        self.report: dict = {"t_start": T_START, "extra": {}}

    def load(self, *modules: str) -> None:
        """Import the program (the ``import`` layer); when traced, the
        tracer's target modules too, then wrap them."""
        if self.tracer is not None:
            index = self.tracer.begin("import")
        for name in modules:
            importlib.import_module(name)
        if self.tracer is not None:
            from tracer import LAYERS

            for targets in LAYERS.values():
                for module_name, _, _ in targets:
                    importlib.import_module(module_name)
            self.tracer.end(index)
            self.tracer.install()

    def ready(self) -> None:
        """End of set-up: probe the host speed, then start the clock."""
        self.report["t_setup"] = time.perf_counter()
        self.report["reference_s"] = [reference_seconds()]
        self.report["t_ready"] = time.perf_counter()

    def done(self) -> None:
        """End of the timed part: read the clock and peak memory, stop
        tracing so the checks below stay out of the spans, and probe
        the host speed again."""
        report = self.report
        report["t_done"] = time.perf_counter()
        report["maxrss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss
        if self.tracer is not None:
            self.tracer.uninstall()
            layers = self.tracer.summary(T_START, report["t_done"])
            # The probe before the timed part belongs to no layer.
            probe = report["t_ready"] - report["t_setup"]
            layers["wall_s"] -= probe
            layers["other_s"] -= probe
            report["layers"] = layers
            report["counts"] = dict(self.tracer.counts)
        report["reference_s"].append(reference_seconds())

    def checked(self, attempted: int, failures: list[str]) -> None:
        self.report["attempted"] = attempted
        self.report["failures"] = failures


def paper_suite(spec: dict, sample: Sample) -> None:
    """One experiment through the CLI entry point, as a user runs it."""
    name = spec["experiment"]
    json_dir = Path(spec["json_dir"])
    sample.load("repro.experiments.__main__")
    from repro.experiments.__main__ import main

    sample.ready()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exit_code = main([name, "--json", str(json_dir)])
    sample.done()
    artifact = json_dir / f"{name}.json"
    json_bytes = artifact.read_bytes() if artifact.exists() else None
    sample.checked(
        *check_experiment(
            name, exit_code, stdout.getvalue(), json_bytes,
            Path(spec["golden_dir"]),
        )
    )
    if json_bytes is None:
        return
    result = json.loads(json_bytes)["result"]
    if name == "table1":
        sample.report["extra"]["paper.lifetime_err_pct"] = lifetime_error_pct(
            {row["scenario"]: row["lifetime_improvement"] for row in result["rows"]}
        )
    elif name == "fig6":
        sample.report["extra"]["paper.speedup_err_pct"] = speedup_error_pct(
            {key: point["speedup"] for key, point in result["scenarios"].items()}
        )


def _paper_errors(extra: dict) -> None:
    """Paper accuracy of the current code for workloads whose own
    outputs are not the paper's tables: Table I's rows and the Fig. 6
    named-scenario design points, computed the way those experiments
    compute them (after the timed part; only the traced run pays)."""
    from repro.dse.sweep import run_design_point
    from repro.experiments import table1
    from repro.system.scenarios import SCENARIOS
    from repro.workloads.suite import suite_traces

    rows = table1.run().rows
    extra["paper.lifetime_err_pct"] = lifetime_error_pct(
        {row.scenario: row.lifetime_improvement for row in rows}
    )
    traces = suite_traces()
    extra["paper.speedup_err_pct"] = speedup_error_pct(
        {
            name: run_design_point(traces, scenario.cols, scenario.rows).speedup
            for name, scenario in SCENARIOS.items()
        }
    )


def _campaign_setup(spec: dict, sample: Sample):
    sample.load("repro.campaign", "repro.system.schedule")
    from repro.campaign import CampaignSpec
    from repro.system.schedule import clear_schedule_caches
    from repro.workloads.suite import run_workload

    campaign = CampaignSpec.from_jsonable(spec["campaign"])
    for name in campaign.resolved_workloads():
        run_workload(name)
    clear_schedule_caches()
    return campaign


def policy_sweep(spec: dict, sample: Sample) -> None:
    """One in-process policy campaign over shared schedule replays."""
    campaign = _campaign_setup(spec, sample)
    from repro.campaign import CampaignRunner

    sample.ready()
    result = CampaignRunner().run(campaign)
    sample.done()
    sample.checked(*check_policy_sweep(result))
    if sample.tracer is not None:
        _paper_errors(sample.report["extra"])


def wear_mapping(spec: dict, sample: Sample) -> None:
    """One campaign of stress-coupled annealing walks."""
    campaign = _campaign_setup(spec, sample)
    from repro.campaign import CampaignRunner
    from repro.cgra.fabric import FabricGeometry
    from repro.system.params import SystemParams
    from repro.system.schedule import shared_schedule
    from repro.workloads.suite import run_workload

    sample.ready()
    result = CampaignRunner().run(campaign)
    sample.done()
    greedy = {}
    for rows, cols in campaign.geometries:
        params = SystemParams(geometry=FabricGeometry(rows=rows, cols=cols))
        for name in campaign.resolved_workloads():
            greedy[name] = shared_schedule(params, run_workload(name))
    sample.checked(
        *check_wear_mapping(
            result, {name: s.n_launches for name, s in greedy.items()}
        )
    )
    sa_cycles = sum(
        r.transrec_cycles
        for run in result.runs.values()
        for r in run.results.values()
    )
    greedy_cycles = sum(
        greedy[name].transrec_cycles
        for run in result.runs.values()
        for name in run.results
    )
    sample.report["extra"]["map.sa_cycle_overhead_pct"] = (
        100.0 * (sa_cycles - greedy_cycles) / greedy_cycles
    )
    if sample.tracer is not None:
        _paper_errors(sample.report["extra"])


def fleet(spec: dict, sample: Sample) -> None:
    """One in-process fleet run into a fresh result store."""
    sample.load("repro.fleet", "repro.campaign", "repro.system.schedule")
    from repro.campaign import PolicySpec
    from repro.fleet import FleetRunner, FleetSpec, ResultStore
    from repro.system.schedule import clear_schedule_caches
    from repro.workloads.suite import run_workload

    fields = dict(spec["fleet"])
    fields["policies"] = tuple(
        PolicySpec.make(entry["name"], **entry["kwargs"])
        for entry in fields["policies"]
    )
    fleet_spec = FleetSpec(**fields)
    for name in fleet_spec.workloads:
        run_workload(name)
    clear_schedule_caches()
    store_dir = Path(spec["store_dir"])

    sample.ready()
    result = FleetRunner(store_dir=store_dir).run(fleet_spec)
    sample.done()
    records, _ = ResultStore(store_dir).load(fleet_spec.fingerprint())
    sample.checked(*check_fleet(fleet_spec, result, records))
    if sample.tracer is not None:
        _paper_errors(sample.report["extra"])


WORKLOADS = {
    "paper_suite": paper_suite,
    "policy_sweep": policy_sweep,
    "fleet": fleet,
    "wear_mapping": wear_mapping,
}


def main(argv: list[str]) -> int:
    spec_path, report_path = argv
    spec = json.loads(Path(spec_path).read_text())
    sample = Sample(traced=spec["traced"])
    WORKLOADS[spec["workload"]](spec, sample)
    import numpy

    sample.report["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    Path(report_path).write_text(json.dumps(sample.report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
