"""Tests of the benchmark itself: tracer arithmetic, the output checks
(each must catch an injected violation), the generated inputs and the
metric tables.

Run with the repository's tests: ``PYTHONPATH=src python -m pytest``.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import ALL_LAYERS, Tracer  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"


class FakeClock:
    """Returns scripted readings, one per call."""

    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


# -- tracer arithmetic -------------------------------------------------------


def test_self_busy_and_other_add_up_to_the_window():
    # walk [0, 10] > dbt [2, 5] > walk [3, 4] (nested same layer);
    # walk > replay [6, 8]; window [-1, 12].
    tracer = Tracer(clock=FakeClock([0, 2, 3, 4, 5, 6, 8, 10]))
    outer = tracer.begin("walk")
    dbt = tracer.begin("dbt")
    inner = tracer.begin("walk")
    tracer.end(inner)
    tracer.end(dbt)
    replay = tracer.begin("replay")
    tracer.end(replay)
    tracer.end(outer)
    summary = tracer.summary(-1, 12)
    assert summary["wall_s"] == 13
    assert summary["busy_s"]["walk"] == 10  # the nested call counts once
    assert summary["busy_s"]["dbt"] == 3
    assert summary["self_s"]["walk"] == (10 - 3 - 2) + 1
    assert summary["self_s"]["dbt"] == 3 - 1
    assert summary["self_s"]["replay"] == 2
    assert summary["other_s"] == 3
    assert sum(summary["self_s"].values()) + summary["other_s"] == 13
    assert set(summary["busy_s"]) >= set(ALL_LAYERS)


def test_spans_close_on_exceptions_and_hooks_count_results():
    tracer = Tracer(clock=FakeClock([0, 1, 2, 5]))

    def hook(counts, args, kwargs, result, seconds):
        counts["calls"] += 1
        counts["seconds"] += seconds

    def fails():
        raise ValueError("boom")

    wrapped_ok = tracer.wrap("map", lambda x: x * 2, hook)
    wrapped_bad = tracer.wrap("map", fails, hook)
    assert wrapped_ok(3) == 6
    with pytest.raises(ValueError):
        wrapped_bad()
    assert tracer.counts == {"calls": 1, "seconds": 1}
    summary = tracer.summary(0, 5)
    assert summary["busy_s"]["map"] == 1 + 3
    assert summary["other_s"] == 1


def test_unclosed_span_is_an_error():
    tracer = Tracer(clock=FakeClock([0]))
    tracer.begin("walk")
    with pytest.raises(RuntimeError):
        tracer.summary(0, 1)


def test_install_rebinds_every_importer_and_uninstall_restores():
    import repro.fleet
    import repro.fleet.runner
    import repro.system.schedule
    import repro.system.transrec
    from repro.fleet.store import ShardRecord

    original = repro.system.schedule.compute_schedule
    original_merge = repro.fleet.store.merge_records
    original_classmethod = ShardRecord.__dict__["from_lifetimes"]
    tracer = Tracer()
    try:
        tracer.install()
        # The callers' own bindings are wrapped, not just the definer's.
        for module in (repro.system.schedule, repro.system.transrec):
            assert module.compute_schedule is not original
            assert module.compute_schedule.__wrapped__ is original
        assert repro.fleet.merge_records is repro.fleet.runner.merge_records
        assert repro.fleet.merge_records is not original_merge
        # A wrapped classmethod still binds the class.
        record = ShardRecord.from_lifetimes(
            "f", "p", 0, np.array([1.0, np.inf]), np.array([0.5, 0.0]), (1.0,)
        )
        assert record.n_devices == 2 and record.n_infinite == 1
        assert [span[0] for span in tracer.spans] == ["fleet.record"]
    finally:
        tracer.uninstall()
    assert repro.system.transrec.compute_schedule is original
    assert repro.fleet.runner.merge_records is original_merge
    assert ShardRecord.__dict__["from_lifetimes"] is original_classmethod


def test_traced_run_attributes_a_walk():
    from repro.cgra.fabric import FabricGeometry
    from repro.system.params import SystemParams
    from repro.system.schedule import clear_schedule_caches
    from repro.system.transrec import TransRecSystem
    from repro.workloads.suite import run_workload

    trace = run_workload("bitcount")
    clear_schedule_caches()
    tracer = Tracer()
    try:
        tracer.install()
        start = tracer.clock()
        TransRecSystem(
            SystemParams(geometry=FabricGeometry(rows=2, cols=16))
        ).run_trace(trace)
        end = tracer.clock()
    finally:
        tracer.uninstall()
        clear_schedule_caches()
    summary = tracer.summary(start, end)
    assert summary["busy_s"]["walk"] > 0 and summary["busy_s"]["replay"] > 0
    assert tracer.counts["walk.calls"] == 1
    assert tracer.counts["walk.shared_calls"] == 1
    assert tracer.counts["walk.memo_misses"] == 1
    assert tracer.counts["replay.calls"] == 1
    assert tracer.counts["cgra.launches"] == tracer.counts["walk.clean_launches"]
    total = sum(summary["self_s"].values()) + summary["other_s"]
    assert total == pytest.approx(end - start)


# -- checks catch injected violations ------------------------------------------


def _run_experiment(name, json_dir):
    from repro.experiments.__main__ import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([name, "--json", str(json_dir)])
    return code, stdout.getvalue(), (json_dir / f"{name}.json").read_bytes()


def test_experiment_check_catches_a_tampered_golden_copy(tmp_path):
    code, stdout, artifact = _run_experiment("table2", tmp_path / "out")
    assert checks.check_experiment("table2", code, stdout, artifact, GOLDEN_DIR) == (1, [])
    tampered = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, tampered)
    golden = tampered / "table2.stdout.txt"
    golden.write_text(golden.read_text().replace("%", "#", 1))
    _, failures = checks.check_experiment("table2", code, stdout, artifact, tampered)
    assert failures == ["table2: stdout differs from the golden copy"]
    _, failures = checks.check_experiment("table2", code, stdout, artifact + b" ", GOLDEN_DIR)
    assert failures == ["table2: JSON artifact differs from the golden copy"]
    assert checks.check_experiment("table2", 1, stdout, artifact, GOLDEN_DIR)[1]


@pytest.fixture(scope="module")
def policy_campaign():
    from repro.campaign import CampaignRunner, CampaignSpec, PolicySpec

    spec = CampaignSpec(
        geometries=((2, 8),),
        policies=(PolicySpec.make("baseline"), PolicySpec.make("rotation")),
        workloads=("bitcount", "crc32"),
    )
    return CampaignRunner().run(spec)


def test_policy_sweep_check_passes_and_catches_violations(policy_campaign):
    assert checks.check_policy_sweep(policy_campaign) == (2, [])
    first, second = policy_campaign.spec.design_points()
    result = policy_campaign.runs[second].results["crc32"]

    saved = result.tracker.total_executions
    result.tracker.total_executions = saved + 1  # faked executions
    try:
        attempted, failures = checks.check_policy_sweep(policy_campaign)
    finally:
        result.tracker.total_executions = saved
    assert attempted == 2 and len(failures) == 1 and "crc32" in failures[0]

    saved = result.transrec_cycles
    result.transrec_cycles = saved + 7  # a policy that moved the timing
    try:
        _, failures = checks.check_policy_sweep(policy_campaign)
    finally:
        result.transrec_cycles = saved
    assert len(failures) == 1

    runs = dict(policy_campaign.runs)
    del runs[first]
    quarantined = replace(policy_campaign, runs=runs)
    _, failures = checks.check_policy_sweep(quarantined)
    assert failures == [f"{first.label}: quarantined"]


def test_fleet_check_passes_and_catches_violations(tmp_path):
    from repro.campaign import PolicySpec
    from repro.fleet import FleetRunner, FleetSpec, ResultStore

    spec = FleetSpec(
        name="check", rows=2, cols=8,
        policies=(PolicySpec.make("baseline"), PolicySpec.make("rotation")),
        scenario="telemetry_node", n_devices=96, devices_per_shard=32,
    )
    result = FleetRunner(store_dir=tmp_path).run(spec)
    records, _ = ResultStore(tmp_path).load(spec.fingerprint())
    assert checks.check_fleet(spec, result, records) == (6, [])

    bad = [replace(r) for r in records]
    bad[0].n_devices += 1
    bad[1].hist = bad[1].hist.copy()
    bad[1].hist[3] += 1
    bad[2].survival = bad[2].survival.copy()
    bad[2].survival[-1] = bad[2].survival[0] + 1
    attempted, failures = checks.check_fleet(spec, result, bad[:-1])
    assert attempted == 6 and len(failures) == 4
    assert any("survival" in f for f in failures)
    assert any("missing" in f for f in failures)


def test_wear_mapping_check_passes_and_catches_violations():
    from repro.campaign import CampaignRunner, CampaignSpec, MapperSpec, PolicySpec

    spec = CampaignSpec(
        geometries=((2, 8),),
        policies=(PolicySpec.make("baseline"),),
        mappers=(MapperSpec.make("annealing", seed=3),),
        workloads=("bitcount",),
    )
    campaign = CampaignRunner().run(spec)
    (run_,) = campaign.runs.values()
    result = run_.results["bitcount"]
    launches = {"bitcount": result.cgra.launches}
    assert checks.check_wear_mapping(campaign, launches) == (1, [])
    assert checks.check_wear_mapping(campaign, {"bitcount": launches["bitcount"] + 1})[1]
    result.tracker.total_executions += 1
    assert checks.check_wear_mapping(campaign, launches)[1]


def test_paper_errors_from_the_golden_tables():
    table1 = json.loads((GOLDEN_DIR / "table1.json").read_text())["result"]
    fig6 = json.loads((GOLDEN_DIR / "fig6.json").read_text())["result"]
    lifetimes = {r["scenario"]: r["lifetime_improvement"] for r in table1["rows"]}
    speedups = {k: p["speedup"] for k, p in fig6["scenarios"].items()}
    assert checks.lifetime_error_pct(lifetimes) == pytest.approx(23.79, abs=0.01)
    assert checks.speedup_error_pct(speedups) == pytest.approx(7.78, abs=0.01)


# -- inputs, estimator, metric tables ------------------------------------------


def test_generated_inputs_follow_the_seed(tmp_path):
    from repro.campaign import CampaignSpec

    (sweep,) = run.workload_specs("policy_sweep", 7, tmp_path)
    campaign = CampaignSpec.from_jsonable(sweep["campaign"])
    assert len(campaign.design_points()) == 42
    seeds = [p.as_kwargs()["seed"] for p in campaign.policies if p.name == "random"]
    assert seeds == list(range(7, 15))
    (fleet,) = run.workload_specs("fleet", 7, tmp_path)
    assert fleet["fleet"]["seed"] == 7
    assert fleet["fleet"]["n_devices"] // fleet["fleet"]["devices_per_shard"] == 64
    (wear,) = run.workload_specs("wear_mapping", 7, tmp_path)
    assert wear["campaign"]["mappers"] == [{"name": "annealing", "kwargs": {"seed": 7}}]
    assert run.workload_specs("paper_suite", 1, tmp_path) == run.workload_specs(
        "paper_suite", 2, tmp_path
    )


def test_child_times_scale_by_the_reference_probe():
    report = {
        "t_start": 10.0, "t_setup": 11.0, "t_ready": 11.5, "t_done": 14.5,
        "setup_s": 1.5,
        # The host ran the reference at half the nominal speed.
        "reference_s": [1.5 * run.REFERENCE_NOMINAL_S,
                        2.5 * run.REFERENCE_NOMINAL_S],
    }
    scaled, raw = run.child_times(report)
    assert raw == {"setup_s": 1.5, "wall_s": 3.0, "window_s": 4.0}
    assert scaled == pytest.approx(
        {"setup_s": 0.75, "wall_s": 1.5, "window_s": 2.0}
    )


def _traced_sample(scale):
    self_s = dict.fromkeys(ALL_LAYERS, 0.0)
    self_s.update(walk=3.0 * scale, dbt=1.0 * scale, replay=4.0 * scale)
    return {
        "timed": True, "traced": True, "window_s": 10.0 * scale,
        "layers": {"wall_s": 10.0 * scale, "busy_s": dict(self_s, walk=4.0 * scale),
                   "self_s": self_s, "other_s": 2.0 * scale},
        "counts": {"walk.clean_launches": 50, "walk.clean_busy_s": 4.0 * scale},
        "extra": {"paper.lifetime_err_pct": 1.0, "paper.speedup_err_pct": 2.0},
    }


def test_layer_metrics_come_from_the_median_traced_sample():
    untraced = {"timed": True, "traced": False, "window_s": 10.0}
    samples = [untraced, _traced_sample(1.2), _traced_sample(1.0),
               _traced_sample(3.0)]
    metrics = run.compute_metrics(samples, trace=True)
    assert metrics["traced.wall_s"] == 12.0
    shares = sum(metrics[f"{layer}.self_pct"] for layer in run.SHARE_LAYERS)
    assert shares == pytest.approx(100.0)
    assert metrics["walk.launches_per_s"] == pytest.approx(50 / 4.8)
    assert metrics["map.units_per_s"] == 0.0  # no calls: 0, not a guess
    assert metrics["tracing.overhead_pct"] == pytest.approx(20.0)
    names = {name for name, *_ in run.PER_LAYER}
    assert set(metrics) == names


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        run.PER_LAYER
    )
    setup_bound = dict((m["name"], m["bound"]) for m in doc["end_to_end"])["setup_s"]
    assert setup_bound == max(m["bound"] for m in doc["end_to_end"])


def test_cli_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
