"""Tests for repro.resilience: fault injection, retry policy, and the
resilient executor's recovery + bit-identity guarantees."""

from __future__ import annotations

import json
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, PolicySpec
from repro.errors import (
    ConfigurationError,
    InjectedFaultError,
    MappingError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.fleet import FleetRunner, FleetSpec
from repro.fleet.store import ResultStore, ShardRecord
from repro.resilience import RetryPolicy, faults
from repro.resilience.executor import ExecutionReport, ResilientExecutor
from repro.resilience.faults import FaultPlan, FaultSpec


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.deactivate()
    faults.set_context(None)
    yield
    faults.deactivate()
    faults.set_context(None)


# -- retry policy ----------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    key=st.text(min_size=0, max_size=20),
    max_attempts=st.integers(1, 6),
)
def test_backoff_sequence_is_deterministic(seed, key, max_attempts):
    policy = RetryPolicy(max_attempts=max_attempts, seed=seed)
    again = RetryPolicy(max_attempts=max_attempts, seed=seed)
    assert policy.delays(key) == again.delays(key)
    assert len(policy.delays(key)) == max_attempts - 1


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31), attempt=st.integers(0, 10))
def test_backoff_delay_within_jitter_envelope(seed, attempt):
    policy = RetryPolicy(
        base_delay=0.05, backoff=2.0, max_delay=2.0, jitter=0.5, seed=seed
    )
    raw = min(2.0, 0.05 * 2.0**attempt)
    delay = policy.delay("k", attempt)
    assert raw <= delay <= raw * 1.5


def test_backoff_differs_across_seeds_and_keys():
    assert RetryPolicy(seed=1).delays("k") != RetryPolicy(seed=2).delays("k")
    policy = RetryPolicy(seed=3)
    assert policy.delays("a") != policy.delays("b")


def test_retry_classification():
    policy = RetryPolicy()
    assert policy.retryable(WorkerCrashError("w"))
    assert policy.retryable(TaskTimeoutError("t"))
    assert policy.retryable(InjectedFaultError("i"))
    assert policy.retryable(OSError("disk"))
    assert not policy.retryable(ConfigurationError("bad"))
    assert not policy.retryable(MappingError("bad"))
    assert not policy.retryable(ValueError("bad"))
    assert not policy.retryable(RuntimeError("unknown"))  # unknown: no retry


def test_should_retry_respects_attempt_budget():
    policy = RetryPolicy(max_attempts=2)
    error = WorkerCrashError("w")
    assert policy.should_retry(error, 1)
    assert not policy.should_retry(error, 2)


def test_retry_policy_validation():
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ConfigurationError):
        RetryPolicy(backoff=0.5)
    with pytest.raises(ConfigurationError):
        RetryPolicy(jitter=2.0)


# -- fault plan ------------------------------------------------------------


def test_fault_plan_round_trips_via_json():
    plan = FaultPlan(
        specs=(
            FaultSpec("worker.crash", match="g0", times=2),
            FaultSpec("worker.hang", seconds=1.5, max_attempt=None),
        )
    )
    assert FaultPlan.from_jsonable(plan.to_jsonable()) == plan
    assert FaultPlan.from_env(json.dumps(plan.to_jsonable())) == plan


def test_fault_plan_rejects_unknown_site():
    with pytest.raises(ConfigurationError, match="unknown fault site"):
        FaultSpec("no.such.site")


def test_fault_env_rejects_bad_json():
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        FaultPlan.from_env("{nope")


def test_no_plan_is_a_noop():
    faults.maybe_fire("task.error")  # must not raise


def test_task_error_fires_match_and_budget():
    faults.activate(FaultPlan.single("task.error", match="wanted", times=1))
    faults.set_context("other-task", 0)
    faults.maybe_fire("task.error")  # key does not match
    faults.set_context("wanted-task", 0)
    with pytest.raises(InjectedFaultError):
        faults.maybe_fire("task.error")
    faults.maybe_fire("task.error")  # times budget exhausted
    assert faults.fired_counts() == {"task.error": 1}


def test_max_attempt_gates_firing():
    faults.activate(FaultPlan.single("task.error", max_attempt=1, times=None))
    faults.set_context("t", 0)
    with pytest.raises(InjectedFaultError):
        faults.maybe_fire("task.error")
    faults.set_context("t", 1)  # a retry: attempt >= max_attempt
    faults.maybe_fire("task.error")


def test_inline_crash_raises_instead_of_exiting():
    faults.activate(FaultPlan.single("worker.crash"))
    faults.set_inline(True)
    try:
        with pytest.raises(WorkerCrashError):
            faults.maybe_fire("worker.crash")
    finally:
        faults.set_inline(False)


def _rate_fire_pattern():
    faults.activate(
        FaultPlan.single(
            "task.error", rate=0.5, seed=42, times=None, max_attempt=None
        )
    )
    fired = []
    for call in range(20):
        faults.set_context(f"k{call}", 0)
        try:
            faults.maybe_fire("task.error")
            fired.append(False)
        except InjectedFaultError:
            fired.append(True)
    return fired


def test_seeded_rate_draw_is_deterministic():
    first = _rate_fire_pattern()
    assert _rate_fire_pattern() == first
    assert any(first) and not all(first)


# -- executor --------------------------------------------------------------


def _square(x):
    return x * x


def _fast_retry():
    return RetryPolicy(base_delay=0.01, max_delay=0.05)


def test_executor_plain_run_parallel_and_inline():
    for workers in (1, 3):
        report = ResilientExecutor(_square, workers).run(list(range(8)))
        assert report.results == [x * x for x in range(8)]
        assert report.ok
        assert report.retries == report.timeouts == report.pool_rebuilds == 0
        assert not report.degraded_serial


def test_executor_empty_and_key_validation():
    executor = ResilientExecutor(_square, 2)
    assert executor.run([]).results == []
    with pytest.raises(ValueError, match="keys"):
        executor.run([1, 2], keys=["only-one"])


def test_executor_streams_each_result_once():
    seen = []
    report = ResilientExecutor(_square, 2).run(
        list(range(6)), on_result=lambda i, r: seen.append((i, r))
    )
    assert report.ok
    assert sorted(seen) == [(i, i * i) for i in range(6)]


def test_executor_retries_injected_task_error():
    faults.activate(FaultPlan.single("task.error", match="task-2"))
    report = ResilientExecutor(_square, 2, retry=_fast_retry()).run(
        list(range(5))
    )
    assert report.results == [x * x for x in range(5)]
    assert report.retries == 1 and report.ok


def test_executor_quarantines_poison_task():
    faults.activate(
        FaultPlan.single(
            "task.error", match="task-1", times=None, max_attempt=None
        )
    )
    report = ResilientExecutor(_square, 2, retry=_fast_retry()).run(
        list(range(4))
    )
    assert report.results[1] is None
    assert [report.results[i] for i in (0, 2, 3)] == [0, 4, 9]
    (failure,) = report.failures
    assert failure.key == "task-1"
    assert failure.kind == "error"
    assert failure.error_type == "InjectedFaultError"
    assert failure.attempts == _fast_retry().max_attempts
    payload = failure.to_jsonable()
    assert payload["key"] == "task-1" and payload["attempts"] == 3


def test_executor_survives_worker_crash():
    faults.activate(FaultPlan.single("worker.crash", match="task-0"))
    report = ResilientExecutor(_square, 2, retry=_fast_retry()).run(
        list(range(6))
    )
    assert report.results == [x * x for x in range(6)]
    assert report.pool_rebuilds >= 1
    assert report.ok and not report.degraded_serial


def _pool_broken_at_submit(broken_at: int, finish_in_flight: bool):
    """An inline stand-in for ``ProcessPoolExecutor`` whose
    ``broken_at``-th submit (counted over every pool it builds) finds
    the pool broken, as when a worker dies between two submits. With
    ``finish_in_flight`` false, the tasks submitted before the break
    never finish."""
    submits = [0]

    class Pool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def submit(self, fn, *args):
            submits[0] += 1
            if submits[0] == broken_at:
                raise BrokenProcessPool("a worker died between submits")
            future = Future()
            if finish_in_flight or submits[0] > broken_at:
                future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    return Pool


@pytest.mark.parametrize(
    "finish_in_flight,charged",
    ((True, 0), (False, 1)),
    ids=("in-flight-finished", "in-flight-running"),
)
def test_executor_survives_pool_breaking_at_submit(
    monkeypatch, finish_in_flight, charged
):
    """The task whose submit found the pool broken requeues uncharged;
    a task in flight is delivered if it finished and charged a crash
    if it did not, as when a wait finds the pool broken."""
    monkeypatch.setattr(
        "repro.resilience.executor.ProcessPoolExecutor",
        _pool_broken_at_submit(2, finish_in_flight),
    )
    report = ResilientExecutor(_square, 2, retry=_fast_retry()).run(
        list(range(6))
    )
    assert report.results == [x * x for x in range(6)]
    assert report.pool_rebuilds == 1
    assert report.retries == charged
    assert report.ok and not report.degraded_serial


def test_executor_times_out_hung_worker():
    faults.activate(
        FaultPlan.single("worker.hang", match="task-1", seconds=3.0)
    )
    report = ResilientExecutor(
        _square, 2, retry=_fast_retry(), task_timeout=0.5
    ).run(list(range(4)))
    assert report.results == [0, 1, 4, 9]
    assert report.timeouts == 1
    assert report.pool_rebuilds >= 1
    assert report.ok


def test_executor_degrades_to_serial_and_stays_bit_identical():
    reference = ResilientExecutor(_square, 2).run(list(range(6))).results
    faults.activate(FaultPlan(specs=(FaultSpec("worker.crash", times=None),)))
    report = ResilientExecutor(
        _square, 2, retry=_fast_retry(), max_pool_rebuilds=0
    ).run(list(range(6)))
    assert report.degraded_serial
    assert report.results == reference  # serial ≡ parallel ≡ degraded
    assert report.ok


def test_executor_counts_into_telemetry():
    faults.activate(FaultPlan.single("task.error", match="task-0"))
    with obs.telemetry():
        obs.reset()
        ResilientExecutor(_square, 2, retry=_fast_retry()).run(list(range(3)))
        counters = dict(obs.state.counters)
        obs.reset()
    assert counters.get("resilience.retries") == 1


def test_execution_report_ok_flag():
    report = ExecutionReport(results=[1])
    assert report.ok
    report.failures.append(object())
    assert not report.ok


# -- campaign runner integration ------------------------------------------


def _campaign_spec():
    return CampaignSpec(
        name="resilience",
        geometries=((2, 8),),
        policies=(PolicySpec.make("baseline"), PolicySpec.make("rotation")),
        workloads=("crc32",),
    )


def test_campaign_bit_identical_under_injected_faults():
    spec = _campaign_spec()
    reference = CampaignRunner(max_workers=2).run(spec)
    faults.activate(FaultPlan.single("task.error"))
    chaotic = CampaignRunner(max_workers=2, retry=_fast_retry()).run(spec)
    assert not chaotic.failures
    assert json.dumps(chaotic.summaries(), sort_keys=True) == json.dumps(
        reference.summaries(), sort_keys=True
    )


def test_campaign_surfaces_quarantined_groups(tmp_path):
    spec = _campaign_spec()
    points = spec.design_points()
    runner = CampaignRunner(
        max_workers=2, retry=_fast_retry(), artifact_dir=tmp_path
    )
    # Both points share one schedule group, which the runner splits into
    # one payload per worker: only group 0 dies.
    groups = runner._balanced_groups(runner.schedule_groups(points), 2, points)
    assert groups == [[0], [1]]
    faults.activate(
        FaultPlan.single(
            "task.error", match="group:0", times=None, max_attempt=None
        )
    )
    result = runner.run(spec)
    assert result.failures, "expected a quarantined group"
    assert len(result.runs) == len(spec.design_points()) - 1
    failed_points = result.failures[0].detail["points"]
    assert len(failed_points) == 1
    payload = json.loads((tmp_path / "failures.json").read_text())
    assert payload["failures"][0]["detail"]["points"] == failed_points
    assert payload["interrupted"] is False
    # completed points still wrote their per-point artifacts
    for point in result.runs:
        assert (tmp_path / f"{point.key}.json").exists()


def test_campaign_interrupt_salvages_partial_artifacts(tmp_path, monkeypatch):
    import repro.campaign.runner as runner_module

    spec = _campaign_spec()
    real_evaluate = runner_module.evaluate_design_point
    calls = {"n": 0}

    def interrupting(point, *args, **kwargs):
        if calls["n"] >= 1:
            raise KeyboardInterrupt
        calls["n"] += 1
        return real_evaluate(point, *args, **kwargs)

    monkeypatch.setattr(
        runner_module, "evaluate_design_point", interrupting
    )
    runner = CampaignRunner(artifact_dir=tmp_path)
    with pytest.raises(KeyboardInterrupt):
        runner.run(spec)
    manifest = json.loads((tmp_path / "campaign.json").read_text())
    assert manifest["interrupted"] is True
    assert len(manifest["design_points"]) == 1
    completed_key = manifest["design_points"][0]
    assert (tmp_path / f"{completed_key}.json").exists()
    failures = json.loads((tmp_path / "failures.json").read_text())
    assert failures["interrupted"] is True


# -- fleet runner integration ---------------------------------------------


def _fleet_spec():
    return FleetSpec(
        name="resilience_fleet",
        rows=4,
        cols=4,
        policies=(PolicySpec.make("baseline"),),
        scenario="uniform",
        n_devices=128,
        devices_per_shard=32,
        seed=5,
    )


def _fleet_payload(result):
    return json.dumps(
        {name: agg.to_jsonable() for name, agg in result.aggregates.items()},
        sort_keys=True,
    )


def test_fleet_store_append_failure_degrades_not_aborts(tmp_path):
    spec = _fleet_spec()
    reference = FleetRunner().run(spec)
    faults.activate(FaultPlan.single("store.append", times=2))
    with obs.telemetry():
        obs.reset()
        result = FleetRunner(store_dir=tmp_path / "store").run(spec)
        counters = dict(obs.state.counters)
        obs.reset()
    assert result.store_append_errors == 2
    assert counters.get("fleet.store.append_errors") == 2
    # merged aggregates unaffected — only resumability was lost
    assert _fleet_payload(result) == _fleet_payload(reference)
    # the un-appended records simply re-run on resume, bit-identically
    resumed = FleetRunner(store_dir=tmp_path / "store").run(spec)
    assert resumed.shards_run > 0 and resumed.shards_resumed > 0
    assert _fleet_payload(resumed) == _fleet_payload(reference)


def test_fleet_summary_reports_skip_breakdown(tmp_path):
    spec = _fleet_spec()
    store_dir = tmp_path / "store"
    FleetRunner(store_dir=store_dir).run(spec)
    store = ResultStore(store_dir)
    # one stale-version line, one torn line, one foreign record
    first_line = store.path.read_text().splitlines()[0]
    stale_payload = dict(json.loads(first_line), version=999)
    foreign = ShardRecord.from_jsonable(json.loads(first_line))
    foreign.fingerprint = "foreign"
    store.append(foreign)
    with store.path.open("a") as handle:
        handle.write(json.dumps(stale_payload) + "\n")
        handle.write('{"torn": ')  # a write that died mid-line
    result = FleetRunner(store_dir=store_dir).run(spec)
    assert result.store_skips.stale == 1
    assert result.store_skips.torn == 1
    assert result.store_skips.foreign == 1
    assert result.store_lines_skipped == 3
    summary = json.loads((store_dir / "fleet_summary.json").read_text())
    assert summary["store_skips"] == {
        "torn": 1,
        "stale": 1,
        "corrupt": 0,
        "foreign": 1,
        "total": 3,
    }
    assert summary["failures"] == []


def test_fleet_parallel_equals_serial_under_crash():
    spec = _fleet_spec()
    reference = FleetRunner().run(spec)
    faults.activate(FaultPlan.single("worker.crash", match="shards:0"))
    result = FleetRunner(max_workers=2, retry=_fast_retry()).run(spec)
    assert not result.failures
    assert _fleet_payload(result) == _fleet_payload(reference)
