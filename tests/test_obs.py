"""Telemetry layer (:mod:`repro.obs`): semantics, aggregation, output.

Covers the ISSUE-7 observability contract:

* disabled mode is a strict no-op — nothing recorded, shared null
  span, and (the golden guard at the bottom) zero change to any
  experiment stdout/JSON;
* enabled-mode counter / value-summary / timer arithmetic;
* Chrome trace-event capture emits schema-valid JSON;
* snapshot merge and absorb are exact (the campaign pool aggregation
  path), and a parallel campaign reports the same deterministic
  counter totals as a serial one;
* the CGRAStats config-cache mirrors ride along without touching the
  field-driven (golden-pinned) serialization.
"""

import contextlib
import functools
import io
import json
import logging
import pickle
from pathlib import Path

import pytest

from repro import obs
from repro.obs.core import _record
from repro.campaign.artifacts import to_jsonable, write_telemetry
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, PolicySpec
from repro.workloads import run_workload

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts and ends with a disabled, empty registry and
    no active trace capture."""
    previous = obs.set_enabled(False)
    obs.reset()
    obs.tracing.stop()
    yield
    obs.set_enabled(previous)
    obs.reset()
    obs.tracing.stop()


# ----------------------------------------------------------------------
# Disabled-mode no-op semantics


def test_disabled_records_nothing():
    obs.count("c")
    obs.observe("v", 1.5)
    obs.note("n", "msg")
    with obs.span("t"):
        pass
    snap = obs.snapshot()
    assert snap.empty
    assert snap.counters == {}
    assert snap.values == {}
    assert snap.timers == {}
    assert snap.notes == {}


def test_disabled_span_is_shared_null_object():
    assert obs.span("a") is obs.span("b", key="value")


def test_timed_decorator_disabled_passthrough():
    @obs.timed("t.f")
    def f(x):
        return x + 1

    assert f(1) == 2
    assert obs.snapshot().timers == {}


# ----------------------------------------------------------------------
# Enabled-mode arithmetic


def test_counter_math():
    obs.set_enabled(True)
    obs.count("c")
    obs.count("c", 4)
    obs.count("d", 2)
    assert obs.snapshot().counters == {"c": 5, "d": 2}


def test_value_summary_math():
    obs.set_enabled(True)
    for value in (3.0, -1.0, 2.0):
        obs.observe("v", value)
    summary = obs.snapshot().values["v"]
    assert summary == {"count": 3, "total": 4.0, "min": -1.0, "max": 3.0}


def test_timer_records_span_and_decorator():
    obs.set_enabled(True)
    with obs.span("phase.a"):
        pass
    with obs.span("phase.a"):
        pass

    @obs.timed("phase.b")
    def f():
        return 7

    assert f() == 7
    snap = obs.snapshot()
    assert snap.timers["phase.a"]["count"] == 2
    assert snap.timers["phase.b"]["count"] == 1
    assert snap.timer_total("phase.a") >= snap.timers["phase.a"]["min"]
    assert snap.timer_total("phase.missing") == 0.0


def test_note_last_write_wins():
    obs.set_enabled(True)
    obs.note("k", "first")
    obs.note("k", "second")
    assert obs.snapshot().notes == {"k": "second"}


def test_telemetry_context_manager_restores_flag():
    assert not obs.enabled()
    with obs.telemetry():
        assert obs.enabled()
        obs.count("inner")
    assert not obs.enabled()
    assert obs.snapshot().counters == {"inner": 1}


def test_reset_keeps_enabled_flag():
    obs.set_enabled(True)
    obs.count("c")
    obs.reset()
    assert obs.enabled()
    assert obs.snapshot().counters == {}


# ----------------------------------------------------------------------
# Snapshot merge / absorb (the pool aggregation arithmetic)


def _snapshot_with(counters, value=None, timer=None):
    obs.reset()
    for name, amount in counters.items():
        obs.count(name, amount)
    if value is not None:
        obs.observe("v", value)
    if timer is not None:
        _record(obs.state.timers, "t", timer)
    snap = obs.snapshot()
    obs.reset()
    return snap


def test_snapshot_merge_math():
    obs.set_enabled(True)
    left = _snapshot_with({"a": 1, "b": 2}, value=1.0, timer=0.5)
    right = _snapshot_with({"b": 3, "c": 4}, value=5.0, timer=0.25)
    merged = left.merge(right)
    assert merged is left
    assert merged.counters == {"a": 1, "b": 5, "c": 4}
    assert merged.values["v"] == {
        "count": 2,
        "total": 6.0,
        "min": 1.0,
        "max": 5.0,
    }
    assert merged.timers["t"] == {
        "count": 2,
        "total_s": 0.75,
        "min": 0.25,
        "max": 0.5,
    }


def test_absorb_merges_into_live_registry():
    obs.set_enabled(True)
    worker = _snapshot_with({"a": 2}, value=3.0, timer=1.0)
    obs.count("a", 1)
    obs.observe("v", -1.0)
    obs.absorb(worker)
    obs.absorb(None)  # no-op
    snap = obs.snapshot()
    assert snap.counters == {"a": 3}
    assert snap.values["v"] == {
        "count": 2,
        "total": 2.0,
        "min": -1.0,
        "max": 3.0,
    }
    assert snap.timers["t"]["count"] == 1


def test_snapshot_is_picklable():
    obs.set_enabled(True)
    obs.count("c", 2)
    with obs.span("t"):
        pass
    snap = obs.snapshot()
    clone = pickle.loads(pickle.dumps(snap))
    assert clone.counters == snap.counters
    assert clone.timers == snap.timers


# ----------------------------------------------------------------------
# Chrome trace-event capture


def test_trace_event_schema(tmp_path):
    obs.set_enabled(True)
    obs.tracing.start()
    with obs.span("stage.alpha", detail="x"):
        pass
    obs.tracing.add_instant_event("marker.one")
    path = obs.tracing.write(tmp_path / "trace.json")
    payload = json.loads(path.read_text())
    assert payload["displayTimeUnit"] == "ms"
    events = payload["traceEvents"]
    assert len(events) == 2
    for event in events:
        for key in ("name", "cat", "ph", "ts", "pid", "tid"):
            assert key in event
    complete = next(e for e in events if e["ph"] == "X")
    assert complete["name"] == "stage.alpha"
    assert complete["cat"] == "stage"
    assert complete["dur"] >= 0
    assert complete["args"] == {"detail": "x"}
    instant = next(e for e in events if e["ph"] == "i")
    assert instant["name"] == "marker.one"


def test_trace_capture_off_by_default():
    obs.set_enabled(True)
    with obs.span("stage.alpha"):
        pass
    assert obs.tracing.events() == []
    assert not obs.tracing.active()
    # the timer still recorded
    assert "stage.alpha" in obs.snapshot().timers


def test_snapshot_carries_trace_events_and_absorb_extends():
    obs.set_enabled(True)
    obs.tracing.start()
    with obs.span("stage.worker"):
        pass
    worker = obs.snapshot()
    assert [e["name"] for e in worker.trace_events] == ["stage.worker"]
    obs.tracing.start()  # parent capture, fresh buffer
    obs.absorb(worker)
    assert [e["name"] for e in obs.tracing.events()] == ["stage.worker"]


# ----------------------------------------------------------------------
# Campaign aggregation: serial and parallel runs agree


def _bench_spec():
    return CampaignSpec(
        geometries=((4, 4),),
        policies=(PolicySpec("baseline"), PolicySpec("rotation")),
        workloads=("bitcount",),
        name="obs_test",
    )


#: Counters whose totals are a pure function of the campaign spec —
#: identical however the points are split across workers. (Walk/memo
#: counters are excluded: group splitting legitimately re-walks.)
_DETERMINISTIC_COUNTERS = (
    "campaign.points",
    "schedule.replays",
    "transrec.runs.replay",
    "allocator.launches",
    "allocator.folds",
)


def test_campaign_serial_vs_parallel_counter_totals(tmp_path):
    run_workload("bitcount")  # warm the shared trace memo
    spec = _bench_spec()
    obs.set_enabled(True)

    obs.reset()
    serial_result = CampaignRunner(
        artifact_dir=tmp_path / "serial"
    ).run(spec)
    serial = obs.snapshot()

    obs.reset()
    parallel_result = CampaignRunner(
        max_workers=2, artifact_dir=tmp_path / "parallel"
    ).run(spec)
    parallel = obs.snapshot()

    for name in _DETERMINISTIC_COUNTERS:
        assert name in serial.counters, name
        assert serial.counters[name] == parallel.counters.get(name), name
    assert serial.counters["campaign.points"] == 2
    assert serial.counters["allocator.launches"] > 0

    # Results bit-identical regardless of execution mode (pre-existing
    # guarantee — telemetry must not perturb it).
    for point, run in serial_result.runs.items():
        other = parallel_result.runs[point]
        for name, result in run.results.items():
            assert result.transrec_cycles == other.results[name].transrec_cycles

    # Both runs produced a merged telemetry artifact matching the
    # registry the runner left behind.
    for directory, snap in (("serial", serial), ("parallel", parallel)):
        payload = json.loads(
            (tmp_path / directory / "telemetry.json").read_text()
        )
        assert payload["counters"] == snap.counters


def test_campaign_without_telemetry_writes_no_artifact(tmp_path):
    CampaignRunner(artifact_dir=tmp_path).run(_bench_spec())
    assert not (tmp_path / "telemetry.json").exists()
    assert (tmp_path / "campaign.json").exists()


def test_write_telemetry_artifact(tmp_path):
    obs.set_enabled(True)
    obs.count("c", 3)
    with obs.span("t"):
        pass
    path = write_telemetry(tmp_path / "telemetry.json", obs.snapshot())
    payload = json.loads(path.read_text())
    assert payload["counters"] == {"c": 3}
    assert payload["timers"]["t"]["count"] == 1
    assert payload["n_trace_events"] == 0


# ----------------------------------------------------------------------
# Pipeline counters: CGRAStats front-end counters


@functools.lru_cache(maxsize=1)
def _bitcount_result():
    from repro import make_system

    return make_system("BE", policy="baseline").run_trace(
        run_workload("bitcount")
    )


def test_cgra_stats_mirrors_stay_out_of_field_serialization():
    """The front-end counters are non-field attributes: golden
    experiment JSON (which serializes dataclass *fields*) must not
    change."""
    result = _bitcount_result()
    payload = to_jsonable(result.cgra)
    for counter in (
        "wrong_path_launches",
        "wrong_path_instructions",
        "frontend_mispredicts",
        "frontend_flushes",
        "frontend_interrupts",
        "frontend_flush_cycles",
    ):
        assert hasattr(result.cgra, counter)
        assert counter not in payload
    assert "launches" in payload



# ----------------------------------------------------------------------
# Structured logging


def test_kv_line_formatting():
    line = obs.log.kv_line(
        "event", {"a": 1, "b": 0.123456, "c": "two words", "d": "plain"}
    )
    assert line == "event a=1 b=0.1235 c='two words' d=plain"


def test_progress_eta():
    # The "repro" logger does not propagate (its own stderr handler),
    # so capture with a handler attached directly to it.
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = obs.log.get_logger()
    logger.addHandler(handler)
    try:
        obs.log.progress("tick", 2, 4, 10.0, extra="x")
    finally:
        logger.removeHandler(handler)
    assert len(records) == 1
    message = records[0].getMessage()
    assert message == "tick done=2/4 eta_s=10 elapsed_s=10 extra=x"


# ----------------------------------------------------------------------
# Golden guard: default-off telemetry changes no experiment output,
# and even a profiled run leaves stdout byte-identical.


def _fig1_stdout(json_dir) -> str:
    from repro.experiments.__main__ import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["fig1", "--json", str(json_dir)]) == 0
    return "".join(
        line
        for line in stdout.getvalue().splitlines(keepends=True)
        if not line.startswith("[wrote ")
    )


def test_fig1_output_identical_with_telemetry_enabled(tmp_path):
    expected = (GOLDEN_DIR / "fig1.stdout.txt").read_text()
    expected_json = (GOLDEN_DIR / "fig1.json").read_bytes()

    assert _fig1_stdout(tmp_path / "off") == expected
    assert (tmp_path / "off" / "fig1.json").read_bytes() == expected_json

    # Drop the experiment-level result memo so the profiled run
    # actually re-executes the pipeline instead of replaying the memo.
    from repro.experiments.common import _run_suite_cached

    _run_suite_cached.cache_clear()
    obs.set_enabled(True)
    obs.tracing.start()
    assert _fig1_stdout(tmp_path / "on") == expected
    assert (tmp_path / "on" / "fig1.json").read_bytes() == expected_json
    # ... and the profiled run actually recorded the pipeline.
    assert obs.snapshot().counters.get("schedule.replays", 0) > 0
