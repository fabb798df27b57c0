"""CI perf-smoke guard over the BENCH_alloc.json history.

Compares the newest benchmark record (the ``--quick`` run CI just
appended) against the *committed* baseline — the **minimum** of each
guarded metric over the last few history records without the ``quick``
flag (single committed samples swing ~30% on one machine, which would
consume the whole tolerance before cross-machine variance is added) —
and fails when any metric dropped by more than the tolerance::

    PYTHONPATH=src python benchmarks/check_perf_smoke.py \
        [--history BENCH_alloc.json] [--metric batch_launches_per_sec] \
        [--tolerance 0.30] [--baseline-window 3]

``--metric`` may be repeated; the default set guards the batch
allocation engine (``batch_launches_per_sec``), the stress-aware
segment replay (``schedule_replay_launches_per_sec_stress_aware``),
SA mapping (``sa_map_units_per_sec``), the routing-profile model
(``routing_profiles_per_sec``), fleet shard expansion
(``fleet_devices_per_sec``), the speculative front-end walk
(``spec_walk_launches_per_sec``), the clean Phase A walk
(``walk_launches_per_sec``) and the functional simulator
(``trace_records_per_sec``) — the hot paths with committed floors.
Records measured with telemetry enabled never form a floor. Metrics
absent from the whole history are reported and skipped, so the guard keeps working
as metrics are added. The default 30% tolerance below the committed floor
absorbs quick-run noise and runner-to-runner machine variance; the CI
step is additionally skippable via the ``skip-perf-smoke`` PR label
for known-noisy environments. Exit codes: 0 pass (or nothing to
compare), 1 regression, 2 usage/data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Metrics guarded when no ``--metric`` is passed: the batch engine,
#: the stress-aware replay floor (the sequence-planning redesign's
#: headline number), SA mapping throughput and the routing-profile
#: model (whose 18568 -> 15646 step across PR 3->4 went unguarded).
#: Fleet expansion and the front half of the pipeline (both Phase A
#: walks and the ISS) are guarded too.
DEFAULT_METRICS = (
    "batch_launches_per_sec",
    "schedule_replay_launches_per_sec_stress_aware",
    "sa_map_units_per_sec",
    "routing_profiles_per_sec",
    "fleet_devices_per_sec",
    "spec_walk_launches_per_sec",
    "walk_launches_per_sec",
    "trace_records_per_sec",
)


def find_candidate_and_baseline(
    history: list[dict], metric: str, baseline_window: int = 3
) -> tuple[dict | None, float | None]:
    """Newest record vs the committed floor before it.

    The baseline is the minimum metric over the last
    ``baseline_window`` committed (non-quick, telemetry-off) entries,
    so one unusually fast committed sample cannot turn ordinary noise
    into a failure. Records missing the metric are skipped (older
    history predates some metrics), so the guard keeps working as
    metrics are added.
    """
    candidate = None
    for record in reversed(history):
        if metric in record:
            candidate = record
            break
    if candidate is None:
        return None, None
    committed = [
        float(record[metric])
        for record in reversed(history)
        if record is not candidate
        and not record.get("quick")
        and not record.get("telemetry_enabled")
        and metric in record
    ][:baseline_window]
    if not committed:
        return candidate, None
    return candidate, min(committed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--history",
        type=Path,
        default=Path("BENCH_alloc.json"),
        help="benchmark history file (default: ./BENCH_alloc.json)",
    )
    parser.add_argument(
        "--metric",
        action="append",
        dest="metrics",
        metavar="METRIC",
        help="guarded throughput metric; repeatable "
        f"(default: {', '.join(DEFAULT_METRICS)})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="maximum allowed fractional drop vs baseline (default: 0.30)",
    )
    parser.add_argument(
        "--baseline-window",
        type=int,
        default=3,
        help="committed entries whose minimum forms the baseline "
        "(default: 3)",
    )
    args = parser.parse_args(argv)
    if not args.history.exists():
        print(f"error: {args.history} not found", file=sys.stderr)
        return 2
    try:
        payload = json.loads(args.history.read_text())
    except json.JSONDecodeError as error:
        print(f"error: {args.history} is not valid JSON: {error}", file=sys.stderr)
        return 2
    if isinstance(payload, dict) and isinstance(payload.get("history"), list):
        history = payload["history"]
    elif isinstance(payload, list):
        history = payload
    elif isinstance(payload, dict):
        history = [payload]
    else:
        print(f"error: unrecognised payload in {args.history}", file=sys.stderr)
        return 2
    newest = history[-1] if history else {}
    if newest.get("telemetry_enabled"):
        # Committed floors are disabled-telemetry numbers; a profiled
        # record (run_bench --profile) must never be compared to them.
        print(
            "error: newest benchmark record was measured with telemetry "
            "enabled (run_bench --profile); re-run without --profile to "
            "produce a guardable record",
            file=sys.stderr,
        )
        return 2
    metrics = args.metrics or list(DEFAULT_METRICS)
    failed = []
    for metric in metrics:
        candidate, baseline = find_candidate_and_baseline(
            history, metric, args.baseline_window
        )
        if candidate is None:
            print(f"perf-smoke: no record carries {metric!r}; nothing to check")
            continue
        if baseline is None:
            print(
                f"perf-smoke: no committed baseline for {metric!r}; "
                "nothing to compare against"
            )
            continue
        new = float(candidate[metric])
        if baseline <= 0:
            print(f"perf-smoke: baseline {metric} is {baseline}; skipping")
            continue
        drop = 1.0 - new / baseline
        verdict = "REGRESSION" if drop > args.tolerance else "ok"
        print(
            f"perf-smoke [{verdict}]: {metric} {baseline:.1f} -> {new:.1f} "
            f"(committed floor over last {args.baseline_window}, "
            f"{-drop:+.1%}, tolerance -{args.tolerance:.0%})"
        )
        if drop > args.tolerance:
            failed.append(metric)
    if failed:
        print(
            f"perf-smoke: quick-run throughput dropped beyond tolerance "
            f"for {', '.join(failed)}; if this machine/runner is "
            "known-noisy, re-run or apply the 'skip-perf-smoke' label",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
