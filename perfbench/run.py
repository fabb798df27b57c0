"""Benchmark of the CGRA aging-mitigation reproduction.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each sample runs in a fresh interpreter
(``perfbench/child.py``), one at a time, and samples repeat until the
next one would overrun ``--seconds`` (at least one sample; in traced
mode at least one untraced and one traced, alternating). Every sample's
outputs are checked. The report prints every metric with its unit and
ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over samples),
``--trace 1`` the per-layer metrics of the traced samples. End-to-end
times are host seconds scaled to the unloaded host's speed (see
``REFERENCE_NOMINAL_S``); per-layer times are host seconds as measured.
``perfbench/README.md`` describes the workloads and what each layer
metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracer import ALL_LAYERS, EXPERIMENTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"

#: Whole-run budget: a run must finish well inside 180 seconds.
RUN_LIMIT_S = 170.0

WORKLOADS = {
    "paper_suite": "the 8 golden-pinned paper experiments, one cold CLI "
    "process each: ISS trace, Phase A walk and DBT dominate",
    "policy_sweep": "42 allocation-policy design points on 3 fabrics "
    "replaying 30 shared walks: batch allocation replay dominates",
    "fleet": "262,144 crypto_gateway devices in 64 shards x 3 policies: "
    "shard expansion dominates, the walk is nearly absent",
    "wear_mapping": "stress-coupled annealing walks: SA placement and "
    "per-launch scalar allocation dominate",
}

#: (name, unit, better, bound) of the end-to-end metrics.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

#: Seconds one run measures (``run_seconds`` of BENCHMARK.json).
RUN_SECONDS = 30

#: Time of ``child.reference_seconds`` on a 2-core Xeon host that no
#: other tenant slows. Other tenants of a shared host slow every
#: process by up to 2x for seconds to minutes; each child times the
#: reference right before and after its timed part, and its times are
#: scaled by ``REFERENCE_NOMINAL_S / reference time``: seconds at the
#: unloaded host's speed. The reference is benchmark code, so no change
#: to the program can move it.
REFERENCE_NOMINAL_S = 0.1

#: Layers every workload enters, so their absolute times are never 0.
TIMED_LAYERS = ("import", "trace", "walk", "dbt")

#: Layers whose self time is reported as a share of the traced wall.
SHARE_LAYERS = ALL_LAYERS + ("other",)

#: (name, unit, better) of the per-layer metrics.
PER_LAYER = (
    ("traced.wall_s", "s", "lower"),
    ("tracing.overhead_pct", "%", "lower"),
    *((f"{layer}.busy_s", "s", "lower") for layer in TIMED_LAYERS),
    ("walk.self_s", "s", "lower"),
    ("other.self_s", "s", "lower"),
    *((f"{layer}.self_pct", "%", "lower") for layer in SHARE_LAYERS),
    ("trace.records", "count", "lower"),
    ("trace.records_per_s", "1/s", "higher"),
    ("frontend.records", "count", "lower"),
    ("walk.calls", "count", "lower"),
    ("walk.launches", "count", "lower"),
    ("walk.launches_per_s", "1/s", "higher"),
    ("walk.spec_launches_per_s", "1/s", "higher"),
    ("walk.memo_hit_ratio", "ratio", "higher"),
    ("dbt.calls", "count", "lower"),
    ("dbt.unit_yield", "ratio", "higher"),
    ("map.units", "count", "lower"),
    ("map.units_per_s", "1/s", "higher"),
    ("map.sa_cycle_overhead_pct", "%", "lower"),
    ("replay.calls", "count", "lower"),
    ("replay.launches_per_s", "1/s", "higher"),
    ("replay.schedule.launches_per_s", "1/s", "higher"),
    ("replay.epoch.launches_per_s", "1/s", "higher"),
    ("replay.interval.launches_per_s", "1/s", "higher"),
    ("alloc.scalar_calls", "count", "lower"),
    ("alloc.scalar_launches_per_s", "1/s", "higher"),
    ("gpp_ref.calls", "count", "lower"),
    ("aging.devices", "count", "lower"),
    ("fleet.devices_per_s", "1/s", "higher"),
    ("campaign.points_per_s", "1/s", "higher"),
    ("cgra.launches", "count", "lower"),
    ("cfgcache.hit_ratio", "ratio", "higher"),
    ("cgra.misspec_ratio", "ratio", "lower"),
    ("paper.lifetime_err_pct", "%", "lower"),
    ("paper.speedup_err_pct", "%", "lower"),
)


# ----------------------------------------------------------------------
# Inputs: the generated specs the children receive


def _policy(name: str, **kwargs) -> dict:
    return {"name": name, "kwargs": kwargs}


def workload_specs(workload: str, seed: int, sample_dir: Path) -> list[dict]:
    """The child specs of one sample of ``workload`` (one per child).

    paper_suite's inputs are the paper's fixed design points, so it
    ignores the seed; the other workloads draw every seeded input from
    it.
    """
    if workload == "paper_suite":
        return [
            {
                "experiment": name,
                "json_dir": str(sample_dir / name),
                "golden_dir": str(ROOT / "tests" / "golden"),
            }
            for name in EXPERIMENTS
        ]
    if workload == "policy_sweep":
        policies = [
            _policy("baseline"),
            _policy("rotation"),
            _policy("static_remap"),
            *(_policy("stress_aware", interval=i) for i in (4, 16, 64)),
            *(_policy("random", seed=seed + i) for i in range(8)),
        ]
        return [{
            "campaign": {
                "name": "policy_sweep",
                "geometries": [[2, 16], [4, 32], [8, 32]],
                "policies": policies,
            }
        }]
    if workload == "fleet":
        return [{
            "fleet": {
                "name": "perfbench_fleet",
                "rows": 4,
                "cols": 32,
                "policies": [
                    _policy("baseline"),
                    _policy("rotation"),
                    _policy("stress_aware"),
                ],
                "scenario": "crypto_gateway",
                "n_devices": 262144,
                "devices_per_shard": 4096,
                "seed": seed,
            },
            "store_dir": str(sample_dir / "store"),
        }]
    if workload == "wear_mapping":
        return [{
            "campaign": {
                "name": "wear_mapping",
                "geometries": [[2, 16]],
                "policies": [
                    _policy("baseline"), _policy("stress_aware", interval=8)
                ],
                "mappers": [_policy("annealing", seed=seed)],
            }
        }]
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Samples


def _child_env() -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("PYTHON")
    }
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="2",
        OPENBLAS_NUM_THREADS="2",
        MKL_NUM_THREADS="2",
    )
    return env


def _run_child(spec: dict, spec_path: Path, timeout: float) -> dict:
    """Run one child; returns its report plus ``setup_s`` (spawn to the
    end of set-up), or ``{"error": ...}`` when it crashed or timed
    out."""
    report_path = spec_path.with_suffix(".report.json")
    spec_path.write_text(json.dumps(spec))
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path),
             str(report_path)],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not report_path.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: {' | '.join(tail)}"}
    report = json.loads(report_path.read_text())
    report["setup_s"] = report["t_setup"] - started
    return report


def child_times(report: dict) -> tuple[dict, dict]:
    """Seconds of one child, scaled to the nominal host speed and as
    measured: set-up (spawn to the end of set-up), the timed part, and
    the traced window (the child's own run time up to the end of the
    timed part, without the reference probe)."""
    wall = report["t_done"] - report["t_ready"]
    raw = {
        "setup_s": report["setup_s"],
        "wall_s": wall,
        "window_s": report["t_setup"] - report["t_start"] + wall,
    }
    speed = REFERENCE_NOMINAL_S / statistics.fmean(report["reference_s"])
    return {name: value * speed for name, value in raw.items()}, raw


def _add(total: dict, part: dict) -> None:
    for key, value in part.items():
        if isinstance(value, dict):
            _add(total.setdefault(key, {}), value)
        else:
            total[key] = total.get(key, 0.0) + value


def run_sample(
    workload: str, seed: int, traced: bool, sample_dir: Path, deadline: float
) -> dict:
    """One sample: every child of the workload, serially. Times and
    counts add up over the children; peak memory is their maximum."""
    sample_dir.mkdir(parents=True)
    sample: dict = {
        "traced": traced, "attempted": 0, "failures": [], "extra": {},
        "timed": True,
    }
    started = time.perf_counter()
    for index, spec in enumerate(workload_specs(workload, seed, sample_dir)):
        spec.update(workload=workload, traced=traced)
        timeout = max(5.0, deadline - time.perf_counter())
        report = _run_child(spec, sample_dir / f"child{index}.json", timeout)
        if "error" in report:
            sample["attempted"] += 1
            sample["failures"].append(f"child {index}: {report['error']}")
            sample["timed"] = False
            continue
        sample["attempted"] += report["attempted"]
        sample["failures"] += report["failures"]
        sample["extra"].update(report["extra"])
        sample["versions"] = report["versions"]
        scaled, raw = child_times(report)
        _add(sample, dict(scaled, raw=raw))
        sample.setdefault("probes", []).extend(report["reference_s"])
        sample["rss_mb"] = max(
            sample.get("rss_mb", 0.0), report["maxrss_kb"] / 1024.0
        )
        if traced:
            _add(sample, {
                "layers": report["layers"], "counts": report["counts"]
            })
    sample["seconds"] = time.perf_counter() - started
    shutil.rmtree(sample_dir, ignore_errors=True)
    return sample


def collect_samples(
    workload: str, seed: int, seconds: float, trace: bool, work_dir: Path
) -> list[dict]:
    """Samples until the next one would overrun ``seconds``; in traced
    mode untraced and traced samples alternate, untraced first."""
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    samples: list[dict] = []
    while True:
        traced = trace and len(samples) % 2 == 1
        samples.append(
            run_sample(workload, seed, traced, work_dir / f"s{len(samples)}",
                       deadline)
        )
        next_traced = trace and len(samples) % 2 == 1
        costs = [s["seconds"] for s in samples if s["traced"] == next_traced]
        next_cost = statistics.median(costs or [s["seconds"] for s in samples])
        elapsed = time.perf_counter() - started
        if len(samples) >= (2 if trace else 1) and (
            elapsed + next_cost > seconds
            or elapsed + next_cost > RUN_LIMIT_S
        ):
            return samples


# ----------------------------------------------------------------------
# Metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(sample: dict) -> dict:
    """Per-layer metrics of one traced sample."""
    layers = sample["layers"]
    busy, own = layers["busy_s"], layers["self_s"]
    # A counter no wrapped call touched is 0.
    counts = defaultdict(float, sample["counts"])
    window = layers["wall_s"]
    own = dict(own, other=layers["other_s"])
    metrics = {"traced.wall_s": window}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.busy_s"] = busy[layer]
    metrics["walk.self_s"] = own["walk"]
    metrics["other.self_s"] = own["other"]
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.self_pct"] = 100.0 * own[layer] / window
    for name in ("trace.records", "frontend.records", "walk.calls",
                 "dbt.calls", "map.units", "replay.calls",
                 "alloc.scalar_calls", "gpp_ref.calls", "aging.devices",
                 "cgra.launches"):
        metrics[name] = counts[name]
    metrics.update({
        "trace.records_per_s": _ratio(counts["trace.records"], busy["trace"]),
        "walk.launches": counts["walk.clean_launches"]
        + counts["walk.spec_launches"],
        "walk.launches_per_s": _ratio(
            counts["walk.clean_launches"], counts["walk.clean_busy_s"]
        ),
        "walk.spec_launches_per_s": _ratio(
            counts["walk.spec_launches"], counts["walk.spec_busy_s"]
        ),
        "walk.memo_hit_ratio": _ratio(
            counts["walk.shared_calls"] - counts["walk.memo_misses"],
            counts["walk.shared_calls"],
        ),
        "dbt.unit_yield": _ratio(counts["dbt.units"], counts["dbt.calls"]),
        "map.units_per_s": _ratio(counts["map.units"], busy["map"]),
        "map.sa_cycle_overhead_pct": sample["extra"].get(
            "map.sa_cycle_overhead_pct", 0.0
        ),
        "replay.launches_per_s": _ratio(
            counts["replay.launches"], busy["replay"]
        ),
        "alloc.scalar_launches_per_s": _ratio(
            counts["alloc.scalar_calls"], busy["alloc.scalar"]
        ),
        "fleet.devices_per_s": _ratio(
            counts["fleet.devices"], busy["fleet.expand"]
        ),
        "campaign.points_per_s": _ratio(
            counts["campaign.points"], busy["campaign"]
        ),
        "cfgcache.hit_ratio": _ratio(
            counts["cfgcache.hits"], counts["cfgcache.accesses"]
        ),
        "cgra.misspec_ratio": _ratio(
            counts["cgra.misspeculations"], counts["cgra.launches"]
        ),
        "paper.lifetime_err_pct": sample["extra"]["paper.lifetime_err_pct"],
        "paper.speedup_err_pct": sample["extra"]["paper.speedup_err_pct"],
    })
    for granularity in ("schedule", "epoch", "interval"):
        metrics[f"replay.{granularity}.launches_per_s"] = _ratio(
            counts[f"replay.{granularity}.launches"],
            counts[f"replay.{granularity}.busy_s"],
        )
    return metrics


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(sample[key] for sample in samples)


def compute_metrics(samples: list[dict], trace: bool) -> dict:
    """The end-to-end metrics: medians over the untraced samples. The
    per-layer metrics: those of the traced sample with the median
    traced wall, so that its layer times still add up to its wall."""
    timed = [s for s in samples if s["timed"]]
    untraced = [s for s in timed if not s["traced"]]
    traced = [s for s in timed if s["traced"]]
    if not trace:
        return {
            "wall_s": _median(untraced, "wall_s"),
            "setup_s": _median(untraced, "setup_s"),
            "peak_rss_mb": _median(untraced, "rss_mb"),
        }
    by_wall = sorted(traced, key=lambda sample: sample["layers"]["wall_s"])
    metrics = layer_metrics(by_wall[(len(by_wall) - 1) // 2])
    base = _median(untraced, "window_s")
    metrics["tracing.overhead_pct"] = (
        100.0 * (_median(traced, "window_s") - base) / base
    )
    return metrics


# ----------------------------------------------------------------------
# Report


def provenance(samples: list[dict], seed: int, trace: bool) -> dict:
    """Code revision (``unknown`` outside a git checkout), seed, tool
    versions, cores and tracing mode of this result."""
    revision, dirty = "unknown", "unknown"
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain"],
                                capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            revision = head.stdout.strip()
            dirty = str(bool(status.stdout.strip())).lower()
    versions = next(
        (s["versions"] for s in samples if "versions" in s), {}
    )
    return {
        "revision": revision,
        "dirty": dirty,
        "seed": seed,
        "python": versions.get("python", "unknown"),
        "numpy": versions.get("numpy", "unknown"),
        "nproc": os.cpu_count(),
        "tracing": "on" if trace else "off",
    }


def print_report(workload, samples, metrics, units, stamp, attempted, failed):
    print(f"perfbench {workload}: {len(samples)} samples "
          f"({sum(s['traced'] for s in samples)} traced)")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    timed = [s for s in samples if s["timed"]]
    for label, value in (
        ("wall_s", lambda s: s["wall_s"]),
        ("raw wall_s", lambda s: s["raw"]["wall_s"]),
        ("setup_s", lambda s: s["setup_s"]),
        ("raw setup_s", lambda s: s["raw"]["setup_s"]),
        ("rss_mb", lambda s: s["rss_mb"]),
        ("reference probe s", lambda s: statistics.median(s["probes"])),
    ):
        values = " ".join(
            f"{value(s):.4f}{'t' if s['traced'] else ''}" for s in timed
        )
        print(f"  samples {label}: {values}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units[name]}")
    print(f"  {'error_rate':<34} {_ratio(failed, attempted):>16.6g} "
          f"({failed}/{attempted} operations failed)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [
        path for path in (ROOT / "src" / "repro", ROOT / "tests" / "golden")
        if not path.is_dir()
    ]
    if missing:
        print(f"perfbench: not a repository checkout, missing "
              f"{', '.join(str(p) for p in missing)}", file=sys.stderr)
        return 2
    # Byte-compile up front so the first sample's set-up does not pay
    # for it; later runs find the bytecode current and skip it.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    work_dir = WORK_ROOT / f"run-{os.getpid()}"
    try:
        samples = collect_samples(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(len(s["failures"]) for s in samples)
    for sample in samples:
        for message in sample["failures"]:
            print(f"FAILED {message}", file=sys.stderr)
    try:
        metrics = compute_metrics(samples, bool(args.trace))
    except (IndexError, statistics.StatisticsError):
        print("perfbench: no sample of the needed kind completed",
              file=sys.stderr)
        return 1
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    print_report(args.workload, samples, metrics, units,
                 provenance(samples, args.seed, bool(args.trace)),
                 attempted, failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
