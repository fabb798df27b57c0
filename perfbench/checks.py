"""Output checks of the benchmark workloads.

Each check takes one workload's outputs and returns ``(attempted,
failures)``: the number of operations it checked and one message per
failed operation. A workload's ``error_rate`` is failures / attempted.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def check_experiment(
    name: str, exit_code: int, stdout: str, json_bytes: bytes | None,
    golden_dir: Path,
) -> tuple[int, list[str]]:
    """paper_suite: one experiment run is one operation. It fails on a
    non-zero exit or any byte difference from the golden stdout and
    JSON (the ``[wrote ...]`` artifact-path line is dropped first: it
    names the run's temporary directory)."""
    if exit_code != 0:
        return 1, [f"{name}: exit code {exit_code}"]
    kept = "".join(
        line
        for line in stdout.splitlines(keepends=True)
        if not line.startswith("[wrote ")
    )
    if kept.encode() != (golden_dir / f"{name}.stdout.txt").read_bytes():
        return 1, [f"{name}: stdout differs from the golden copy"]
    if json_bytes != (golden_dir / f"{name}.json").read_bytes():
        return 1, [f"{name}: JSON artifact differs from the golden copy"]
    return 1, []


def _invariants(result) -> tuple:
    """Per-(point, workload) quantities every policy must agree on."""
    tracker = result.tracker
    return (
        int(tracker.execution_counts.sum()),
        int(tracker.cycle_counts.sum()),
        int(result.cgra.launches),
        int(result.transrec_cycles),
    )


def check_policy_sweep(campaign) -> tuple[int, list[str]]:
    """policy_sweep: one design point is one operation.

    A point fails when it is quarantined (missing from the runs), when
    any of its workloads disagrees with the geometry's first evaluated
    point on executions, cycle-weighted executions, launches or
    TransRec cycles (allocation only moves work around the fabric), or
    when the tracker's executions differ from the fabric's launches.
    """
    points = campaign.spec.design_points()
    failures = []
    reference: dict[tuple[int, int], dict] = {}
    for point in points:
        run = campaign.runs.get(point)
        if run is None:
            failures.append(f"{point.label}: quarantined")
            continue
        shape = (point.rows, point.cols)
        observed = {
            name: _invariants(result) for name, result in run.results.items()
        }
        bad = [
            name
            for name, result in run.results.items()
            if result.tracker.total_executions != result.cgra.launches
        ]
        expected = reference.setdefault(shape, observed)
        bad += [
            name for name in observed if observed[name] != expected.get(name)
        ]
        if set(observed) != set(expected):
            bad.append("workload set")
        if bad:
            failures.append(
                f"{point.label}: invariant broken on {sorted(set(bad))}"
            )
    return len(points), failures


def check_fleet(spec, result, records) -> tuple[int, list[str]]:
    """fleet: one (policy, shard) record is one operation.

    A record fails when it is missing (its shard was quarantined), when
    its device count or its lifetime histogram mass (finite bins plus
    infinite lifetimes) differs from the shard's devices, or when its
    survival counts ever increase with mission time.
    """
    by_key = {(record.policy, record.shard): record for record in records}
    quarantined = {
        shard
        for failure in result.failures
        for shard in failure.detail.get("shards", ())
    }
    failures = []
    shards = spec.shards()
    labels = [policy.label for policy in spec.policies]
    for shard in shards:
        for label in labels:
            record = by_key.get((label, shard.index))
            where = f"{label}/shard {shard.index}"
            if record is None or shard.index in quarantined:
                failures.append(f"{where}: quarantined or missing")
            elif record.n_devices != shard.n_devices:
                failures.append(
                    f"{where}: {record.n_devices} devices, "
                    f"expected {shard.n_devices}"
                )
            elif int(record.hist.sum()) + record.n_infinite != shard.n_devices:
                failures.append(f"{where}: histogram mass != device count")
            elif np.any(np.diff(record.survival) > 0):
                failures.append(f"{where}: survival count increases")
    return len(shards) * len(labels), failures


def check_wear_mapping(campaign, greedy_launches) -> tuple[int, list[str]]:
    """wear_mapping: one coupled walk (design point x workload) is one
    operation. It fails when its launch count differs from the greedy
    schedule's for that workload (annealing moves operations, it never
    changes which units launch) or when the tracker's executions differ
    from the launches."""
    attempted = 0
    failures = []
    for point in campaign.spec.design_points():
        run = campaign.runs.get(point)
        if run is None:
            attempted += len(point.workloads)
            failures.extend(
                f"{point.label}/{name}: quarantined" for name in point.workloads
            )
            continue
        for name, result in run.results.items():
            attempted += 1
            launches = result.cgra.launches
            if launches != greedy_launches[name]:
                failures.append(
                    f"{point.label}/{name}: {launches} launches, greedy "
                    f"schedule has {greedy_launches[name]}"
                )
            elif result.tracker.total_executions != launches:
                failures.append(
                    f"{point.label}/{name}: tracker executions "
                    f"{result.tracker.total_executions} != launches {launches}"
                )
    return attempted, failures


def _mean_error_pct(ours: dict, paper: dict) -> float:
    errors = [abs(ours[name] - paper[name]) / paper[name] for name in paper]
    return 100.0 * sum(errors) / len(errors)


def lifetime_error_pct(lifetimes: dict) -> float:
    """Mean |ours - paper| / paper (%) of the Table I lifetime
    improvements; ``lifetimes`` maps scenario (BE/BP/BU) to ours."""
    from repro.experiments.table1 import PAPER_ROWS

    return _mean_error_pct(
        lifetimes, {name: row[3] for name, row in PAPER_ROWS.items()}
    )


def speedup_error_pct(speedups: dict) -> float:
    """The same for the Fig. 6 named-scenario speedups."""
    from repro.experiments.fig6 import PAPER_SCENARIOS

    return _mean_error_pct(
        speedups, {name: row[0] for name, row in PAPER_SCENARIOS.items()}
    )
