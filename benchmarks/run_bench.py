"""Allocation + mapping + campaign throughput tracking benchmark.

Times rotation-policy configuration launches through the batch API,
simulated-annealing mapping throughput (with the congestion cost term
on and off), launch-schedule replay throughput, the clean and
speculative Phase A walks, the functional simulator (ISS), and an
end-to-end policy-sweep campaign over shared schedules, and writes the
numbers to ``BENCH_alloc.json`` so successive PRs can track the hot
paths' perf trajectory::

    PYTHONPATH=src python benchmarks/run_bench.py [--output PATH]
                                                  [--append] [--quick]

Each measurement is one flat JSON record — diff-friendly and trivially
plottable across revisions. With ``--append`` the output file keeps a
``history`` list and the new record is appended to it (existing flat
payloads are adopted as the first history entry), so the trajectory
accumulates instead of being overwritten.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from repro import obs
from repro.campaign import CampaignRunner, CampaignSpec, PolicySpec
from repro.cgra.fabric import FabricGeometry
from repro.fleet import FleetRunner, FleetSpec, expand_shard
from repro.frontend import FrontEndSpec
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import make_policy
from repro.dbt.window import build_unit
from repro.mapping import SimulatedAnnealingMapper, routing_profile
from repro.system import (
    SystemParams,
    clear_schedule_caches,
    compute_schedule,
    replay_schedule,
    shared_schedule,
)
from repro.sim.cpu import CPU
from repro.workloads.suite import get_workload, run_workload

ROWS, COLS = 4, 32

#: Workload whose schedule drives the replay metric: crc32 has the
#: suite's most interleaved launch stream (run length ~1.2), the case
#: the deferred-accrual batch engine is built for.
REPLAY_WORKLOAD = "crc32"

#: Policies measured by the per-policy replay metric (every shipped
#: plan granularity: whole-schedule, per-epoch and per-interval
#: segment planners). ``stress_aware`` is the guarded one — its
#: interval-segment replay is the PR-over-PR hot spot.
REPLAY_POLICIES = (
    ("baseline", {}),
    ("rotation", {}),
    ("random", {"seed": 0}),
    ("static_remap", {}),
    ("stress_aware", {}),
)


def _batch_launches_per_sec(unit, n_launches: int) -> float:
    allocator = ConfigurationAllocator(
        FabricGeometry(rows=ROWS, cols=COLS), make_policy("rotation")
    )
    sequence = [unit] * n_launches
    with obs.stopwatch("bench.batch_allocate") as watch:
        allocator.allocate_batch(sequence)
    return n_launches / watch.elapsed


def _sa_units_per_sec(
    trace, unit, n_units: int, congestion_weight: float = 1.0
) -> float:
    """Simulated-annealing mapping throughput on the same window.

    Measured both with the congestion cost term at its default weight
    and with it off, so the history separates congestion-model cost
    from the annealing core (the 255.8 -> 186.6 units/sec step across
    PR 3 was indistinguishable before).
    """
    geometry = FabricGeometry(rows=ROWS, cols=COLS)
    records = [trace[offset] for offset in range(unit.n_instructions)]
    mapper = SimulatedAnnealingMapper(
        seed=0, congestion_weight=congestion_weight
    )
    with obs.stopwatch("bench.sa_map") as watch:
        for _ in range(n_units):
            mapper.map_unit(records, geometry, seed=unit)
    return n_units / watch.elapsed


def _replay_metrics(n_replays: int) -> dict:
    """Launch-schedule replay throughput (launches placed per second
    through the vectorized segment-plan replay of one recorded
    schedule), measured per policy. The bare
    ``schedule_replay_launches_per_sec`` key keeps its pre-PR-5
    meaning (the rotation policy) so the history stays comparable;
    ``..._per_sec_<policy>`` covers every shipped plan granularity."""
    trace = run_workload(REPLAY_WORKLOAD)
    params = SystemParams(
        geometry=FabricGeometry(rows=ROWS, cols=COLS), policy="rotation"
    )
    clear_schedule_caches()
    schedule = shared_schedule(params, trace)
    record = {
        "schedule_replay_workload": REPLAY_WORKLOAD,
        "schedule_replay_launches": schedule.n_launches,
        "schedule_replays": n_replays,
    }
    for name, kwargs in REPLAY_POLICIES:
        replay_schedule(
            schedule, params.geometry, make_policy(name, **kwargs)
        )
        with obs.stopwatch(f"bench.replay.{name}") as watch:
            for _ in range(n_replays):
                replay_schedule(
                    schedule, params.geometry, make_policy(name, **kwargs)
                )
        rate = round(schedule.n_launches * n_replays / watch.elapsed, 1)
        record[f"schedule_replay_launches_per_sec_{name}"] = rate
        if name == "rotation":
            record["schedule_replay_launches_per_sec"] = rate
    return record


def _spec_walk_metrics(n_walks: int) -> dict:
    """Speculative front-end walk throughput (launches recorded per
    second by ``compute_schedule`` over the annotated fetch stream).

    The annotation memo is warmed first, so the metric isolates the
    walk over the expanded stream — per-record kind/flush-gap column
    reads, wrong-path launch accounting and mid-stream GPP segment
    breaks — not the one-time predictor replay that builds it."""
    trace = run_workload(REPLAY_WORKLOAD)
    frontend = FrontEndSpec.make("bimodal", interrupt_rate=0.0005, seed=7)
    params = SystemParams(
        geometry=FabricGeometry(rows=ROWS, cols=COLS),
        policy="rotation",
        frontend=frontend,
    )
    # Warm: builds and memoises the annotated stream.
    schedule = compute_schedule(params, trace)
    with obs.stopwatch("bench.spec_walk") as watch:
        for _ in range(n_walks):
            schedule = compute_schedule(params, trace)
    return {
        "spec_walk_workload": REPLAY_WORKLOAD,
        "spec_walk_frontend": frontend.label,
        "spec_walks": n_walks,
        "spec_walk_launches": schedule.n_launches,
        "spec_walk_wrong_path_launches": schedule.cgra.wrong_path_launches,
        "spec_walk_launches_per_sec": round(
            schedule.n_launches * n_walks / watch.elapsed, 1
        ),
    }


def _walk_metrics(n_walks: int) -> dict:
    """Clean Phase A walk throughput (launches recorded per second by
    ``compute_schedule`` over the committed trace, no front end): the
    per-launch and per-GPP-record path plus the DBT translations it
    triggers."""
    trace = run_workload(REPLAY_WORKLOAD)
    params = SystemParams(
        geometry=FabricGeometry(rows=ROWS, cols=COLS), policy="rotation"
    )
    schedule = compute_schedule(params, trace)
    with obs.stopwatch("bench.walk") as watch:
        for _ in range(n_walks):
            schedule = compute_schedule(params, trace)
    return {
        "walk_workload": REPLAY_WORKLOAD,
        "walks": n_walks,
        "walk_launches": schedule.n_launches,
        "walk_launches_per_sec": round(
            schedule.n_launches * n_walks / watch.elapsed, 1
        ),
    }


def _trace_metrics(n_runs: int) -> dict:
    """ISS throughput: committed records per second of the functional
    simulator running the workload's kernel to completion."""
    program = get_workload(REPLAY_WORKLOAD).program()
    records = CPU(program).run().steps
    with obs.stopwatch("bench.trace") as watch:
        for _ in range(n_runs):
            CPU(program).run()
    return {
        "trace_workload": REPLAY_WORKLOAD,
        "trace_runs": n_runs,
        "trace_records": records,
        "trace_records_per_sec": round(records * n_runs / watch.elapsed, 1),
    }


def _campaign_spec(quick: bool) -> CampaignSpec:
    """The end-to-end metric's campaign: a 5-policy x 4-seed sweep on
    L32xW4 over the full verified suite (seeds expand the seedable
    ``random`` policy into per-seed points)."""
    if quick:
        return CampaignSpec(
            geometries=((ROWS, COLS),),
            policies=(
                PolicySpec.make("baseline"),
                PolicySpec.make("rotation"),
            ),
            workloads=("bitcount", "dijkstra"),
            name="bench_campaign_quick",
        )
    return CampaignSpec(
        geometries=((ROWS, COLS),),
        policies=(
            PolicySpec.make("baseline"),
            PolicySpec.make("rotation"),
            PolicySpec.make("static_remap"),
            PolicySpec.make("stress_aware"),
            PolicySpec.make("random"),
        ),
        seeds=(0, 1, 2, 3),
        name="bench_campaign",
    )


def _campaign_metrics(quick: bool) -> dict:
    """End-to-end campaign throughput over shared schedules, on one
    process."""
    spec = _campaign_spec(quick)
    n_points = len(spec.design_points())
    for name in spec.resolved_workloads():
        run_workload(name)
    clear_schedule_caches()
    with obs.stopwatch("bench.campaign.shared") as shared_watch:
        CampaignRunner().run(spec)
    return {
        "campaign_points": n_points,
        "campaign_workloads": len(spec.resolved_workloads()),
        "campaign_points_per_sec": round(
            n_points / shared_watch.elapsed, 2
        ),
    }


def _fleet_metrics(n_devices: int) -> dict:
    """Fleet shard-expansion throughput (devices evaluated per second
    across all policies of the fleet, stress profiles precomputed).

    Phase 1 (trace walk + replay) amortises over any fleet size and is
    covered by the replay/campaign metrics above; this isolates the
    fleet-specific hot path — per-device mix generation, utilization
    fold, NBTI lifetimes and shard-record reduction."""
    spec = FleetSpec(
        name="bench_fleet",
        rows=ROWS,
        cols=COLS,
        policies=(
            PolicySpec.make("baseline"),
            PolicySpec.make("rotation"),
            PolicySpec.make("stress_aware"),
        ),
        scenario="crypto_gateway",
        n_devices=n_devices,
        devices_per_shard=4096,
    )
    runner = FleetRunner()
    profiles = runner.stress_profiles(spec)
    fingerprint = spec.fingerprint()
    expand_shard(spec, spec.shards()[0], profiles, runner.model, fingerprint)
    with obs.stopwatch("bench.fleet_expand") as watch:
        for shard in spec.shards():
            expand_shard(spec, shard, profiles, runner.model, fingerprint)
    return {
        "fleet_devices": n_devices,
        "fleet_shards": len(spec.shards()),
        "fleet_policies": len(spec.policies),
        "fleet_devices_per_sec": round(n_devices / watch.elapsed, 1),
    }


def _routing_profiles_per_sec(trace, unit, n_profiles: int) -> float:
    """Context-line pressure-model throughput (the per-translation
    congestion bookkeeping every DBT insert now pays)."""
    geometry = FabricGeometry(rows=ROWS, cols=COLS)
    records = [trace[offset] for offset in range(unit.n_instructions)]
    with obs.stopwatch("bench.routing_profile") as watch:
        for _ in range(n_profiles):
            routing_profile(unit, records, geometry)
    return n_profiles / watch.elapsed


def run(
    batch_launches: int = 500_000,
    sa_units: int = 200,
    routing_profiles: int = 5_000,
    schedule_replays: int = 100,
    spec_walks: int = 20,
    walks: int = 20,
    trace_runs: int = 20,
    fleet_devices: int = 131_072,
    quick: bool = False,
) -> dict:
    """Measure all paths; returns one flat JSON record."""
    trace = run_workload("sha")
    geometry = FabricGeometry(rows=ROWS, cols=COLS)
    unit = build_unit(trace, 0, geometry)
    assert unit is not None
    # Warm-up pass so one-time costs (trace cache, numpy footprint
    # caching) stay out of the measurement.
    _batch_launches_per_sec(unit, 10_000)
    _sa_units_per_sec(trace, unit, 5)
    _routing_profiles_per_sec(trace, unit, 100)
    batch = _batch_launches_per_sec(unit, batch_launches)
    sa_rate = _sa_units_per_sec(trace, unit, sa_units)
    sa_rate_no_congestion = _sa_units_per_sec(
        trace, unit, sa_units, congestion_weight=0.0
    )
    routing_rate = _routing_profiles_per_sec(trace, unit, routing_profiles)
    records = [trace[offset] for offset in range(unit.n_instructions)]
    profile = routing_profile(unit, records, geometry)
    record = {
        "benchmark": "rotation_allocation",
        "fabric": f"L{COLS}xW{ROWS}",
        "unit_cells": len(unit.cells),
        "batch_launches": batch_launches,
        "batch_launches_per_sec": round(batch, 1),
        "sa_map_units": sa_units,
        "sa_map_units_per_sec": round(sa_rate, 1),
        "sa_map_units_per_sec_congestion_off": round(
            sa_rate_no_congestion, 1
        ),
        "routing_profiles": routing_profiles,
        "routing_profiles_per_sec": round(routing_rate, 1),
        "peak_line_pressure": profile.peak_pressure,
        "ctx_lines_sized": geometry.ctx_lines,
    }
    record.update(_replay_metrics(schedule_replays))
    record.update(_spec_walk_metrics(spec_walks))
    record.update(_walk_metrics(walks))
    record.update(_trace_metrics(trace_runs))
    record.update(_campaign_metrics(quick))
    record.update(_fleet_metrics(fleet_devices))
    record.update(_host_provenance())
    # Floors are disabled-telemetry numbers; a record measured with the
    # registry recording is tagged so the perf guard can refuse it.
    record["telemetry_enabled"] = obs.enabled()
    return record


def _host_provenance() -> dict:
    """Host/toolchain identity stamped on every record, so perf steps
    in the history can be told apart from machine or library changes."""
    return {
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy_version": np.__version__,
    }


def append_history(output: Path, record: dict) -> dict:
    """Fold ``record`` into ``output``'s history payload.

    A pre-existing flat record (the pre-``--append`` format) becomes
    the first history entry rather than being lost; a bare JSON list is
    adopted as the history itself; a corrupt file is reported and the
    history restarted (never an unhandled crash mid-CI).
    """
    history: list[dict] = []
    if output.exists():
        try:
            existing = json.loads(output.read_text())
        except json.JSONDecodeError as error:
            print(
                f"warning: {output} is not valid JSON ({error}); "
                "starting a fresh history",
                file=sys.stderr,
            )
            existing = None
        if isinstance(existing, dict) and isinstance(
            existing.get("history"), list
        ):
            history = existing["history"]
        elif isinstance(existing, list):
            history = existing
        elif isinstance(existing, dict):
            history = [existing]
    history.append(record)
    return {
        "benchmark": record.get("benchmark", "rotation_allocation"),
        "history": history,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_alloc.json"),
        help="where to write the JSON payload (default: ./BENCH_alloc.json)",
    )
    parser.add_argument(
        "--append",
        action="store_true",
        help="append to the output's history list instead of overwriting",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced launch counts (CI smoke run, not a stable number)",
    )
    parser.add_argument(
        "--profile",
        metavar="TRACE",
        nargs="?",
        const="bench_trace.json",
        default=None,
        help="measure with telemetry enabled and write a Chrome "
        "trace-event file (default TRACE: bench_trace.json); the "
        "record is tagged telemetry_enabled and refused by the perf "
        "guard — profiled numbers are for analysis, not floors",
    )
    args = parser.parse_args(argv)
    if args.profile is not None:
        obs.set_enabled(True)
        obs.reset()
        obs.tracing.start()
    if args.quick:
        record = run(
            batch_launches=20_000,
            sa_units=20,
            routing_profiles=500,
            schedule_replays=10,
            spec_walks=4,
            walks=4,
            trace_runs=4,
            fleet_devices=8_192,
            quick=True,
        )
        record["quick"] = True
    else:
        record = run()
    payload = append_history(args.output, record) if args.append else record
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"[wrote {args.output}]")
    if args.profile is not None:
        trace_path = obs.tracing.write(args.profile)
        obs.tracing.stop()
        obs.set_enabled(False)
        print(f"[wrote {trace_path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
