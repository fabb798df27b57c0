"""Chaos smoke check (CI gate): faulty runs must be bit-identical.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py [--devices N] [--workers N]

Runs a small campaign and a small fleet twice — once fault-free, once
under an injected :class:`~repro.resilience.faults.FaultPlan` combining a
worker crash, a worker hang (bounded by the per-task timeout), a
transient task error and store-append I/O failures — and checks the
resilience layer's core contract:

1. **Bit-identity** — every successful result of the faulty run equals
   the fault-free reference exactly (tasks are deterministic in their
   payloads, so recovery must not change outputs).
2. **No quarantine** — every injected failure here is transient
   (``max_attempt=1``: first try fails, retries succeed), so the
   faulty runs must complete with zero quarantined tasks.
3. **Accounting** — the parent-side telemetry counters record the
   recoveries (retries/pool rebuilds for the crash, append errors for
   the store faults); a run that "passed" without the faults actually
   firing is a broken injection, not a passing check.

Exit 0 on success, 1 with a diagnostic on any violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro import obs
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, PolicySpec
from repro.fleet import FleetRunner, FleetSpec
from repro.resilience import RetryPolicy, faults
from repro.resilience.faults import FaultPlan, FaultSpec

#: Fast backoff so injected retries do not slow CI down.
RETRY = RetryPolicy(base_delay=0.01, max_delay=0.1)


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _campaign_spec() -> CampaignSpec:
    return CampaignSpec(
        name="chaos_smoke",
        geometries=((2, 8), (2, 16), (4, 8)),
        policies=(PolicySpec.make("baseline"), PolicySpec.make("rotation")),
        workloads=("bitcount", "crc32"),
    )


def _campaign_chaos(workers: int) -> None:
    spec = _campaign_spec()
    # One schedule group per geometry, so every fault below targets a
    # distinct task key (group:0..2) deterministically.
    groups = CampaignRunner().schedule_groups(spec.design_points())
    if len(groups) < 3:
        raise AssertionError(
            f"campaign: {len(groups)} schedule group(s); the fault plan "
            "targets three"
        )
    faults.deactivate()
    reference = CampaignRunner(max_workers=workers).run(spec)
    reference_payload = _dump(reference.summaries())

    plan = FaultPlan(
        specs=(
            # First attempt of a matching group crashes its worker;
            # the pool is rebuilt and the retry (attempt 1) succeeds.
            FaultSpec("worker.crash", match="group:0"),
            # Another group's first try hangs; either the broken pool
            # takes the sleeping worker with it or the per-task
            # timeout abandons it — both requeue the group.
            FaultSpec("worker.hang", match="group:1", seconds=30.0),
            # And a transient in-task exception somewhere else.
            FaultSpec("task.error", match="group:2"),
        )
    )
    faults.activate(plan)
    with obs.telemetry():
        obs.reset()
        chaotic = CampaignRunner(
            max_workers=workers, retry=RETRY, task_timeout=3.0
        ).run(spec)
        counters = dict(obs.state.counters)
        obs.reset()
    faults.deactivate()

    if chaotic.failures:
        raise AssertionError(
            f"campaign quarantined {len(chaotic.failures)} transient-fault "
            f"group(s): {[f.key for f in chaotic.failures]}"
        )
    if _dump(chaotic.summaries()) != reference_payload:
        raise AssertionError("campaign: faulty run diverged from reference")
    recoveries = counters.get("resilience.retries", 0)
    if recoveries == 0:
        raise AssertionError(
            f"campaign: no injected fault was recovered (counters={counters})"
        )
    print(
        "campaign chaos: crash+hang+error recovered "
        f"(retries={recoveries}, "
        f"pool_rebuilds={counters.get('resilience.pool_rebuilds', 0)}, "
        f"timeouts={counters.get('resilience.timeouts', 0)}), "
        "summaries bit-identical"
    )


def _fleet_spec(devices: int) -> FleetSpec:
    return FleetSpec(
        name="chaos_smoke_fleet",
        rows=4,
        cols=4,
        policies=(PolicySpec.make("baseline"), PolicySpec.make("stress_aware")),
        scenario="telemetry_node",
        n_devices=devices,
        devices_per_shard=-(-devices // 2),
        seed=11,
    )


def _fleet_payload(result) -> str:
    return _dump(
        {
            name: aggregate.to_jsonable()
            for name, aggregate in result.aggregates.items()
        }
    )


def _fleet_chaos(devices: int, workers: int) -> None:
    spec = _fleet_spec(devices)
    faults.deactivate()
    reference_payload = _fleet_payload(FleetRunner().run(spec))

    plan = FaultPlan(
        specs=(
            # A shard chunk's first attempt dies; the retry succeeds.
            FaultSpec("worker.crash", match="shards:0"),
            # Two store appends fail (full disk): records stay
            # in-memory, aggregates must not change.
            FaultSpec("store.append", times=2, max_attempt=None),
        )
    )
    with tempfile.TemporaryDirectory() as tmp:
        faults.activate(plan)
        with obs.telemetry():
            obs.reset()
            chaotic = FleetRunner(
                store_dir=Path(tmp) / "store",
                max_workers=workers,
                retry=RETRY,
            ).run(spec)
            counters = dict(obs.state.counters)
            obs.reset()
        faults.deactivate()

        if chaotic.failures:
            raise AssertionError(
                f"fleet quarantined {len(chaotic.failures)} chunk(s)"
            )
        if _fleet_payload(chaotic) != reference_payload:
            raise AssertionError("fleet: faulty run diverged from reference")
        if chaotic.store_append_errors != 2:
            raise AssertionError(
                "fleet: expected 2 degraded store appends, got "
                f"{chaotic.store_append_errors}"
            )
        if counters.get("fleet.store.append_errors", 0) != 2:
            raise AssertionError(
                f"fleet: append-error counter missing (counters={counters})"
            )
        if counters.get("resilience.retries", 0) == 0:
            raise AssertionError(
                f"fleet: crashed chunk was never retried (counters={counters})"
            )

        # The degraded store (2 missing records) is still a valid
        # resume point: a follow-up run re-runs only the gap and
        # agrees exactly.
        faults.deactivate()
        resumed = FleetRunner(store_dir=Path(tmp) / "store").run(spec)
        if resumed.shards_resumed == 0:
            raise AssertionError("fleet: degraded store resumed nothing")
        if _fleet_payload(resumed) != reference_payload:
            raise AssertionError("fleet: resume from degraded store diverged")
    print(
        "fleet chaos: crash+append-failure recovered, "
        f"aggregates bit-identical (re-ran {resumed.shards_run}, "
        f"resumed {resumed.shards_resumed} on follow-up)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--devices", type=int, default=128)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    _campaign_chaos(args.workers)
    _fleet_chaos(args.devices, args.workers)
    print("chaos smoke OK")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main(sys.argv[1:]))
    except AssertionError as error:
        print(f"chaos smoke FAILED: {error}", file=sys.stderr)
        raise SystemExit(1)
