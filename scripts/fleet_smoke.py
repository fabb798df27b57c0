"""Fleet kill-and-resume smoke check (CI gate).

Usage::

    PYTHONPATH=src python scripts/fleet_smoke.py [--devices N] [--shards N]

Runs two small fleet campaigns — a four-workload ``telemetry_node``
mix and the ten-workload ``uniform`` suite — three ways each and
checks the invariants the fleet service is built on:

1. **Sharded with store** — the reference run: every (policy, shard)
   record lands in the append-only NDJSON store.
2. **Kill-and-resume** — the store is damaged the two ways a killed
   shard worker leaves it (one complete record dropped, one trailing
   line torn mid-write); a fresh runner must resume from the intact
   records, re-run only the damaged shard, and produce **bit-identical**
   merged aggregates.
3. **Unsharded** — the same fleet as one giant shard; merged
   per-policy aggregates must agree with the sharded run (exactly for
   counts/extrema/histograms/survival, to float tolerance for the sums
   behind MTTF and mean worst-utilization, since float addition is not
   partition-associative).

Exit 0 on success, 1 with a diagnostic on any violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

from repro.campaign.spec import PolicySpec
from repro.fleet import FleetRunner, FleetSpec

#: Traffic scenarios checked: a four-workload mix, and the full
#: ten-workload suite, whose per-device sums are long enough (eight or
#: more terms) for numpy's pairwise summation to differ from a
#: sequential fold.
SCENARIOS = ("telemetry_node", "uniform")

#: Keys of FleetAggregate.to_jsonable() that are pure-integer merges —
#: these must match *exactly* between sharded and unsharded runs.
EXACT_KEYS = ("devices", "survival")

#: Float-sum-derived keys: equal to tight tolerance across shardings.
CLOSE_KEYS = (
    "mttf_years",
    "lifetime_p50",
    "lifetime_p90",
    "lifetime_p99",
    "lifetime_min",
    "lifetime_max",
    "mean_worst_utilization",
    "max_worst_utilization",
)


def _policy_payloads(result) -> dict:
    return {
        name: aggregate.to_jsonable()
        for name, aggregate in result.aggregates.items()
    }


def _check_identical(label: str, left: dict, right: dict) -> None:
    left_text = json.dumps(left, sort_keys=True)
    right_text = json.dumps(right, sort_keys=True)
    if left_text != right_text:
        raise AssertionError(f"{label}: merged aggregates differ")


def _check_close(label: str, left: dict, right: dict) -> None:
    if left.keys() != right.keys():
        raise AssertionError(f"{label}: policy sets differ")
    for policy, l_agg in left.items():
        r_agg = right[policy]
        for key in EXACT_KEYS:
            if l_agg[key] != r_agg[key]:
                raise AssertionError(
                    f"{label}: {policy}.{key} {l_agg[key]!r} != {r_agg[key]!r}"
                )
        for key in CLOSE_KEYS:
            l_val, r_val = l_agg[key], r_agg[key]
            if l_val == r_val:
                continue
            if not math.isclose(l_val, r_val, rel_tol=1e-9, abs_tol=1e-12):
                raise AssertionError(
                    f"{label}: {policy}.{key} {l_val} !~ {r_val}"
                )


def _check_fleet(scenario: str, devices: int, shards: int) -> None:
    per_shard = -(-devices // shards)  # ceil division
    policies = (PolicySpec.make("baseline"), PolicySpec.make("stress_aware"))

    def spec(devices_per_shard: int) -> FleetSpec:
        return FleetSpec(
            name="fleet_smoke",
            rows=4,
            cols=4,
            policies=policies,
            scenario=scenario,
            n_devices=devices,
            devices_per_shard=devices_per_shard,
            seed=11,
        )

    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "store"
        sharded_spec = spec(per_shard)
        reference = FleetRunner(store_dir=store_dir).run(sharded_spec)
        if reference.shards_run != len(sharded_spec.shards()):
            raise AssertionError("reference run resumed from a fresh store")
        reference_payload = _policy_payloads(reference)

        # Damage the store the two ways a killed worker leaves it:
        # drop the last complete record, tear the one before mid-write.
        store_file = store_dir / "shards.ndjson"
        lines = store_file.read_text().splitlines(keepends=True)
        if len(lines) < 3:
            raise AssertionError("store too small to damage meaningfully")
        store_file.write_text("".join(lines[:-2]) + lines[-2][: len(lines[-2]) // 2])
        resumed = FleetRunner(store_dir=store_dir).run(sharded_spec)
        if resumed.shards_run == 0:
            raise AssertionError("resume re-ran nothing despite damage")
        if resumed.shards_resumed == 0:
            raise AssertionError("resume recomputed everything (store unread)")
        if resumed.store_lines_skipped != 1:
            raise AssertionError(
                f"expected 1 torn line skipped, got {resumed.store_lines_skipped}"
            )
        _check_identical(
            "kill-and-resume", reference_payload, _policy_payloads(resumed)
        )
        print(
            f"{scenario} kill-and-resume: re-ran {resumed.shards_run} "
            f"shard(s), resumed {resumed.shards_resumed}, merged aggregates "
            "bit-identical"
        )

        unsharded = FleetRunner().run(spec(devices))
        _check_close(
            "sharded-vs-unsharded",
            reference_payload,
            _policy_payloads(unsharded),
        )
        print(
            f"{scenario} sharded-vs-unsharded: {devices} devices x "
            f"{len(policies)} policies x {len(sharded_spec.workloads)} "
            "workloads agree across shardings"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--devices", type=int, default=512)
    parser.add_argument("--shards", type=int, default=2)
    args = parser.parse_args(argv)
    for scenario in SCENARIOS:
        try:
            _check_fleet(scenario, args.devices, args.shards)
        except AssertionError as error:
            raise AssertionError(f"{scenario}: {error}") from error
    print("fleet smoke OK")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main(sys.argv[1:]))
    except AssertionError as error:
        print(f"fleet smoke FAILED: {error}", file=sys.stderr)
        raise SystemExit(1)
