"""Per-cell replay results of the benchmarked policy sweep, pinned.

The policy sweep replays the 10 suite workloads' shared schedules on
three fabrics under 14 policies. Its totals are the same for every
policy, so only the per-cell counts and footprints show whether a
replay change kept each policy's stress outcome. This file pins one
SHA-256 per (geometry, policy) over the trackers of the 10 replays:
execution counts, cycle counts, both totals and the sorted
per-start-PC footprints.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cgra.fabric import FabricGeometry
from repro.core.policy import make_policy
from repro.system import SystemParams, replay_schedule, shared_schedule
from repro.workloads.suite import run_workload, workload_names

FIXTURE = Path(__file__).resolve().parent / "golden" / "replay_trackers.json"

GEOMETRIES = ((2, 16), (4, 32), (8, 32))

#: The sweep's policies at seed 0: (label, registry name, kwargs).
SWEEP_POLICIES = (
    ("baseline", "baseline", {}),
    ("rotation", "rotation", {}),
    ("static_remap", "static_remap", {}),
    *(
        (f"stress_aware({interval})", "stress_aware", {"interval": interval})
        for interval in (4, 16, 64)
    ),
    *((f"random({seed})", "random", {"seed": seed}) for seed in range(8)),
)


def _geometry_label(rows: int, cols: int) -> str:
    return f"{rows}x{cols}"


def tracker_digest(rows: int, cols: int, policy: str, kwargs: dict) -> str:
    """SHA-256 over the trackers of one policy's replays of the suite,
    one fresh policy per workload (as a campaign runs them)."""
    geometry = FabricGeometry(rows=rows, cols=cols)
    params = SystemParams(geometry=geometry)
    sha = hashlib.sha256()
    for name in workload_names():
        schedule = shared_schedule(params, run_workload(name))
        tracker = replay_schedule(
            schedule, geometry, make_policy(policy, **kwargs)
        ).tracker
        sha.update(name.encode())
        sha.update(tracker.execution_counts.astype("<i8").tobytes())
        sha.update(tracker.cycle_counts.astype("<i8").tobytes())
        sha.update(
            f"{tracker.total_executions},{tracker.total_cycles}".encode()
        )
        for key, cells in sorted(tracker.config_footprints.items()):
            sha.update(f"{key}:{sorted(cells)}".encode())
    return sha.hexdigest()


def replay_digests() -> dict:
    return {
        _geometry_label(rows, cols): {
            label: tracker_digest(rows, cols, policy, kwargs)
            for label, policy, kwargs in SWEEP_POLICIES
        }
        for rows, cols in GEOMETRIES
    }


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize(
    "label,policy,kwargs", SWEEP_POLICIES, ids=[p[0] for p in SWEEP_POLICIES]
)
@pytest.mark.parametrize(
    "rows,cols", GEOMETRIES, ids=[_geometry_label(*g) for g in GEOMETRIES]
)
def test_replay_digest_matches_fixture(
    expected, rows, cols, label, policy, kwargs
):
    """Regenerating the fixture after an *intentional* change to a
    policy, the schedule walk or the replay::

        PYTHONPATH=src python -m tests.test_replay_trackers \\
            > tests/golden/replay_trackers.json
    """
    digest = tracker_digest(rows, cols, policy, kwargs)
    assert digest == expected[_geometry_label(rows, cols)][label], (
        f"{label} replay on {rows}x{cols} drifted from "
        "tests/golden/replay_trackers.json"
    )


def test_fixture_covers_the_sweep(expected):
    assert sorted(expected) == sorted(
        _geometry_label(*g) for g in GEOMETRIES
    )
    for digests in expected.values():
        assert list(digests) == [label for label, _, _ in SWEEP_POLICIES]


if __name__ == "__main__":
    print(json.dumps(replay_digests(), indent=2))
