"""Results of the stress-coupled walk, pinned.

A stress-coupled mapper (annealing with a stress weight) reads the
allocator's live stress map while the walk translates, so the launch
stream, the placements and the stress outcome all depend on the
allocation policy and on when the tracker is brought up to date. This
file pins one SHA-256 per (geometry, policy, workload) over the
:class:`~repro.system.stats.SystemResult` of that coupled walk: the
tracker's execution and cycle counts, both totals and the sorted
per-start-PC footprints, the TransRec cycles and instruction count,
every fabric and configuration-cache counter and the TransRec energy
report.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cgra.fabric import FabricGeometry
from repro.system import SystemParams, TransRecSystem
from repro.workloads.suite import run_workload

FIXTURE = Path(__file__).resolve().parent / "golden" / "coupled_walks.json"

GEOMETRIES = ((2, 16), (4, 8))

#: (label, registry name, kwargs) of the pinned policies.
COUPLED_POLICIES = (
    ("baseline", "baseline", {}),
    ("rotation", "rotation", {}),
    ("random(3)", "random", {"seed": 3}),
    ("static_remap", "static_remap", {}),
    ("stress_aware(1)", "stress_aware", {"interval": 1}),
    ("stress_aware(8)", "stress_aware", {"interval": 8}),
)

#: Pinned suite workloads: cheap coupled walks whose mapper reads a
#: nonzero stress map 5 (bitcount), 25 (dijkstra) and 6–10
#: (susan_edges) times. The whole suite would take about four times
#: as long.
WORKLOADS = ("bitcount", "dijkstra", "susan_edges")

#: Annealing seed of the pinned walks.
MAPPER_SEED = 0


def _geometry_label(rows: int, cols: int) -> str:
    return f"{rows}x{cols}"


def result_digest(sha, result) -> None:
    """Feed one coupled walk's :class:`SystemResult` into ``sha``."""
    tracker = result.tracker
    sha.update(result.name.encode())
    sha.update(tracker.execution_counts.astype("<i8").tobytes())
    sha.update(tracker.cycle_counts.astype("<i8").tobytes())
    sha.update(f"{tracker.total_executions},{tracker.total_cycles}".encode())
    for key, cells in sorted(tracker.config_footprints.items()):
        sha.update(f"{key}:{sorted(cells)}".encode())
    sha.update(f"{result.transrec_cycles},{result.instructions}".encode())
    sha.update(repr(sorted(vars(result.cgra).items())).encode())
    sha.update(repr(sorted(vars(result.cache_stats).items())).encode())
    sha.update(repr(result.transrec_energy).encode())


def walk_digest(
    rows: int,
    cols: int,
    policy: str,
    kwargs: dict,
    workload: str,
    seed: int = MAPPER_SEED,
) -> str:
    """SHA-256 of one coupled walk of ``workload`` on a fresh system."""
    params = SystemParams(
        geometry=FabricGeometry(rows=rows, cols=cols),
        policy=policy,
        policy_kwargs=kwargs,
        mapper="annealing",
        mapper_kwargs={"seed": seed},
    )
    system = TransRecSystem(params)
    assert system.stress_coupled
    sha = hashlib.sha256()
    result_digest(sha, system.run_trace(run_workload(workload)))
    return sha.hexdigest()


def coupled_digests() -> dict:
    return {
        _geometry_label(rows, cols): {
            label: {
                workload: walk_digest(rows, cols, policy, kwargs, workload)
                for workload in WORKLOADS
            }
            for label, policy, kwargs in COUPLED_POLICIES
        }
        for rows, cols in GEOMETRIES
    }


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize(
    "label,policy,kwargs",
    COUPLED_POLICIES,
    ids=[p[0] for p in COUPLED_POLICIES],
)
@pytest.mark.parametrize(
    "rows,cols", GEOMETRIES, ids=[_geometry_label(*g) for g in GEOMETRIES]
)
def test_coupled_walk_digest_matches_fixture(
    expected, rows, cols, label, policy, kwargs, workload
):
    """Regenerating the fixture after an *intentional* change to a
    policy, the annealing mapper or the walk::

        PYTHONPATH=src python -m tests.test_coupled_walks \\
            > tests/golden/coupled_walks.json
    """
    digest = walk_digest(rows, cols, policy, kwargs, workload)
    assert digest == expected[_geometry_label(rows, cols)][label][workload], (
        f"{label} coupled walk of {workload} on {rows}x{cols} drifted "
        "from tests/golden/coupled_walks.json"
    )


def test_fixture_covers_the_pinned_points(expected):
    assert sorted(expected) == sorted(
        _geometry_label(*g) for g in GEOMETRIES
    )
    for digests in expected.values():
        assert list(digests) == [label for label, _, _ in COUPLED_POLICIES]
        for per_workload in digests.values():
            assert list(per_workload) == list(WORKLOADS)


if __name__ == "__main__":
    print(json.dumps(coupled_digests(), indent=2))
