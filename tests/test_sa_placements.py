"""Annealed placements of the suite's unit windows, pinned.

The annealing mapper's move loop keeps incremental state (dependence
windows, line pressure, occupancy, stress prefix sums), so a change to
that bookkeeping can alter placements without failing any legality
check. This file pins one SHA-256 per (variant, workload) over every
unit :meth:`SimulatedAnnealingMapper.map_unit` returns on the windows
:func:`~repro.dbt.window.build_unit` finds at the workload's unit
heads (first occurrence of each start PC, as the DBT engine translates
them): the unit's start PC, ``n_instructions`` and ``mapper_key``, each
op's row, column, width and trace offset, and the ``mapping.sa.*``
counters the unit adds under telemetry.

The variants reach every branch of the move loop: a nonzero stress
hint, congestion off (no line-pressure bookkeeping), a hard
``ctx_lines`` budget that rejects moves, and a second seed with more
proposals per op. Under the budget, a law test holds that discovery
placed every window within it and that every annealed unit routes.
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.cgra.fabric import FabricGeometry
from repro.dbt.translator import DBTEngine, DBTLimits
from repro.dbt.window import build_unit, translate_unit
from repro.mapping import SimulatedAnnealingMapper, routing_violations
from repro.workloads.suite import run_workload, workload_names

FIXTURE = Path(__file__).resolve().parent / "golden" / "sa_placements.json"

#: (label, (rows, cols, ctx_lines), mapper kwargs, stress hint seed).
#: ``ctx_lines=None`` keeps the default (elastic) line sizing; a hint
#: seed of ``None`` maps without a stress hint.
VARIANTS = (
    ("stress_2x16", (2, 16, None), {}, 2020),
    ("congestion_off_4x8", (4, 8, None), {"congestion_weight": 0.0}, None),
    ("budget_4x8_ctx4", (4, 8, 4), {}, None),
    (
        "seed1_pp3_4x16",
        (4, 16, None),
        {"seed": 1, "proposals_per_op": 3},
        None,
    ),
)

WORKLOADS = workload_names()

COUNTERS = (
    "mapping.sa.units",
    "mapping.sa.moves_tried",
    "mapping.sa.moves_accepted",
    "mapping.sa.moves_rejected",
    "mapping.sa.moves_rejected_budget",
)


def variant_geometry(shape) -> FabricGeometry:
    rows, cols, ctx_lines = shape
    if ctx_lines is None:
        return FabricGeometry(rows=rows, cols=cols)
    return FabricGeometry(rows=rows, cols=cols, ctx_lines=ctx_lines)


def variant_hint(geometry: FabricGeometry, hint_seed) -> np.ndarray | None:
    if hint_seed is None:
        return None
    rng = np.random.default_rng(hint_seed)
    return rng.integers(0, 1000, size=(geometry.rows, geometry.cols)).astype(
        np.float64
    )


def head_positions(trace) -> list[int]:
    """First trace position of every distinct unit-head PC."""
    pcs = trace.pc_array
    seen: set[int] = set()
    heads = []
    for position in np.flatnonzero(DBTEngine.unit_head_flags(trace)).tolist():
        pc = int(pcs[position])
        if pc not in seen:
            seen.add(pc)
            heads.append(position)
    return heads


def mapped_units(shape, kwargs, hint_seed, workload):
    """Yield ``(position, unit, counters)`` for every head window of
    ``workload``: its start, the annealed unit (``None`` when no unit
    forms) and the ``mapping.sa.*`` counts its mapping added."""
    geometry = variant_geometry(shape)
    hint = variant_hint(geometry, hint_seed)
    mapper = SimulatedAnnealingMapper(**kwargs)
    limits = DBTLimits()
    trace = run_workload(workload)
    counters = obs.state.counters
    with obs.telemetry():
        for position in head_positions(trace):
            before = [counters.get(name, 0) for name in COUNTERS]
            unit = build_unit(
                trace, position, geometry, limits,
                mapper=mapper, stress_hint=hint,
            )
            added = [
                counters.get(name, 0) - old
                for name, old in zip(COUNTERS, before)
            ]
            yield position, unit, added


@functools.cache
def annealed_units(label: str, workload: str) -> tuple:
    """Variant ``label``'s :func:`mapped_units` of ``workload``
    (memoised: every test of a budgeted variant reads one run)."""
    (shape, kwargs, hint_seed), = [
        variant[1:] for variant in VARIANTS if variant[0] == label
    ]
    return tuple(mapped_units(shape, kwargs, hint_seed, workload))


def placement_digest(label: str, workload: str) -> tuple[str, tuple]:
    """SHA-256 of variant ``label``'s annealed units of ``workload``,
    and the summed ``mapping.sa.*`` counts."""
    sha = hashlib.sha256()
    totals = [0] * len(COUNTERS)
    for _, unit, added in annealed_units(label, workload):
        if unit is None:
            sha.update(b"none;")
        else:
            sha.update(
                f"{unit.start_pc},{unit.n_instructions},"
                f"{unit.mapper_key};".encode()
            )
            for op in unit.ops:
                sha.update(
                    f"{op.row},{op.col},{op.width},{op.trace_offset};".encode()
                )
        sha.update(f"{added};".encode())
        totals = [total + value for total, value in zip(totals, added)]
    return sha.hexdigest(), tuple(totals)


def placement_digests() -> dict:
    return {
        label: {
            workload: placement_digest(label, workload)[0]
            for workload in WORKLOADS
        }
        for label, _, _, _ in VARIANTS
    }


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("label", [variant[0] for variant in VARIANTS])
def test_sa_placement_digest_matches_fixture(expected, label, workload):
    """Regenerating the fixture after an *intentional* change to the
    annealing mapper's placements::

        PYTHONPATH=src python -m tests.test_sa_placements \\
            > tests/golden/sa_placements.json
    """
    digest, totals = placement_digest(label, workload)
    counts = dict(zip(COUNTERS, totals))
    assert counts["mapping.sa.moves_accepted"] > 0
    assert counts["mapping.sa.moves_rejected"] > 0
    assert digest == expected[label][workload], (
        f"{label} placements of {workload} drifted from "
        "tests/golden/sa_placements.json"
    )


def test_budgeted_variant_reaches_the_budget_rejection():
    """The budgeted variant's hard line cap refuses moves, so the
    fixture pins that branch of the move loop too."""
    budgeted = [label for label, shape, _, _ in VARIANTS if shape[2]]
    assert budgeted
    for label in budgeted:
        rejected = sum(
            placement_digest(label, workload)[1][
                COUNTERS.index("mapping.sa.moves_rejected_budget")
            ]
            for workload in WORKLOADS
        )
        assert rejected > 0


def test_budgeted_units_stay_within_the_budget():
    """Under a declared routing budget, discovery places every head
    window within the budget, and the annealed unit refining it has no
    routing violation: the annealer refines discovery's placement
    without re-checking its routability."""
    budgeted = [(label, shape) for label, shape, _, _ in VARIANTS if shape[2]]
    assert budgeted
    for label, shape in budgeted:
        geometry = variant_geometry(shape)
        budget = geometry.routing_budget
        checked = 0
        for workload in WORKLOADS:
            trace = run_workload(workload)
            for position, unit, _ in annealed_units(label, workload):
                seed, peak = translate_unit(
                    trace, position, geometry, DBTLimits()
                )
                assert (seed is None) == (unit is None)
                if unit is None:
                    continue
                assert peak <= budget, f"{workload} unit at {position}"
                window = trace[position : position + unit.n_instructions]
                assert routing_violations(unit, window, geometry) == ()
                checked += 1
        assert checked > 0


def test_fixture_covers_the_pinned_points(expected):
    assert list(expected) == [label for label, _, _, _ in VARIANTS]
    for per_workload in expected.values():
        assert list(per_workload) == list(WORKLOADS)


if __name__ == "__main__":
    print(json.dumps(placement_digests(), indent=2))
