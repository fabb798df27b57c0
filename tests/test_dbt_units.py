"""Translation units the DBT discovers in the suite's walks, pinned.

Unit discovery decides every configuration the allocator later moves:
which instructions form a unit, where each op sits on the virtual
grid and how the configuration cache fills, truncates and evicts. This
file pins one SHA-256 per (variant, workload) over the units
:func:`~repro.system.schedule.compute_schedule` launches (start PC,
``pc_path``, ``mapper_key`` and each op's op, kind, row, column,
width, trace offset and branch flag), the walk's peak context-line
pressure and the configuration-cache insertion, rejection,
truncation, blacklist and eviction counts.

The variants cover the discovery scheduler's branches: first-fit on
(2,16); round-robin rows on (4,32); a hard ``ctx_lines`` budget on
(4,8) that closes units on line-budget breaks; tight branch and
instruction caps on (8,32); and a speculative front end with
interrupts on (4,32), whose stream holds wrong-path and handler rows
of an extended instruction table.

Discovery reports a greedy seed's peak line pressure from its own
incremental tracker, and the walks trust the seed as the greedy
placement of its window. A law test holds both facts for every unit
those walks translate, including units closed by a failed placement
or a line-budget break and units holding a ``jal`` link constant.
"""

import functools
import hashlib
import json
from pathlib import Path
from unittest import mock

import pytest

from repro.cgra.fabric import FabricGeometry
from repro.cgra.interconnect import FOLLOW_GEOMETRY
from repro.dbt.scheduler import PlacementFacts
from repro.dbt.translator import DBTEngine, DBTLimits
from repro.dbt.window import translate_unit
from repro.frontend import FrontEndSpec
from repro.mapping.greedy import place_window
from repro.mapping.routing import peak_pressure
from repro.system import SystemParams, compute_schedule
from repro.workloads.suite import run_workload, workload_names

from tests.support import trace_of

FIXTURE = Path(__file__).resolve().parent / "golden" / "dbt_units.json"

#: Front end of the speculative variant: interrupts punctuate the
#: stream with handler mini-traces.
IRQ_FRONTEND = FrontEndSpec.make("bimodal", interrupt_rate=0.002, seed=3)

#: (label, (rows, cols, ctx_lines), DBT limit overrides, front end).
#: ``ctx_lines=None`` keeps the default (elastic) line sizing.
VARIANTS = (
    ("default_2x16", (2, 16, None), {}, None),
    ("round_robin_4x32", (4, 32, None), {"row_policy": "round_robin"}, None),
    ("ctx4_4x8", (4, 8, 4), {}, None),
    (
        "short_8x32",
        (8, 32, None),
        {"max_branches": 1, "max_instructions": 16},
        None,
    ),
    ("interrupts_4x32", (4, 32, None), {}, IRQ_FRONTEND),
)

WORKLOADS = workload_names()

#: A loop calling a leaf function: no suite kernel calls, so this is
#: where the walks translate units holding a ``jal`` link constant.
CALL_KERNEL = """
    li s0, 40
    li s1, 0
loop:
    call step
    add s1, s1, a0
    addi s0, s0, -1
    bnez s0, loop
    li a7, 93
    ecall
step:
    slli a0, s0, 2
    xor a0, a0, s1
    mul t0, a0, s0
    add a0, a0, t0
    ret
"""


def variant_params(label: str) -> SystemParams:
    (shape, limits, frontend), = [
        variant[1:] for variant in VARIANTS if variant[0] == label
    ]
    rows, cols, ctx_lines = shape
    if ctx_lines is None:
        geometry = FabricGeometry(rows=rows, cols=cols)
    else:
        geometry = FabricGeometry(rows=rows, cols=cols, ctx_lines=ctx_lines)
    return SystemParams(
        geometry=geometry, dbt=DBTLimits(**limits), frontend=frontend
    )


@functools.cache
def walk(label: str, workload: str):
    """Variant ``label``'s schedule of ``workload`` (``"call_kernel"``
    for :data:`CALL_KERNEL`) and every ``(trace, position, unit)`` its
    DBT translated."""
    translated = []
    translate_at = DBTEngine.translate_at

    def recording(engine, trace, position):
        unit = translate_at(engine, trace, position)
        if unit is not None:
            translated.append((trace, position, unit))
        return unit

    trace = (
        trace_of(CALL_KERNEL)
        if workload == "call_kernel"
        else run_workload(workload)
    )
    with mock.patch.object(DBTEngine, "translate_at", recording):
        schedule = compute_schedule(variant_params(label), trace)
    return schedule, tuple(translated)


@functools.cache
def unit_digest(label: str, workload: str) -> str:
    """SHA-256 of variant ``label``'s walk of ``workload``: launched
    units, peak line pressure and configuration-cache counts."""
    schedule, _ = walk(label, workload)
    sha = hashlib.sha256()
    for unit in schedule.units:
        sha.update(
            f"{unit.start_pc};{unit.pc_path};{unit.mapper_key};".encode()
        )
        for op in unit.ops:
            sha.update(
                f"{op.op},{op.kind.value},{op.row},{op.col},{op.width},"
                f"{op.trace_offset},{op.is_branch};".encode()
            )
    stats = schedule.cache_stats
    sha.update(
        f"peak={schedule.cgra.peak_line_pressure};"
        f"{stats.insertions},{stats.rejected},{stats.truncations},"
        f"{stats.blacklisted},{stats.evictions}".encode()
    )
    return sha.hexdigest()


def unit_digests() -> dict:
    return {
        label: {
            workload: unit_digest(label, workload) for workload in WORKLOADS
        }
        for label, _, _, _ in VARIANTS
    }


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("label", [variant[0] for variant in VARIANTS])
def test_unit_digest_matches_fixture(expected, label, workload):
    """Regenerating the fixture after an *intentional* change to unit
    discovery or greedy placement::

        PYTHONPATH=src python -m tests.test_dbt_units \\
            > tests/golden/dbt_units.json
    """
    assert unit_digest(label, workload) == expected[label][workload], (
        f"{label} units of {workload} drifted from tests/golden/dbt_units.json"
    )


def closing_reason(trace, position, unit, params) -> str:
    """Why discovery closed ``unit``: ``"budget"`` when the next record
    failed only on the line budget, ``"full"`` when it found no slot at
    all, ``"other"`` for the trace end, a cap or an unmappable record.
    A unit that could have taken the next record fails the check."""
    limits = params.dbt
    end = position + unit.n_instructions
    if end >= len(trace) or unit.n_instructions >= limits.max_instructions:
        return "other"
    facts = PlacementFacts(trace[end])
    if facts.ends_unit or (
        facts.is_branch and unit.n_branches >= limits.max_branches
    ):
        return "other"
    grown = trace[position : end + 1]
    geometry = params.geometry
    assert place_window(grown, geometry, limits.row_policy) is None, (
        f"unit at {position} closed before a record that fits"
    )
    elastic = place_window(
        grown, geometry, limits.row_policy, line_budget=None
    )
    return "full" if elastic is None else "budget"


@functools.cache
def checked_units(label: str) -> tuple[dict[str, int], int]:
    """Check both discovery laws on every unit variant ``label``'s walks
    translate; return the units' closing reasons (counted) and how many
    hold a ``jal`` link constant."""
    params = variant_params(label)
    limits = params.dbt
    reasons: dict[str, int] = {}
    links = 0
    for workload in (*WORKLOADS, "call_kernel"):
        for trace, position, unit in walk(label, workload)[1]:
            seed, peak = translate_unit(
                trace, position, params.geometry, limits
            )
            assert seed == unit
            window = trace[position : position + unit.n_instructions]
            assert peak == peak_pressure(unit, window), (
                f"{workload} unit at {position}: discovery peak {peak}"
            )
            replaced = place_window(
                window,
                params.geometry,
                limits.row_policy,
                mapper_key=unit.mapper_key,
                line_budget=FOLLOW_GEOMETRY,
            )
            assert replaced == unit, f"{workload} unit at {position}"
            reason = closing_reason(trace, position, unit, params)
            reasons[reason] = reasons.get(reason, 0) + 1
            links += any(op.op == "jal" for op in unit.ops)
    return reasons, links


@pytest.mark.parametrize("label", [variant[0] for variant in VARIANTS])
def test_discovery_facts_match_the_oracles(label):
    """For every unit the variant's walks translate, the discovery
    scheduler's peak equals the routing oracle's over the unit's
    window, and re-placing the window reproduces the unit.

    The walks report a seed's peak line pressure from the discovery
    tracker instead of running the oracle, and skip re-placing seeds
    for mappers of the seed's identity; this is the law both rely on.
    """
    reasons, _ = checked_units(label)
    assert sum(reasons.values()) > 0


def test_laws_reach_closed_units_and_link_constants():
    """The checked units include the cases random windows never reach:
    units closed by a failed placement and by a line-budget break, and
    units holding a ``jal`` link constant."""
    reasons: dict[str, int] = {}
    links = 0
    for label, _, _, _ in VARIANTS:
        variant_reasons, variant_links = checked_units(label)
        for reason, count in variant_reasons.items():
            reasons[reason] = reasons.get(reason, 0) + count
        links += variant_links
    assert reasons.get("full", 0) > 0
    assert reasons.get("budget", 0) > 0
    assert links > 0


def test_fixture_covers_the_pinned_points(expected):
    assert list(expected) == [label for label, _, _, _ in VARIANTS]
    for per_workload in expected.values():
        assert list(per_workload) == list(WORKLOADS)


if __name__ == "__main__":
    print(json.dumps(unit_digests(), indent=2))
