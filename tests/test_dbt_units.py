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

Discovery reports a greedy unit's peak line pressure from its own
incremental tracker, and its placement is the only greedy one: a
greedy walk runs no mapper. Law tests hold, for every unit those walks
translate (including units closed by a failed placement or a
line-budget break and units holding a ``jal`` link constant), that the
peak equals the routing oracle's, that placing the window record by
record reproduces the unit, and that under a declared routing budget
the peak stays within it. A spy shows that a greedy walk calls no
mapper.
"""

import contextlib
import dataclasses
import functools
import hashlib
import json
from pathlib import Path
from unittest import mock

import pytest

from repro.cgra.configuration import greedy_identity
from repro.cgra.fabric import FabricGeometry
from repro.dbt.scheduler import PlacementFacts
from repro.dbt.translator import DBTEngine, DBTLimits
from repro.dbt.window import translate_unit
from repro.frontend import FrontEndSpec
from repro.mapping import available_mappers, mapper_class
from repro.mapping.routing import peak_pressure
from repro.system import SystemParams, compute_schedule
from repro.system import schedule as schedule_module
from repro.workloads.suite import run_workload, workload_names

from tests.support import greedy_unit, trace_of

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
    assert greedy_unit(grown, geometry, limits.row_policy) is None, (
        f"unit at {position} closed before a record that fits"
    )
    # The same fabric without a declared budget routes elastically.
    elastic = greedy_unit(
        grown,
        FabricGeometry(rows=geometry.rows, cols=geometry.cols),
        limits.row_policy,
    )
    return "full" if elastic is None else "budget"


@functools.cache
def checked_units(label: str) -> tuple[dict[str, int], int, int]:
    """Check the discovery laws on every unit variant ``label``'s walks
    translate; return the units' closing reasons (counted), how many
    hold a ``jal`` link constant and the highest peak line pressure."""
    params = variant_params(label)
    limits = params.dbt
    budget = params.geometry.routing_budget
    reasons: dict[str, int] = {}
    links = 0
    highest = 0
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
            assert budget is None or peak <= budget, (
                f"{workload} unit at {position}: peak {peak} > {budget}"
            )
            highest = max(highest, peak)
            replaced = greedy_unit(
                window, params.geometry, limits.row_policy
            )
            assert replaced == unit, f"{workload} unit at {position}"
            reason = closing_reason(trace, position, unit, params)
            reasons[reason] = reasons.get(reason, 0) + 1
            links += any(op.op == "jal" for op in unit.ops)
    return reasons, links, highest


@pytest.mark.parametrize("label", [variant[0] for variant in VARIANTS])
def test_discovery_facts_match_the_oracles(label):
    """For every unit the variant's walks translate, the discovery
    scheduler's peak equals the routing oracle's over the unit's
    window, and placing the window record by record (each record's
    facts decoded on their own, not from the instruction table)
    reproduces the unit.

    The walks report a unit's peak line pressure from the discovery
    tracker instead of running the oracle; this is the law that relies
    on.
    """
    reasons, _, _ = checked_units(label)
    assert sum(reasons.values()) > 0


def test_budgeted_discovery_stays_within_the_budget():
    """Discovery places under the geometry's declared routing budget,
    so no unit the budgeted variant translates needs more context
    lines than the budget: the annealer refines such units as they are
    (moves never raise a boundary past the budget). The highest peak
    reaches the budget, so the law is not met vacuously."""
    budgeted = [label for label, shape, _, _ in VARIANTS if shape[2]]
    assert budgeted == ["ctx4_4x8"]
    for label in budgeted:
        budget = variant_params(label).geometry.routing_budget
        assert checked_units(label)[2] == budget


@pytest.mark.parametrize("label", ["default_2x16", "round_robin_4x32"])
def test_greedy_walk_runs_no_mapper(label):
    """A greedy point's walk builds no mapper and calls no
    ``map_unit``: discovery's placement is the unit, filed under the
    greedy identity of the DBT's row policy. An annealing walk of the
    same fabric is the spy's positive control."""
    calls = []

    def spy(self, *args, **kwargs):
        calls.append(type(self).__name__)
        return original[type(self)](self, *args, **kwargs)

    classes = [mapper_class(name) for name in available_mappers()]
    original = {cls: cls.map_unit for cls in classes}
    params = variant_params(label)
    trace = run_workload("crc32")
    with contextlib.ExitStack() as stack:
        for cls in classes:
            stack.enter_context(mock.patch.object(cls, "map_unit", spy))
        made = stack.enter_context(
            mock.patch.object(
                schedule_module,
                "make_mapper",
                side_effect=schedule_module.make_mapper,
            )
        )
        greedy = compute_schedule(params, trace)
        assert calls == [] and made.call_count == 0
        annealed = compute_schedule(
            dataclasses.replace(
                params,
                mapper="annealing",
                mapper_kwargs={"stress_weight": 0.0},
            ),
            trace,
        )
    assert made.call_count == 1
    assert calls and set(calls) == {"SimulatedAnnealingMapper"}
    key = greedy_identity(params.dbt.row_policy)
    assert greedy.units and {unit.mapper_key for unit in greedy.units} == {
        key
    }
    assert key not in {unit.mapper_key for unit in annealed.units}


def test_laws_reach_closed_units_and_link_constants():
    """The checked units include the cases random windows never reach:
    units closed by a failed placement and by a line-budget break, and
    units holding a ``jal`` link constant."""
    reasons: dict[str, int] = {}
    links = 0
    for label, _, _, _ in VARIANTS:
        variant_reasons, variant_links, _ = checked_units(label)
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
