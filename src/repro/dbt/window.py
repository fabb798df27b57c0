"""Translation-unit discovery over the committed trace.

Starting from a trace position, instructions are appended to a unit —
and placed on the virtual grid as they arrive — until one of:

* the greedy scheduler finds no free slot (fabric full);
* an unmappable instruction is hit (DIV, ``jalr``, ``ecall``);
* the speculated-branch budget is exhausted;
* the instruction cap is reached.

``jal`` is special: its target is static, so the unit can continue
across it. A link-writing ``jal`` (``call``) contributes an ALU op that
materialises the return address; ``jal x0`` (plain ``j``) contributes
no fabric op but stays on the recorded path.

Units shorter than ``min_instructions`` are rejected (not worth a
configuration-cache entry).

Discovery is the one greedy placement: the unit it grows is placed
first-fit as it goes, under the geometry's routing budget and the
row-scan order of :attr:`UnitLimits.row_policy`. It builds no
:class:`~repro.sim.trace.TraceRecord` views: it reads the trace's
static-index and memory-address columns and places from each
instruction-table row's :class:`~repro.dbt.scheduler.PlacementFacts`,
decoded once per table. Record views of a window are built once, as
one slice, only for a mapper that refines the greedy seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cgra.configuration import (
    PlacedOp,
    VirtualConfiguration,
    greedy_identity,
)
from repro.cgra.fabric import FabricGeometry
from repro.dbt.scheduler import NO_FABRIC_OP, SchedulerState, table_facts
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from collections.abc import Callable

    import numpy as np

    from repro.mapping.base import Mapper


@dataclass(frozen=True)
class UnitLimits:
    """Caps applied while growing a translation unit."""

    max_instructions: int = 64
    max_branches: int = 3
    min_instructions: int = 3
    #: Row-scan order of the greedy scheduler ("first_fit" is the
    #: paper's traditional allocation; "round_robin" is a scheduler-
    #: level balancing ablation).
    row_policy: str = "first_fit"


def translate_unit(
    trace: Trace,
    start: int,
    geometry: FabricGeometry,
    limits: UnitLimits | None = None,
    mapper: "Mapper | None" = None,
    stress: "Callable[[], np.ndarray | None] | None" = None,
) -> tuple[VirtualConfiguration | None, int]:
    """:func:`build_unit` and the unit's peak context-line pressure.

    ``stress`` returns the stress hint for the mapper. It is called
    only once a seed has formed and a mapper is given, i.e. only when
    the mapper actually refines the seed: reading a live stress map may
    fold pending launches, which discovery never needs.

    A greedy unit's peak is the discovery scheduler's own
    :class:`~repro.cgra.interconnect.LinePressureTracker` reading; a
    unit the mapper refined is measured by the routing oracle
    (:func:`repro.mapping.routing.peak_pressure`) over the same window
    the mapper placed. The peak is 0 when no unit forms.
    """
    limits = limits if limits is not None else UnitLimits()
    state = SchedulerState(geometry, row_policy=limits.row_policy)
    facts_of = table_facts(trace.table)
    static_pcs = trace.table.pc
    static_index = memoryview(trace.static_index_array)
    mem_addr = memoryview(trace.mem_addr_array)
    place = state.place
    max_branches = limits.max_branches
    ops: list[PlacedOp] = []
    pc_path: list[int] = []
    branches = 0

    position = start
    stop = min(len(trace), start + limits.max_instructions)
    while position < stop:
        static = static_index[position]
        facts = facts_of[static]
        if facts.ends_unit:
            break
        if facts.is_branch and branches >= max_branches:
            break
        placed = place(facts, mem_addr[position], len(pc_path))
        if placed is None:
            break  # no free slot (or link register op did not fit)
        if placed is not NO_FABRIC_OP:
            ops.append(placed)
            if facts.is_branch:
                branches += 1
        pc_path.append(static_pcs[static])
        position += 1

    if len(pc_path) < limits.min_instructions or not ops:
        return None, 0
    seed = VirtualConfiguration(
        start_pc=pc_path[0],
        pc_path=tuple(pc_path),
        ops=tuple(ops),
        n_instructions=len(pc_path),
        geometry_rows=geometry.rows,
        geometry_cols=geometry.cols,
        # The seed carries the identity of the scheduler configuration
        # that actually placed it (row policy included), so mappers and
        # the config cache never alias distinct placements.
        mapper_key=greedy_identity(limits.row_policy),
    )
    if mapper is None:
        return seed, state.peak_line_pressure
    window = trace[start:position]
    unit = mapper.map_unit(
        window,
        geometry,
        stress_hint=None if stress is None else stress(),
        seed=seed,
    )
    # Local import: importing repro.mapping reaches repro.dbt (the
    # annealer's dependence edges), whose package imports this module,
    # so binding at call time avoids the cycle.
    from repro.mapping.routing import peak_pressure

    return unit, peak_pressure(unit, window)


def build_unit(
    trace: Trace,
    start: int,
    geometry: FabricGeometry,
    limits: UnitLimits | None = None,
    mapper: "Mapper | None" = None,
    stress_hint: "np.ndarray | None" = None,
) -> VirtualConfiguration | None:
    """Build a translation unit starting at ``trace[start]``.

    The *window* (which instructions belong to the unit) is always
    discovered by the greedy scheduler — unit boundaries, ``pc_path``
    and speculation behaviour are therefore mapper-independent. The
    greedy placement discovery makes as it goes is the unit when no
    ``mapper`` is given (the ``greedy`` pipeline); an injected mapper
    (the annealer) refines that placement, given as its seed, over the
    discovered window.

    Returns ``None`` when no unit of at least ``min_instructions`` can
    be formed at this position.
    """
    return translate_unit(
        trace, start, geometry, limits, mapper, lambda: stress_hint
    )[0]


def truncate_unit(
    unit: VirtualConfiguration, length: int, min_instructions: int = 3
) -> VirtualConfiguration | None:
    """Shorten a unit to its first ``length`` instructions.

    Used by the misspeculation monitor: a unit that keeps diverging at
    some branch is cut back to the prefix that reliably commits. Ops
    keep their placement. For a greedy unit that is the greedy
    placement of the prefix (the prefix was scheduled first, and later
    ops never move it); a unit a mapper refined keeps the columns
    the mapper chose within the whole unit's bound, so its prefix can
    run wider than the greedy prefix. Returns ``None`` when the prefix
    is too short to be worth a cache entry.
    """
    if length >= unit.n_instructions:
        return unit
    ops = tuple(op for op in unit.ops if op.trace_offset < length)
    if length < min_instructions or not ops:
        return None
    return VirtualConfiguration(
        start_pc=unit.start_pc,
        pc_path=unit.pc_path[:length],
        ops=ops,
        n_instructions=length,
        geometry_rows=unit.geometry_rows,
        geometry_cols=unit.geometry_cols,
        mapper_key=unit.mapper_key,
    )


