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
from repro.dbt.scheduler import SchedulerState
from repro.isa.instructions import InstrClass
from repro.sim.trace import Trace, TraceRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
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


def _ends_unit(record: TraceRecord) -> bool:
    """Instructions the unit can never contain (or continue across)."""
    if record.cls in (InstrClass.DIV, InstrClass.SYSTEM):
        return True
    return record.cls is InstrClass.JUMP and record.op == "jalr"


#: Sentinel returned by :func:`place_record` for instructions that stay
#: on the recorded path but contribute no fabric op (``jal x0``).
NO_FABRIC_OP = object()


def place_record(
    state: SchedulerState, record: TraceRecord, offset: int
) -> PlacedOp | object | None:
    """Place one record on ``state``'s grid.

    The single definition of per-instruction placement semantics,
    shared by unit discovery (:func:`build_unit`) and by mappers that
    re-place fixed windows (:func:`repro.mapping.greedy.place_window`).

    Returns the :class:`PlacedOp`, :data:`NO_FABRIC_OP` for ``jal x0``
    (a pure goto with no dataflow), or ``None`` when the record is
    unmappable or found no free slot.
    """
    if record.cls is InstrClass.JUMP:
        if record.op != "jal":
            return None  # jalr: target unknown at translation time
        if record.rd is None:
            return NO_FABRIC_OP
        # The link value pc+4 is a translation-time constant generated
        # by an ALU cell with no input dependences.
        return state.try_place_constant(record.op, record.rd, offset)
    return state.try_place(record, trace_offset=offset)


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
    and speculation behaviour are therefore mapper-independent. When a
    ``mapper`` is injected, the discovered window is handed to it for
    placement, with the greedy result as seed (the default
    :class:`~repro.mapping.greedy.GreedyMapper` returns the seed
    untouched, keeping the pipeline byte-identical).

    Returns ``None`` when no unit of at least ``min_instructions`` can
    be formed at this position.
    """
    limits = limits if limits is not None else UnitLimits()
    state = SchedulerState(geometry, row_policy=limits.row_policy)
    ops: list[PlacedOp] = []
    pc_path: list[int] = []
    window: list[TraceRecord] = []
    branches = 0

    position = start
    stop = min(len(trace), start + limits.max_instructions)
    while position < stop:
        record = trace[position]
        if _ends_unit(record):
            break
        if record.cls is InstrClass.BRANCH:
            if branches + 1 > limits.max_branches:
                break
        placed = place_record(state, record, len(pc_path))
        if placed is None:
            break  # no free slot (or link register op did not fit)
        if placed is not NO_FABRIC_OP:
            ops.append(placed)
            if record.cls is InstrClass.BRANCH:
                branches += 1
        pc_path.append(record.pc)
        window.append(record)
        position += 1

    if len(pc_path) < limits.min_instructions or not ops:
        return None
    unit = VirtualConfiguration(
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
        return unit
    return mapper.map_unit(
        window, geometry, stress_hint=stress_hint, seed=unit
    )


def truncate_unit(
    unit: VirtualConfiguration, length: int, min_instructions: int = 3
) -> VirtualConfiguration | None:
    """Shorten a unit to its first ``length`` instructions.

    Used by the misspeculation monitor: a unit that keeps diverging at
    some branch is cut back to the prefix that reliably commits. Ops
    keep their placement (the prefix was scheduled first, so its
    placement is unchanged by dropping later ops). Returns ``None``
    when the prefix is too short to be worth a cache entry.
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


