"""Per-column context-line pressure model for placed units.

PR 2's mappers treated the left-to-right context-line interconnect as
infinite: any dependence-ordered placement was "legal", even when more
live values had to cross a column boundary than the fabric has lines.
This module makes routability first-class:

* :func:`value_intervals` derives, from a placement and its window,
  the live interval of every routed value — produced at the producer's
  end column, carried until its right-most consumer;
* :func:`routing_profile` folds the intervals into a
  :class:`RoutingProfile`: per-boundary context-line pressure plus
  per-column input-context (immediate / live-in) occupancy, via the
  shared arithmetic in :mod:`repro.cgra.interconnect`;
* :func:`routing_violations` turns a profile into legality findings
  against a geometry's *declared* routing budget
  (:attr:`repro.cgra.fabric.FabricGeometry.routing_budget`).

Only values produced **inside** the window occupy context lines:
immediates and window live-ins enter through the per-column input
context (the ``imm_slots`` of the hw model's wrap design) and are
reported separately. Memory dependences order placements but carry no
line value (they flow through the cache ports).

Consistency: the edge set here must match the dependence oracle
(:func:`repro.dbt.dfg.build_dfg`'s ``raw`` edges) and the incremental
bookkeeping of :class:`repro.dbt.scheduler.SchedulerState`; the
property tests in ``tests/test_mapping_routing.py`` pin all three to
each other.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.cgra.configuration import VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.cgra.interconnect import OPERANDS_PER_FU, pressure_profile
from repro.dbt.dfg import source_registers
from repro.sim.trace import TraceRecord


@dataclass(frozen=True)
class RoutingProfile:
    """Interconnect occupancy of one placed unit.

    Attributes:
        pressure: entry ``b`` counts the live values crossing into
            column ``b`` on context lines.
        input_slots: entry ``c`` counts the operands column ``c``
            sources from the input context (immediates plus operands
            produced before the window).
        ctx_lines: the hard line budget the profile was checked
            against, or ``None`` when the geometry routes elastically.
    """

    pressure: np.ndarray
    input_slots: np.ndarray
    ctx_lines: int | None

    @property
    def peak_pressure(self) -> int:
        """Worst per-boundary context-line demand."""
        return int(self.pressure.max()) if self.pressure.size else 0

    def overflowed_columns(self) -> tuple[int, ...]:
        """Columns whose line pressure exceeds the budget (empty when
        the budget is elastic)."""
        if self.ctx_lines is None:
            return ()
        return tuple(
            int(col) for col in np.nonzero(self.pressure > self.ctx_lines)[0]
        )

    @property
    def ok(self) -> bool:
        return not self.overflowed_columns()


def value_intervals(
    unit: VirtualConfiguration, records: Sequence[TraceRecord]
) -> list[tuple[int, int]]:
    """Live interval ``(first, last)`` of every routed value.

    One interval per *placed producer* with at least one placed
    consumer: available at the producer's end column, alive through the
    start column of its right-most consumer. Register identity is
    resolved in program order (a later write to the same register
    starts a new value; the old one stays live for its own consumers),
    matching ``build_dfg``'s ``raw`` edges exactly.
    """
    ops_by_offset = {op.trace_offset: op for op in unit.ops}
    last_writer: dict[int, int] = {}
    last_use: dict[int, int] = {}  # producer offset -> right-most consumer col
    for offset, record in enumerate(records[: unit.n_instructions]):
        consumer = ops_by_offset.get(offset)
        if consumer is not None:
            for reg in source_registers(record):
                producer = last_writer.get(reg)
                if producer is None or producer not in ops_by_offset:
                    continue  # live-in: arrives via the input context
                last_use[producer] = max(
                    last_use.get(producer, -1), consumer.col
                )
        if record.rd is not None:
            last_writer[record.rd] = offset
    return [
        (ops_by_offset[producer].end_col, last)
        for producer, last in last_use.items()
    ]


def peak_pressure(
    unit: VirtualConfiguration, records: Sequence[TraceRecord]
) -> int:
    """Worst per-boundary context-line demand of a placed unit — the
    :attr:`RoutingProfile.peak_pressure` of :func:`routing_profile`,
    without computing the input-slot counts."""
    pressure = pressure_profile(
        value_intervals(unit, records), unit.geometry_cols
    )
    return int(pressure.max()) if pressure.size else 0


def input_slot_counts(
    unit: VirtualConfiguration, records: Sequence[TraceRecord]
) -> np.ndarray:
    """Per-column input-context operand counts (immediates + live-ins).

    Each counted operand occupies one of the column's
    ``rows * OPERANDS_PER_FU`` operand muxes fed from the input
    context, so the count can never exceed that structural ceiling; it
    is reported for sizing studies, not enforced.
    """
    counts = np.zeros(unit.geometry_cols, dtype=np.int64)
    ops_by_offset = {op.trace_offset: op for op in unit.ops}
    last_writer: dict[int, int] = {}
    for offset, record in enumerate(records[: unit.n_instructions]):
        consumer = ops_by_offset.get(offset)
        if consumer is not None:
            if record.imm is not None:
                counts[consumer.col] += 1
            for reg in source_registers(record):
                producer = last_writer.get(reg)
                if producer is None or producer not in ops_by_offset:
                    counts[consumer.col] += 1
        if record.rd is not None:
            last_writer[record.rd] = offset
    return counts


def input_slot_capacity(geometry: FabricGeometry) -> int:
    """Structural ceiling of per-column input-context operands: every
    FU operand mux in the column can source one input-context word."""
    return geometry.rows * OPERANDS_PER_FU


def routing_profile(
    unit: VirtualConfiguration,
    records: Sequence[TraceRecord],
    geometry: FabricGeometry | None = None,
) -> RoutingProfile:
    """Compute the unit's interconnect occupancy.

    ``geometry`` supplies the line budget; omitted, it is derived from
    the unit's grid shape (default sizing — elastic routing, profile
    still computed for reporting).
    """
    if geometry is None:
        geometry = FabricGeometry(
            rows=unit.geometry_rows, cols=unit.geometry_cols
        )
    return RoutingProfile(
        pressure=pressure_profile(
            value_intervals(unit, records), unit.geometry_cols
        ),
        input_slots=input_slot_counts(unit, records),
        ctx_lines=geometry.routing_budget,
    )


def routing_violations(
    unit: VirtualConfiguration,
    records: Sequence[TraceRecord],
    geometry: FabricGeometry | None = None,
) -> tuple[str, ...]:
    """Legality findings for the unit's routing, empty when routable.

    With no declared budget the check is vacuous (elastic routing) —
    which is exactly the default pipeline's contract, so running the
    oracle unconditionally cannot perturb the paper reproduction.
    """
    profile = routing_profile(unit, records, geometry)
    return tuple(
        f"context-line overflow entering column {col}: "
        f"{int(profile.pressure[col])} live values > "
        f"{profile.ctx_lines} lines"
        for col in profile.overflowed_columns()
    )
