"""Greedy first-fit mapper — the paper's traditional allocation.

``GreedyMapper`` wraps the existing DBT scheduler
(:class:`repro.dbt.scheduler.SchedulerState`) unchanged: ops go to the
earliest dependence-legal column, first free row scanning from row 0.
It is the default mapper; its default identity equals the greedy
seed's, so unit discovery (:func:`repro.dbt.window.translate_unit`)
keeps the seed without calling it — every paper output stays
byte-identical to the hardwired pipeline.

:func:`place_window` is the shared placement routine: it replays the
scheduler over an already-discovered window, exactly the placement the
discovery pass produced. Other mappers use it to compute their starting
point when no seed is supplied.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import obs
from repro.cgra.configuration import (
    DEFAULT_MAPPER_KEY,
    PlacedOp,
    VirtualConfiguration,
    greedy_identity,
)
from repro.cgra.fabric import FabricGeometry
from repro.cgra.interconnect import FOLLOW_GEOMETRY
from repro.dbt.scheduler import NO_FABRIC_OP, SchedulerState
from repro.mapping.base import Mapper, register_mapper
from repro.sim.trace import TraceRecord


def place_window(
    records: Sequence[TraceRecord],
    geometry: FabricGeometry,
    row_policy: str = "first_fit",
    mapper_key: str = DEFAULT_MAPPER_KEY,
    line_budget: int | str | None = FOLLOW_GEOMETRY,
) -> VirtualConfiguration | None:
    """First-fit placement of a fixed instruction window.

    Per-record semantics are shared with unit discovery through
    :meth:`repro.dbt.scheduler.SchedulerState.try_place`; unlike
    :func:`~repro.dbt.window.build_unit` this does not *discover* the
    window — the caller fixed it — so placement is all-or-nothing:
    ``None`` is returned when any record is unmappable or does not fit,
    never a shorter unit. ``line_budget`` bounds per-column context-line
    pressure exactly as in :class:`~repro.dbt.scheduler.SchedulerState`.
    """
    records = tuple(records)
    if not records:
        return None
    with obs.span("mapping.greedy.place_window", n_records=len(records)):
        if obs.state.enabled:
            obs.count("mapping.greedy.windows")
        state = SchedulerState(
            geometry, row_policy=row_policy, line_budget=line_budget
        )
        ops: list[PlacedOp] = []
        for offset, record in enumerate(records):
            placed = state.try_place(record, offset)
            if placed is None:
                if obs.state.enabled:
                    obs.count("mapping.greedy.unplaced")
                return None
            if placed is not NO_FABRIC_OP:
                ops.append(placed)
        if not ops:
            if obs.state.enabled:
                obs.count("mapping.greedy.unplaced")
            return None
        if obs.state.enabled:
            obs.count("mapping.greedy.placed")
        return VirtualConfiguration(
            start_pc=records[0].pc,
            pc_path=tuple(record.pc for record in records),
            ops=tuple(ops),
            n_instructions=len(records),
            geometry_rows=geometry.rows,
            geometry_cols=geometry.cols,
            mapper_key=mapper_key,
        )


@register_mapper
class GreedyMapper(Mapper):
    """The traditional, energy-oriented first-fit placement.

    Args:
        row_policy: row-scan order of the underlying scheduler
            (``"first_fit"`` or ``"round_robin"``, see
            :class:`~repro.dbt.scheduler.SchedulerState`).
        line_budget: per-column context-line budget; the default
            follows the geometry's declared routing budget (elastic
            unless ``ctx_lines`` was set explicitly), an int overrides
            it, ``None`` forces elastic routing.
    """

    name = DEFAULT_MAPPER_KEY

    def __init__(
        self,
        row_policy: str = "first_fit",
        line_budget: int | str | None = FOLLOW_GEOMETRY,
    ) -> None:
        if row_policy not in ("first_fit", "round_robin"):
            raise ValueError(f"unknown row policy {row_policy!r}")
        if isinstance(line_budget, str) and line_budget != FOLLOW_GEOMETRY:
            raise ValueError(f"unknown line budget {line_budget!r}")
        if isinstance(line_budget, int) and line_budget < 1:
            raise ValueError("line_budget must be >= 1")
        self.row_policy = row_policy
        self.line_budget = line_budget

    def map_unit(
        self,
        ops: Sequence[TraceRecord],
        geometry: FabricGeometry,
        rng: np.random.Generator | None = None,
        stress_hint: np.ndarray | None = None,
        seed: VirtualConfiguration | None = None,
    ) -> VirtualConfiguration | None:
        return place_window(
            ops,
            geometry,
            self.row_policy,
            mapper_key=self.identity(),
            line_budget=self.line_budget,
        )

    def identity(self) -> str:
        # A non-default budget places differently, so it must name its
        # own cache namespace; the geometry-following default keeps the
        # seed scheduler's identity (discovery applies the same budget).
        if self.line_budget == FOLLOW_GEOMETRY:
            return greedy_identity(self.row_policy)
        parts = [f"line_budget={self.line_budget}"]
        if self.row_policy != "first_fit":
            parts.append(f"row_policy={self.row_policy}")
        return f"{self.name}({','.join(parts)})"
