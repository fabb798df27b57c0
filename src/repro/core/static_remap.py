"""Static health-aware placement — the related-work comparison point.

Gu et al. (DAC 2017, reference [19] in the paper) mitigate NBTI in
CGRAs by choosing a stress-aware placement *at mapping time*. The
paper's critique is that a static choice "is unaware of dynamic
input-dependent information that affects the execution". This policy
models that family: when a configuration is seen for the *first* time
it picks the pivot that minimises accumulated stress — and then keeps
that pivot for the configuration's whole lifetime.

Against the run-time rotation this exposes exactly the gap the paper
argues: with few distinct configurations the static choice cannot
spread a hot loop's stress (its one pivot keeps hitting the same FUs),
while the rotation spreads even a single configuration over the full
fabric.

Batched, the planner reads the counts only at the first launch of a
configuration not yet frozen: there it adds the launches it has
planned since the previous such launch to the private counts (with
the fold's own translation tables), then searches.
"""

from __future__ import annotations

import numpy as np

from repro.cgra.configuration import VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.core.policy import (
    AllocationPolicy,
    candidate_footprints,
    min_stress_index,
    register_policy,
)


@register_policy
class StaticRemapPolicy(AllocationPolicy):
    """One stress-aware pivot per configuration, frozen at first use."""

    name = "static_remap"
    plan_granularity = "epoch"

    def __init__(self) -> None:
        self._pivots: dict[int, tuple[int, int]] = {}

    def bind(self, geometry: FabricGeometry) -> None:
        super().bind(geometry)
        self._pivots = {}
        self._raster = np.asarray(
            [(r, c) for r in range(geometry.rows) for c in range(geometry.cols)],
            dtype=np.int64,
        )

    def next_pivot(
        self, config: VirtualConfiguration, counts: np.ndarray
    ) -> tuple[int, int]:
        pivot = self._pivots.get(config.start_pc)
        if pivot is None:
            pivot = self._choose_pivot(config, counts)
            self._pivots[config.start_pc] = pivot
        return pivot

    def plan_pivots(self, schedule, counts):
        """Frozen pivots tile each run of a known configuration. At the
        first launch of a configuration not yet frozen — the start of a
        *remap epoch* — the planner adds the launches planned since the
        previous epoch to ``counts`` and chooses its pivot from them,
        so the choice sees exactly the per-launch loop's counts there.
        """
        cols = self.geometry.cols
        unit_index = schedule.unit_index
        pivots = np.empty((schedule.n_launches, 2), dtype=np.int64)
        counted = 0
        for config, start, stop in schedule.runs():
            pivot = self._pivots.get(config.start_pc)
            if pivot is None:
                epoch = pivots[counted:start]
                schedule.fold_tables(self.geometry).add_counts(
                    counts,
                    unit_index[counted:start],
                    epoch[:, 0] * cols + epoch[:, 1],
                )
                counted = start
                pivot = self._choose_pivot(config, counts)
                self._pivots[config.start_pc] = pivot
            pivots[start:stop] = pivot
        return pivots

    def _choose_pivot(
        self, config: VirtualConfiguration, counts: np.ndarray
    ) -> tuple[int, int]:
        """Min-max stress pivot given the flat counts at first use.

        Candidates are scanned in raster order and ties break towards
        lower totals then earlier cells, matching the original scalar
        double loop.
        """
        footprints = candidate_footprints(config, self._raster, self.geometry)
        best = min_stress_index(counts, footprints)
        return (int(self._raster[best, 0]), int(self._raster[best, 1]))

    def describe(self) -> str:
        return f"static_remap({len(self._pivots)} frozen pivots)"
