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
"""

from __future__ import annotations

import numpy as np

from repro.cgra.configuration import VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.core.policy import (
    AllocationPolicy,
    SegmentPlan,
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
        self, config: VirtualConfiguration, tracker
    ) -> tuple[int, int]:
        pivot = self._pivots.get(config.start_pc)
        if pivot is None:
            pivot = self._choose_pivot(config, tracker)
            self._pivots[config.start_pc] = pivot
        return pivot

    def plan_segments(self, schedule, tracker):
        """One segment per *remap epoch*: a new segment opens exactly
        at the first launch of a not-yet-frozen configuration, because
        choosing its pivot must observe the stress of every launch
        before it. Within an epoch all pivots are frozen, so the fill
        is a pure per-run tile — a schedule whose configurations are
        all known collapses to a single segment.
        """
        n_launches = schedule.n_launches
        pivots = np.empty((n_launches, 2), dtype=np.int64)
        segment_start = 0
        for config, start, stop in schedule.runs():
            pivot = self._pivots.get(config.start_pc)
            if pivot is None:
                if start > segment_start:
                    # Close the running epoch; the allocator records it
                    # before resuming us, so the tracker read below
                    # sees exactly the scalar-loop state at ``start``.
                    yield SegmentPlan(
                        start=segment_start,
                        stop=start,
                        pivots=pivots[segment_start:start],
                    )
                    segment_start = start
                pivot = self._choose_pivot(config, tracker)
                self._pivots[config.start_pc] = pivot
            pivots[start:stop] = pivot
        if segment_start < n_launches:
            yield SegmentPlan(
                start=segment_start,
                stop=n_launches,
                pivots=pivots[segment_start:],
            )

    def _choose_pivot(
        self, config: VirtualConfiguration, tracker
    ) -> tuple[int, int]:
        """Min-max stress pivot given the tracker state at first use.

        Candidates are scanned in raster order and ties break towards
        lower totals then earlier cells, matching the original scalar
        double loop.
        """
        footprints = candidate_footprints(config, self._raster, self.geometry)
        counts = np.asarray(tracker.execution_counts).reshape(-1)
        best = min_stress_index(counts, footprints)
        return (int(self._raster[best, 0]), int(self._raster[best, 1]))

    def describe(self) -> str:
        return f"static_remap({len(self._pivots)} frozen pivots)"
