"""Random-pivot allocation (reference point, not a hardware proposal).

The paper notes that supporting fully random allocations "may severely
impact performance" with a complex interconnect; on the TransRec fabric
the wrap-around extensions make any pivot equally cheap, so a seeded
random policy serves as a statistical upper bound for balancing in
ablation studies.
"""

from __future__ import annotations

import random

import numpy as np

from repro.cgra.configuration import VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.core.policy import AllocationPolicy, SegmentPlan, register_policy


@register_policy
class RandomPolicy(AllocationPolicy):
    """Uniformly random pivot per launch (deterministic under ``seed``)."""

    name = "random"
    seedable = True
    plan_granularity = "schedule"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def bind(self, geometry: FabricGeometry) -> None:
        super().bind(geometry)
        self._rng = random.Random(self.seed)

    def next_pivot(self, config: VirtualConfiguration, tracker) -> tuple[int, int]:
        return (
            self._rng.randrange(self.geometry.rows),
            self._rng.randrange(self.geometry.cols),
        )

    def plan_segments(self, schedule, tracker):
        """One whole-schedule segment on the scalar RNG stream."""
        # Draws stay on the scalar ``random.Random`` stream (not a
        # numpy generator) so batched and scalar sequences are
        # bit-identical for the same seed.
        count = schedule.n_launches
        rows, cols = self.geometry.rows, self.geometry.cols
        randrange = self._rng.randrange
        pivots = np.empty((count, 2), dtype=np.int64)
        for index in range(count):
            pivots[index, 0] = randrange(rows)
            pivots[index, 1] = randrange(cols)
        yield SegmentPlan(start=0, stop=count, pivots=pivots)

    def describe(self) -> str:
        return f"random(seed={self.seed})"
