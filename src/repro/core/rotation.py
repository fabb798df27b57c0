"""The proposed utilization-aware allocation: pattern-driven rotation.

One hardware counter steps through a fabric-covering movement pattern;
each configuration launch reads the counter as its pivot and advances
it (Section III: "we move the position of the configuration pivot for
each new execution following the pattern ... which covers all of the
reconfigurable fabric"). Because the pivot cycles over every cell, each
virtual cell's stress is spread across all ``W x L`` physical cells and
per-FU utilization converges to the fabric-average occupancy.
"""

from __future__ import annotations

import numpy as np

from repro.cgra.configuration import VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.core.patterns import movement_pattern
from repro.core.policy import AllocationPolicy, register_policy


@register_policy
class RotationPolicy(AllocationPolicy):
    """Move the pivot one pattern step per configuration launch.

    Args:
        pattern: movement pattern name (see
            :data:`repro.core.patterns.MOVEMENT_PATTERNS`).
        stride: pattern steps advanced per launch. The paper's hardware
            uses 1; other strides co-prime with the pattern length give
            the same coverage with different short-term interleaving.
    """

    name = "rotation"
    plan_granularity = "schedule"

    def __init__(self, pattern: str = "snake", stride: int = 1) -> None:
        self.pattern_name = pattern
        self.stride = stride
        self._pattern: list[tuple[int, int]] = []
        self._pattern_array = np.empty((0, 2), dtype=np.int64)
        self._position = 0

    def bind(self, geometry: FabricGeometry) -> None:
        super().bind(geometry)
        self._pattern = movement_pattern(
            self.pattern_name, geometry.rows, geometry.cols
        )
        self._pattern_array = np.asarray(self._pattern, dtype=np.int64)
        self._position = 0

    def next_pivot(self, config: VirtualConfiguration, counts) -> tuple[int, int]:
        pivot = self._pattern[self._position]
        self._position = (self._position + self.stride) % len(self._pattern)
        return pivot

    def plan_pivots(self, schedule, counts):
        """The hardware counter never reads stress: one strided gather
        from the pattern covers the whole schedule."""
        count = schedule.n_launches
        length = len(self._pattern)
        positions = (
            self._position + self.stride * np.arange(count, dtype=np.int64)
        ) % length
        self._position = int(
            (self._position + self.stride * count) % length
        )
        return self._pattern_array[positions]

    def describe(self) -> str:
        return f"rotation({self.pattern_name}, stride={self.stride})"
