"""Baseline aging-unaware allocation: pivot fixed at the origin."""

from __future__ import annotations

import numpy as np

from repro.cgra.configuration import VirtualConfiguration
from repro.core.policy import AllocationPolicy, SegmentPlan, register_policy


@register_policy
class BaselinePolicy(AllocationPolicy):
    """Traditional allocation: every launch lands at ``(0, 0)``.

    Combined with the greedy scheduler this reproduces the utilization
    bias of Fig. 1 — the top-left FU is stressed by every configuration
    while the bottom-right corner stays nearly idle.
    """

    name = "baseline"
    plan_granularity = "schedule"

    def next_pivot(self, config: VirtualConfiguration, tracker) -> tuple[int, int]:
        return (0, 0)

    def plan_segments(self, schedule, tracker):
        """One all-origin segment covers any schedule."""
        count = schedule.n_launches
        yield SegmentPlan(
            start=0, stop=count, pivots=np.zeros((count, 2), dtype=np.int64)
        )
