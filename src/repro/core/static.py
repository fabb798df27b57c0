"""Baseline aging-unaware allocation: pivot fixed at the origin."""

from __future__ import annotations

import numpy as np

from repro.cgra.configuration import VirtualConfiguration
from repro.core.policy import AllocationPolicy, register_policy


@register_policy
class BaselinePolicy(AllocationPolicy):
    """Traditional allocation: every launch lands at ``(0, 0)``.

    Combined with the greedy scheduler this reproduces the utilization
    bias of Fig. 1 — the top-left FU is stressed by every configuration
    while the bottom-right corner stays nearly idle.
    """

    name = "baseline"
    plan_granularity = "schedule"

    def next_pivot(self, config: VirtualConfiguration, counts) -> tuple[int, int]:
        return (0, 0)

    def plan_pivots(self, schedule, counts):
        """Every launch at the origin."""
        return np.zeros((schedule.n_launches, 2), dtype=np.int64)
