"""Utilization-aware configuration allocation — the paper's contribution.

A *virtual configuration* produced by the DBT is anchored at origin
``(0, 0)``. Each launch, an :class:`AllocationPolicy` chooses the
*pivot* — the physical cell where the virtual origin lands — and the
:class:`ConfigurationAllocator` translates every op by that pivot with
wrap-around in both axes (Fig. 3), recording per-FU stress in a
:class:`UtilizationTracker`. Batched, the policy plans a *whole launch
sequence* in one call, against a private copy of the stress counts
(see :mod:`repro.core.policy` for the two-hook protocol).

Policies:

* :class:`BaselinePolicy` — pivot fixed at ``(0, 0)``: the traditional
  aging-unaware allocation (paper baseline).
* :class:`RotationPolicy` — the proposed approach: the pivot advances
  one step along a fabric-covering movement pattern per launch.
* :class:`RandomPolicy` — uniformly random pivots (upper bound on
  balancing without hardware pattern support).
* :class:`StressAwarePolicy` — the paper's future-work variant: picks
  the pivot that minimises the maximum accumulated stress.
"""

from repro.core.allocator import ConfigurationAllocator, PhysicalPlacement
from repro.core.patterns import (
    MOVEMENT_PATTERNS,
    column_snake_pattern,
    diagonal_pattern,
    movement_pattern,
    raster_pattern,
    snake_pattern,
)
from repro.core.policy import (
    PLAN_GRANULARITIES,
    AllocationPolicy,
    ScheduleView,
    available_policies,
    make_policy,
)
from repro.core.random_policy import RandomPolicy
from repro.core.rotation import RotationPolicy
from repro.core.static import BaselinePolicy
from repro.core.static_remap import StaticRemapPolicy
from repro.core.stress_aware import StressAwarePolicy
from repro.core.utilization import UtilizationTracker, Weighting

__all__ = [
    "AllocationPolicy",
    "BaselinePolicy",
    "ConfigurationAllocator",
    "MOVEMENT_PATTERNS",
    "PLAN_GRANULARITIES",
    "PhysicalPlacement",
    "RandomPolicy",
    "RotationPolicy",
    "ScheduleView",
    "StaticRemapPolicy",
    "StressAwarePolicy",
    "UtilizationTracker",
    "Weighting",
    "available_policies",
    "column_snake_pattern",
    "diagonal_pattern",
    "make_policy",
    "movement_pattern",
    "raster_pattern",
    "snake_pattern",
]
