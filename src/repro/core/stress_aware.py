"""Adaptive stress-aware allocation (the paper's future-work variant).

Section VI: "As a future work, we will implement the improved rotation
techniques and use run-time aging information to adapt the allocation
strategy dynamically." This policy does exactly that: it reads the
exact accumulated per-FU stress counts from the
:class:`UtilizationTracker` (the run-time aging information the paper
asks for) and chooses the pivot that minimises the resulting
worst-case stress.

A full ``W x L`` pivot search per launch is expensive, so the policy
re-optimises every ``interval`` launches and follows the fabric-covering
snake in between — a realistic duty cycle for a hardware controller.

The search itself is vectorized: every candidate pattern pivot's
stressed footprint is a row of one integer index matrix, and the
min-max selection happens in numpy. Batched, ``plan_segments`` plans
one segment per re-search window, so a whole batch is bit-identical to
the scalar ``next_pivot`` loop it replaces.
"""

from __future__ import annotations

import numpy as np

from repro.cgra.configuration import VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.core.patterns import movement_pattern
from repro.core.policy import (
    AllocationPolicy,
    SegmentPlan,
    candidate_footprints,
    min_stress_index,
    register_policy,
)


@register_policy
class StressAwarePolicy(AllocationPolicy):
    """Minimise worst-case accumulated stress with periodic re-search.

    Args:
        interval: launches between full pivot searches (1 = search on
            every launch).
        pattern: fallback movement pattern between searches.
    """

    name = "stress_aware"
    plan_granularity = "interval"

    def __init__(self, interval: int = 16, pattern: str = "snake") -> None:
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.interval = interval
        self.pattern_name = pattern
        self._pattern: list[tuple[int, int]] = []
        self._pattern_array = np.empty((0, 2), dtype=np.int64)
        self._pattern_index: dict[tuple[int, int], int] = {}
        self._position = 0
        self._launches = 0
        # (config, footprint-matrix) memo for the pivot search, keyed
        # by object id. The stored config reference keeps the object
        # alive, so a cached id can never be recycled; bounded because
        # a pipeline cycles through its configuration-cache working
        # set.
        self._footprint_memo: dict[int, tuple] = {}

    def bind(self, geometry: FabricGeometry) -> None:
        super().bind(geometry)
        self._pattern = movement_pattern(
            self.pattern_name, geometry.rows, geometry.cols
        )
        self._pattern_array = np.asarray(self._pattern, dtype=np.int64)
        self._pattern_index = {
            pivot: index for index, pivot in enumerate(self._pattern)
        }
        self._position = 0
        self._launches = 0
        self._footprint_memo = {}

    def next_pivot(self, config: VirtualConfiguration, tracker) -> tuple[int, int]:
        self._launches += 1
        if self._launches % self.interval == 1 or self.interval == 1:
            pivot = self._best_pivot(config, tracker.execution_counts)
            self._position = self._pattern_index[pivot]
            return pivot
        self._position = (self._position + 1) % len(self._pattern)
        return self._pattern[self._position]

    def plan_segments(self, schedule, tracker):
        """One segment per re-search window: each segment opens on a
        *search* launch (whose pivot needs the accumulated stress of
        every launch before it — the allocator folds the previous
        segment in before we read the tracker) and extends through the
        snake-following launches until the next search, which is a
        pure vectorized gather from the movement pattern. This is what
        closes the replay gap to the whole-schedule policies: the
        allocator's per-segment work is amortised over ``interval``
        launches instead of paid per launch.
        """
        n_launches = schedule.n_launches
        configs = schedule.configs
        length = len(self._pattern)
        index = 0
        while index < n_launches:
            self._launches += 1
            if self._launches % self.interval == 1 or self.interval == 1:
                # Search launch: reading the tracker flushes all
                # previously planned launches, so the candidate scan
                # sees exactly the scalar-loop counter state.
                pivot = self._best_pivot(
                    configs[index], tracker.execution_counts
                )
                self._position = self._pattern_index[pivot]
            else:
                self._position = (self._position + 1) % length
            # Snake-follow until the launch before the next search:
            # searches fire whenever the launch counter is ≡ 1 mod
            # interval, so (-launches) mod interval more launches pass
            # before the counter gets there again.
            follow = (-self._launches) % self.interval
            count = min(1 + follow, n_launches - index)
            positions = (self._position + np.arange(count)) % length
            pivots = self._pattern_array[positions]
            self._position = (self._position + count - 1) % length
            self._launches += count - 1
            yield SegmentPlan(
                start=index,
                stop=index + count,
                pivots=pivots,
            )
            index += count

    def _best_pivot(
        self, config: VirtualConfiguration, counts: np.ndarray
    ) -> tuple[int, int]:
        """Pivot minimising the max stress over the cells it would touch.

        Ties break towards lower current totals, then pattern order, so
        behaviour is deterministic.
        """
        best = min_stress_index(
            np.asarray(counts).reshape(-1), self._pattern_footprints(config)
        )
        return self._pattern[best]

    def _pattern_footprints(self, config: VirtualConfiguration) -> np.ndarray:
        """``config``'s stressed cells under every pattern pivot,
        memoised per configuration object (searches repeat over the
        pipeline's small configuration working set)."""
        entry = self._footprint_memo.get(id(config))
        if entry is None:
            if len(self._footprint_memo) >= 256:
                self._footprint_memo.clear()
            entry = (
                config,
                candidate_footprints(
                    config, self._pattern_array, self.geometry
                ),
            )
            self._footprint_memo[id(config)] = entry
        return entry[1]

    def describe(self) -> str:
        return f"stress_aware(interval={self.interval})"
