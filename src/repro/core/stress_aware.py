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
min-max selection happens in numpy. Batched, ``plan_pivots`` plans the
whole batch against the allocator's private copy of the counts, adding
each re-search window's launches to it through the allocator's own
translation tables, so a whole batch is bit-identical to the scalar
``next_pivot`` loop it replaces.
"""

from __future__ import annotations

import numpy as np

from repro.cgra.configuration import VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.core.patterns import movement_pattern
from repro.core.policy import (
    AllocationPolicy,
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
        self._pattern_cells = np.empty(0, dtype=np.int64)
        self._position = 0
        self._launches = 0

    def bind(self, geometry: FabricGeometry) -> None:
        super().bind(geometry)
        self._pattern = movement_pattern(
            self.pattern_name, geometry.rows, geometry.cols
        )
        self._pattern_array = np.asarray(self._pattern, dtype=np.int64)
        # Flat fabric cell of every pattern pivot, the pivot form the
        # fold's tables take.
        self._pattern_cells = (
            self._pattern_array[:, 0] * geometry.cols
            + self._pattern_array[:, 1]
        )
        self._position = 0
        self._launches = 0

    def next_pivot(
        self, config: VirtualConfiguration, counts: np.ndarray
    ) -> tuple[int, int]:
        self._launches += 1
        if self._launches % self.interval == 1 or self.interval == 1:
            self._position = min_stress_index(
                counts, self._pattern_footprints(config)
            )
        else:
            self._position = (self._position + 1) % len(self._pattern)
        return self._pattern[self._position]

    def plan_pivots(self, schedule, counts):
        """The whole batch, planned against the private ``counts``.

        The batch splits into *windows*: each opens on a search launch
        (counter ≡ 1 mod ``interval``; every launch when the interval
        is 1) and follows the pattern up to the next one; a batch that
        resumes mid-interval first follows the pattern up to its first
        search. After each window but the last, the window's per-cell
        launch counts — translated by the fold's own
        :class:`~repro.core.policy.FoldTables` — are added to
        ``counts``, so every search sees exactly the counts the
        per-launch loop would have shown it. A unit's pattern
        footprints are built once per batch, at its first search.
        """
        n_launches = schedule.n_launches
        interval = self.interval
        length = len(self._pattern)
        configs = schedule.configs
        unit_index = schedule.unit_index
        pattern_cells = self._pattern_cells
        footprints: dict[int, np.ndarray] = {}
        steps = np.arange(min(interval, n_launches), dtype=np.int64)
        positions = np.empty(n_launches, dtype=np.int64)
        # Launch ``i`` of the batch carries counter ``launches + i + 1``,
        # so searches fall where ``launches + i`` is a multiple of the
        # interval.
        first_search = (-self._launches) % interval
        bounds = [0, *range(first_search, n_launches, interval), n_launches]
        position = self._position
        for start, stop in zip(bounds, bounds[1:]):
            if start == stop:
                continue
            if start < first_search:
                position = (position + 1) % length
            else:
                unit = int(unit_index[start])
                if unit not in footprints:
                    footprints[unit] = self._pattern_footprints(configs[start])
                position = min_stress_index(counts, footprints[unit])
            window = positions[start:stop]
            np.add(position, steps[: stop - start], out=window)
            np.remainder(window, length, out=window)
            if stop < n_launches:
                schedule.fold_tables(self.geometry).add_counts(
                    counts, unit_index[start:stop], pattern_cells[window]
                )
            position = int(window[-1])
        self._position = position
        self._launches += n_launches
        return self._pattern_array[positions]

    def _pattern_footprints(self, config: VirtualConfiguration) -> np.ndarray:
        """``config``'s stressed cells under every pattern pivot, in
        pattern order: the candidates of a search, whose ties break
        towards lower totals, then pattern order."""
        return candidate_footprints(config, self._pattern_array, self.geometry)

    def describe(self) -> str:
        return f"stress_aware(interval={self.interval})"
