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
min-max selection happens in numpy. Batched, ``plan_segments`` reads
the tracker once and plans the whole batch as one segment against a
private copy of the counts, adding each re-search window's launches
to the copy through the allocator's own translation tables, so a whole
batch is bit-identical to the scalar ``next_pivot`` loop it replaces.
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
        self._pattern_cells = np.empty(0, dtype=np.int64)
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
        # Flat fabric cell of every pattern pivot, the pivot form the
        # fold's tables take.
        self._pattern_cells = (
            self._pattern_array[:, 0] * geometry.cols
            + self._pattern_array[:, 1]
        )
        self._position = 0
        self._launches = 0
        self._footprint_memo = {}

    def next_pivot(self, config: VirtualConfiguration, tracker) -> tuple[int, int]:
        self._launches += 1
        if self._launches % self.interval == 1 or self.interval == 1:
            self._position = self._best_position(
                config, np.asarray(tracker.execution_counts).reshape(-1)
            )
        else:
            self._position = (self._position + 1) % len(self._pattern)
        return self._pattern[self._position]

    def plan_segments(self, schedule, tracker):
        """The whole batch as one segment, planned against a private
        copy of the tracker's counts.

        The batch splits into *windows*: each opens on a search launch
        (counter ≡ 1 mod ``interval``; every launch when the interval
        is 1) and follows the pattern up to the next one; a batch that
        resumes mid-interval first follows the pattern up to its first
        search. The tracker is read once, before any launch of the
        batch is folded; after each window but the last, the window's
        per-cell launch counts — translated by the fold's own
        :class:`~repro.core.policy.FoldTables` — are added to the
        copy, so every search sees exactly the counts the per-launch
        loop would have shown it.
        """
        n_launches = schedule.n_launches
        if n_launches == 0:
            return
        interval = self.interval
        length = len(self._pattern)
        configs = schedule.configs
        unit_index = schedule.unit_index
        tables = schedule.fold_tables(self.geometry)
        counts = np.array(tracker.execution_counts, dtype=np.int64).reshape(-1)
        pattern_cells = self._pattern_cells
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
                position = self._best_position(configs[start], counts)
            window = positions[start:stop]
            np.add(position, steps[: stop - start], out=window)
            np.remainder(window, length, out=window)
            if stop < n_launches:
                window_counts = tables.launch_counts(
                    unit_index[start:stop], pattern_cells[window]
                )
                np.add(counts, window_counts, out=counts, casting="unsafe")
            position = int(window[-1])
        self._position = position
        self._launches += n_launches
        yield SegmentPlan(
            start=0, stop=n_launches, pivots=self._pattern_array[positions]
        )

    def _best_position(
        self, config: VirtualConfiguration, counts: np.ndarray
    ) -> int:
        """Pattern position of the pivot minimising the max stress over
        the cells ``config`` would touch, given flat per-cell ``counts``.

        Ties break towards lower current totals, then pattern order, so
        behaviour is deterministic.
        """
        return min_stress_index(counts, self._pattern_footprints(config))

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
