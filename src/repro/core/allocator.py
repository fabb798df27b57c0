"""Physical allocation of virtual configurations onto the fabric.

The allocator is the run-time glue between the configuration cache and
the fabric: for every launch it asks the policy for a pivot, translates
all virtual cells by the pivot with wrap-around in both axes (the
circular-buffer behaviour enabled by the paper's hardware extensions)
and records the stressed physical cells in the utilization tracker.

Two entry points share one engine:

* :meth:`ConfigurationAllocator.allocate_batch` — the vectorized path.
  The policy plans the whole launch sequence as *schedule segments*
  (contiguous launch ranges with precomputed pivot arrays) through its
  :meth:`~repro.core.policy.AllocationPolicy.plan_segments` hook;
  stress accrual is *deferred*: launches accumulate in per-
  configuration groups and fold into the tracker with one
  ``np.add.at`` per configuration, flushed only at segment boundaries
  (and before any tracker read). The policy reads stress through a
  flushing tracker view, so every resumption of its plan generator
  observes exactly the counter state the scalar loop would have shown
  it. A policy that does not override ``plan_segments`` is planned
  one launch per segment through its ``next_pivot`` hook.
* :meth:`ConfigurationAllocator.allocate` — the scalar API, the
  engine's single-launch fast path (shared validation and tracker
  accounting, no per-launch numpy batch overhead). Property tests
  assert the two paths stay bit-identical.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.cgra.configuration import VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.core.policy import (
    AllocationPolicy,
    ScheduleView,
    candidate_footprints,
    iter_runs,
)
from repro.core.utilization import UtilizationTracker
from repro.errors import AllocationError


@dataclass(frozen=True)
class PhysicalPlacement:
    """Result of allocating one configuration launch.

    Attributes:
        pivot: physical cell where the virtual origin landed.
        cells: stressed physical cells (post wrap-around).
        config: the launched virtual configuration.
    """

    pivot: tuple[int, int]
    cells: tuple[tuple[int, int], ...]
    config: VirtualConfiguration


@dataclass(frozen=True)
class BatchPlacement:
    """Result of allocating a batch of configuration launches.

    Per-launch cell tuples are not materialised (a batch may hold
    millions of launches); :meth:`placement` reconstructs any single
    launch on demand.

    Attributes:
        geometry: fabric the batch was placed on.
        configs: launched configuration per batch slot.
        pivots: ``(n_launches, 2)`` chosen pivots.
        cycles: ``(n_launches,)`` recorded execution cycles.
    """

    geometry: FabricGeometry
    configs: tuple[VirtualConfiguration, ...]
    pivots: np.ndarray
    cycles: np.ndarray

    @property
    def n_launches(self) -> int:
        return len(self.configs)

    def placement(self, index: int) -> PhysicalPlacement:
        """Reconstruct the :class:`PhysicalPlacement` of one launch."""
        config = self.configs[index]
        pivot_row = int(self.pivots[index, 0])
        pivot_col = int(self.pivots[index, 1])
        rows, cols = self.geometry.rows, self.geometry.cols
        cells = tuple(
            ((row + pivot_row) % rows, (col + pivot_col) % cols)
            for row, col in config.cells
        )
        return PhysicalPlacement(
            pivot=(pivot_row, pivot_col), cells=cells, config=config
        )


#: Any single pivot suffices for the (pivot-independent) fold check.
_ORIGIN_PIVOT = np.zeros((1, 2), dtype=np.int64)


class _FlushingTrackerView:
    """Tracker proxy that folds deferred launches in before any read.

    The batched allocator postpones stress accrual so it can group
    launches by configuration; policies, however, must observe exactly
    the counters the scalar loop would have shown them. Every
    attribute access on this view first flushes the pending launches
    into the real tracker, then delegates — a policy that never reads
    the tracker (rotation, random, ...) never forces a flush.
    """

    __slots__ = ("_tracker", "_flush")

    def __init__(self, tracker: UtilizationTracker, flush) -> None:
        self._tracker = tracker
        self._flush = flush

    def __getattr__(self, name: str):
        # Only reached for non-slot names, i.e. every delegated read.
        self._flush()
        return getattr(self._tracker, name)


class ConfigurationAllocator:
    """Applies an allocation policy launch by launch or batch by batch."""

    def __init__(
        self,
        geometry: FabricGeometry,
        policy: AllocationPolicy,
        tracker: UtilizationTracker | None = None,
    ) -> None:
        self.geometry = geometry
        self.policy = policy
        self.tracker = tracker if tracker is not None else UtilizationTracker(geometry)
        policy.bind(geometry)
        self.launches = 0

    def allocate(
        self, config: VirtualConfiguration, cycles: int = 1
    ) -> PhysicalPlacement:
        """Place one launch of ``config`` and record its stress.

        Single-launch fast path of the batch engine: same validation,
        same policy protocol (the scalar ``next_pivot`` hook), same
        tracker accounting — ``allocate_batch([config])`` is
        bit-identical (property-tested) but pays fixed numpy batch
        overhead the simulator's launch-at-a-time walk should not.

        Args:
            config: the virtual configuration being launched.
            cycles: execution cycles of this launch (for cycle-weighted
                utilization).

        Raises:
            AllocationError: if the configuration does not fit the
                fabric (it was scheduled for a different geometry) or
                the policy returns an out-of-range pivot.
        """
        self._check_fit(config)
        pivot = self.policy.next_pivot(config, self.tracker)
        pivot_row, pivot_col = int(pivot[0]), int(pivot[1])
        if not self.geometry.contains(pivot_row, pivot_col):
            name = getattr(self.policy, "name", "?")
            raise AllocationError(
                f"policy {name!r} returned pivot {(pivot_row, pivot_col)} "
                f"outside {self.geometry}"
            )
        rows, cols = self.geometry.rows, self.geometry.cols
        cells = tuple(
            ((row + pivot_row) % rows, (col + pivot_col) % cols)
            for row, col in config.cells
        )
        if len(set(cells)) != len(cells):
            raise AllocationError(
                "wrap-around folded two ops onto one cell; configuration "
                "is wider or taller than the fabric"
            )
        self.tracker.record(config.start_pc, cells, cycles=cycles)
        self.launches += 1
        if obs.state.enabled:
            obs.count("allocator.scalar_launches")
        return PhysicalPlacement(
            pivot=(pivot_row, pivot_col), cells=cells, config=config
        )

    def allocate_batch(
        self,
        configs: Sequence[VirtualConfiguration],
        pivots: np.ndarray | Sequence[tuple[int, int]] | None = None,
        cycles: int | Sequence[int] | np.ndarray = 1,
    ) -> BatchPlacement:
        """Place a sequence of launches and record their stress.

        Args:
            configs: configurations in launch order (repeats allowed;
                consecutive repeats of the same object are vectorized
                as one run).
            pivots: optional ``(n_launches, 2)`` pivot overrides; when
                omitted the bound policy plans the sequence via its
                ``plan_segments`` hook.
            cycles: scalar or per-launch execution cycle counts.

        Raises:
            AllocationError: if any configuration does not fit the
                fabric, any pivot is outside it, or the policy's
                segment plans do not tile the sequence contiguously.
        """
        configs = tuple(configs)
        n_launches = len(configs)
        cycles_arr = self._cycles_array(cycles, n_launches)
        if pivots is not None:
            pivots = np.asarray(pivots, dtype=np.int64)
            if pivots.shape != (n_launches, 2):
                raise AllocationError(
                    f"pivots must have shape ({n_launches}, 2), "
                    f"got {pivots.shape}"
                )
        pivots_out = np.empty((n_launches, 2), dtype=np.int64)

        # Deferred stress accrual: runs append (config, pivots, cycles)
        # here; ``flush`` folds everything accumulated so far into the
        # tracker, grouped by configuration (one footprint translation
        # and one ``np.add.at`` per distinct config — integer accrual
        # commutes, so regrouping is exact). Policies read stress only
        # through the flushing view, which keeps interleaved sequences
        # bit-identical to the scalar loop while run-of-one launch
        # schedules skip almost all per-run numpy setup.
        pending: list[tuple[VirtualConfiguration, np.ndarray, np.ndarray]] = []
        checked_fit: set[int] = set()
        # Telemetry: one flag test per batch and per flush — nothing on
        # the per-launch path.
        if obs.state.enabled:
            obs.count("allocator.launches", n_launches)

        def flush() -> None:
            if not pending:
                return
            if obs.state.enabled:
                obs.count("allocator.flushes")
            groups: dict[int, list] = {}
            for config, run_pivots, run_cycles in pending:
                group = groups.get(id(config))
                if group is None:
                    groups[id(config)] = [config, [run_pivots], [run_cycles]]
                else:
                    group[1].append(run_pivots)
                    group[2].append(run_cycles)
            pending.clear()
            for config, pivot_runs, cycle_runs in groups.values():
                group_pivots = (
                    pivot_runs[0]
                    if len(pivot_runs) == 1
                    else np.concatenate(pivot_runs)
                )
                group_cycles = (
                    cycle_runs[0]
                    if len(cycle_runs) == 1
                    else np.concatenate(cycle_runs)
                )
                flat = candidate_footprints(
                    config, group_pivots, self.geometry
                )
                self.tracker.record_batch(
                    config.start_pc, flat, group_cycles
                )

        tracker_view = _FlushingTrackerView(self.tracker, flush)

        def check_fit_once(config: VirtualConfiguration) -> None:
            # Fit and wrap-around folding are both pivot-independent,
            # so one check at first sight covers every launch of the
            # config — and flush() can never raise, which keeps
            # ``launches`` and the tracker in agreement on any
            # mid-batch error path.
            if id(config) not in checked_fit:
                self._check_fit(config)
                self._check_no_fold(
                    config,
                    candidate_footprints(
                        config, _ORIGIN_PIVOT, self.geometry
                    ),
                )
                checked_fit.add(id(config))

        def record_runs(
            seg_pivots: np.ndarray, seg_start: int, seg_stop: int
        ) -> None:
            """Defer the segment's launches run by run, validating fit
            at first sight of each configuration."""
            for config, start, stop in iter_runs(configs, seg_start, seg_stop):
                check_fit_once(config)
                run_pivots = seg_pivots[start - seg_start : stop - seg_start]
                pending.append((config, run_pivots, cycles_arr[start:stop]))
                self.launches += stop - start

        batch_span = obs.span(
            "allocate.batch",
            policy=getattr(self.policy, "name", "?"),
            launches=n_launches,
        )
        try:
            batch_span.__enter__()
            if pivots is not None:
                self._check_pivots(pivots, "explicit pivots argument")
                pivots_out[:] = pivots
                record_runs(pivots, 0, n_launches)
            elif n_launches > 0:
                origin = f"policy {getattr(self.policy, 'name', '?')!r}"
                schedule = ScheduleView(configs, cycles_arr)
                planned = 0
                for plan in self.policy.plan_segments(schedule, tracker_view):
                    if obs.state.enabled:
                        obs.count("allocator.segments")
                    seg_pivots = np.asarray(plan.pivots, dtype=np.int64)
                    self._check_plan(plan, seg_pivots, planned, n_launches, origin)
                    self._check_pivots(seg_pivots, origin)
                    pivots_out[plan.start : plan.stop] = seg_pivots
                    record_runs(seg_pivots, plan.start, plan.stop)
                    planned = plan.stop
                if planned != n_launches:
                    raise AllocationError(
                        f"{origin} planned segments covering only "
                        f"{planned} of {n_launches} launches"
                    )
        finally:
            # Keep the allocator's observable state consistent even
            # when a segment fails validation (or a policy hook
            # raises): the runs accepted before the error are
            # recorded, so ``launches`` and the tracker agree. On
            # success this is the ordinary final flush.
            flush()
            batch_span.__exit__(None, None, None)
        return BatchPlacement(
            geometry=self.geometry,
            configs=configs,
            pivots=pivots_out,
            cycles=cycles_arr,
        )

    # -- validation helpers ------------------------------------------------

    @staticmethod
    def _check_plan(
        plan, seg_pivots: np.ndarray, expected_start: int,
        n_launches: int, origin: str,
    ) -> None:
        """Segment plans must tile the sequence contiguously from the
        front, each carrying one pivot row per covered launch."""
        if plan.start != expected_start or plan.stop > n_launches:
            raise AllocationError(
                f"{origin} yielded segment [{plan.start}, {plan.stop}) "
                f"out of order; expected the next segment to start at "
                f"{expected_start} (schedule has {n_launches} launches)"
            )
        if plan.stop < plan.start:
            raise AllocationError(
                f"{origin} yielded negative-length segment "
                f"[{plan.start}, {plan.stop})"
            )
        if seg_pivots.shape != (plan.stop - plan.start, 2):
            raise AllocationError(
                f"{origin} segment [{plan.start}, {plan.stop}) pivots "
                f"must have shape ({plan.stop - plan.start}, 2), got "
                f"{seg_pivots.shape}"
            )

    @staticmethod
    def _cycles_array(
        cycles: int | Sequence[int] | np.ndarray, n_launches: int
    ) -> np.ndarray:
        arr = np.asarray(cycles, dtype=np.int64)
        if arr.ndim == 0:
            return np.full(n_launches, int(arr), dtype=np.int64)
        if arr.shape != (n_launches,):
            raise AllocationError(
                f"cycles must be scalar or length {n_launches}, "
                f"got shape {arr.shape}"
            )
        return arr

    def _check_fit(self, config: VirtualConfiguration) -> None:
        if (
            config.geometry_rows > self.geometry.rows
            or config.geometry_cols > self.geometry.cols
        ):
            raise AllocationError(
                f"configuration for {config.geometry_rows}x"
                f"{config.geometry_cols} grid cannot launch on {self.geometry}"
            )

    def _check_pivots(self, pivots: np.ndarray, origin: str) -> None:
        rows, cols = self.geometry.rows, self.geometry.cols
        in_range = (
            (pivots[:, 0] >= 0)
            & (pivots[:, 0] < rows)
            & (pivots[:, 1] >= 0)
            & (pivots[:, 1] < cols)
        )
        if not in_range.all():
            bad = pivots[int(np.flatnonzero(~in_range)[0])]
            pivot = (int(bad[0]), int(bad[1]))
            raise AllocationError(
                f"{origin} returned pivot {pivot} outside {self.geometry}"
            )

    def _check_no_fold(
        self, config: VirtualConfiguration, flat: np.ndarray
    ) -> None:
        # Wrap-around folding is pivot-independent (two cells collide
        # iff their coordinate deltas are multiples of the fabric
        # shape), so checking any single launch covers the whole run.
        if len(np.unique(flat[0])) != flat.shape[1]:
            raise AllocationError(
                "wrap-around folded two ops onto one cell; configuration "
                "is wider or taller than the fabric"
            )
