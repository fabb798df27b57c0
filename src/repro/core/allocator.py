"""Physical allocation of virtual configurations onto the fabric.

The allocator is the run-time glue between the configuration cache and
the fabric: for every launch it asks the policy for a pivot, translates
all virtual cells by the pivot with wrap-around in both axes (the
circular-buffer behaviour enabled by the paper's hardware extensions)
and records the stressed physical cells in the utilization tracker.

Two entry points share one engine:

* :meth:`ConfigurationAllocator.allocate_batch` — the vectorized path.
  The launch sequence is indexed by unit identity
  (:func:`~repro.core.policy.unit_column`; a
  :class:`~repro.system.schedule.LaunchSchedule` carries the columns
  and hands them to :meth:`ConfigurationAllocator.allocate_indexed`).
  The policy plans the sequence as *schedule segments* (contiguous
  launch ranges with precomputed pivot arrays) through its
  :meth:`~repro.core.policy.AllocationPolicy.plan_segments` hook.
  Stress accrual is *deferred*: accepted segments only extend a launch
  range, and a flush folds the range into the tracker as a histogram —
  one ``np.bincount`` over ``unit * n_cells + pivot`` keys gives the
  distinct (unit, pivot) pairs with their launch counts and cycle sums,
  one gather translates those pairs' cells, and two weighted
  ``np.bincount`` calls add executions and cycles. The translation is
  the batch's :class:`~repro.core.policy.FoldTables`, built once per
  batch from each unit's memoised row and handed to the policy on its
  :class:`~repro.core.policy.ScheduleView`. The fit is checked once
  per unit and raised at the first launch of a unit that does not
  fit. Flushes happen at the end of the batch and before any tracker
  read: a policy that re-enters mid-batch (static_remap, custom
  planners) reads stress through a flushing tracker view, so every
  resumption of its plan generator observes exactly the counter state
  the per-launch loop would have shown it; stress_aware reads the
  tracker once and plans the batch as one segment. A policy that does
  not override ``plan_segments`` is planned one launch per segment
  through its ``next_pivot`` hook.
* :meth:`ConfigurationAllocator.allocate` — one launch: the policy's
  ``next_pivot`` hook picks the pivot from the current tracker and the
  launch is folded in as a one-launch batch with that pivot. A loop of
  it is the reference the batch path is property-tested against.

Consecutive batches on one allocator equal one batch of the
concatenated launches, so a caller may defer launches and fold them
whenever it next reads the tracker: the stress-coupled walk
(:func:`~repro.system.schedule.compute_schedule` with an allocator)
does so each time its mapper reads the stress map.

Both paths take integral, non-negative cycle weights, and a batch's
weights must sum below :data:`MAX_BATCH_CYCLES`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.cgra.configuration import VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.core.policy import (
    AllocationPolicy,
    FoldTables,
    ScheduleView,
    unit_column,
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
        rows = ((config.cell_rows + pivot_row) % self.geometry.rows).tolist()
        cols = ((config.cell_cols + pivot_col) % self.geometry.cols).tolist()
        cells = tuple(zip(rows, cols))
        return PhysicalPlacement(
            pivot=(pivot_row, pivot_col), cells=cells, config=config
        )


#: Upper bound (exclusive) on a batch's summed cycle weights: the fold
#: adds cycles as float64 ``np.bincount`` weights, which count exactly
#: only below 2**53.
MAX_BATCH_CYCLES = 2**53

#: The unit-index column of a one-launch batch.
_ONE_LAUNCH = np.zeros(1, dtype=np.int32)
_ONE_LAUNCH.flags.writeable = False


class _BatchFold:
    """Deferred stress accrual of one batch.

    The allocator marks launches accepted segment by segment
    (:meth:`accept`); :meth:`flush` folds the contiguous range accepted
    since the previous flush into the tracker as one (unit, pivot)
    histogram, translated by the batch's
    :class:`~repro.core.policy.FoldTables` (None for an empty batch).
    The fit is pivot-independent, so the tables carry one verdict per
    unit; :meth:`accept` stops at the first launch of a unit that does
    not fit, which keeps ``launches`` and the tracker equal to the
    per-launch loop's on every error path.
    """

    def __init__(
        self,
        tables: FoldTables | None,
        tracker: UtilizationTracker,
        units: Sequence[VirtualConfiguration],
        unit_index: np.ndarray,
        pivots: np.ndarray,
        cycles: np.ndarray,
    ) -> None:
        self.tables = tables
        self.tracker = tracker
        self.units = units
        self.unit_index = unit_index
        self.pivots = pivots
        self.cycles = cycles
        self.accepted = 0
        self.folded = 0
        #: First launch whose unit does not fit (``n_launches`` when
        #: every unit fits).
        self.first_invalid = len(unit_index)
        if not units:
            return
        if not tables.fits.all():
            self.first_invalid = int(np.argmax(~tables.fits[unit_index]))

        # Footprint keys (start PCs) numbered in first-launch order;
        # ``keys_through[u]`` counts the keys of units ``0..u``, which
        # are exactly the keys launched before unit ``u + 1``.
        key_ids: dict[int, int] = {}
        unit_key = [
            key_ids.setdefault(unit.start_pc, len(key_ids)) for unit in units
        ]
        self.keys = list(key_ids)
        self.unit_key = np.asarray(unit_key, dtype=np.int64)
        self.keys_through = (np.maximum.accumulate(self.unit_key) + 1).tolist()
        self.key_rows = np.zeros(len(self.keys), dtype=np.int64)
        self.unit_rows = self.key_rows[self.unit_key]
        self.registered = 0

    def accept(self, start: int, stop: int) -> VirtualConfiguration | None:
        """Mark launches ``[start, stop)`` placed, up to the first
        launch of a unit that does not fit; return that unit, or None
        when the whole range is placed."""
        self.accepted = min(stop, self.first_invalid)
        if self.accepted < stop:
            return self.units[self.unit_index[self.accepted]]
        return None

    def flush(self) -> None:
        """Fold the launches accepted since the last flush."""
        start, stop = self.folded, self.accepted
        if start == stop:
            return
        self.folded = stop
        if obs.state.enabled:
            obs.count("allocator.flushes")
        tables = self.tables
        n_cells = tables.geometry.n_cells
        pivots = self.pivots[start:stop]
        keys = np.multiply(
            self.unit_index[start:stop], n_cells, dtype=np.int64
        )
        keys += pivots[:, 0] * tables.geometry.cols
        keys += pivots[:, 1]
        counts = np.bincount(keys)
        pairs = np.flatnonzero(counts)
        busy = np.bincount(keys, weights=self.cycles[start:stop])[pairs]
        counts = counts[pairs]
        units, pair_pivots = np.divmod(pairs, n_cells)
        cells = tables.cells(units, pair_pivots)
        flat = cells.reshape(-1)
        # One (pairs, width) weight buffer, scaled in place: a flush of
        # a whole batch may hold thousands of pairs.
        weights = tables.real[units]
        weights *= counts[:, None]
        executions = np.bincount(flat, weights.reshape(-1), n_cells)
        np.take(tables.real, units, axis=0, out=weights)
        weights *= busy[:, None]
        cycles = np.bincount(flat, weights.reshape(-1), n_cells)
        n_keys = self.keys_through[units.max()]
        if n_keys > self.registered:
            self.key_rows[self.registered : n_keys] = (
                self.tracker.footprint_rows(self.keys[self.registered : n_keys])
            )
            self.registered = n_keys
            self.unit_rows = self.key_rows[self.unit_key]
        self.tracker.accrue(
            executions.astype(np.int64),
            cycles.astype(np.int64),
            stop - start,
            int(busy.sum()),
            self.unit_rows[units][:, None],
            cells,
        )


class _FlushingTrackerView:
    """Tracker proxy that folds deferred launches in before any read.

    The batched allocator postpones stress accrual so it can fold whole
    launch ranges at once; policies, however, must observe exactly
    the counters the per-launch loop would have shown them. Every
    attribute access on this view first flushes the pending launches
    into the real tracker, then delegates — a policy that never reads
    the tracker (rotation, random, ...) never forces a flush, and
    stress_aware reads it once, before any launch of the batch is
    pending.
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

    def __init__(self, geometry: FabricGeometry, policy: AllocationPolicy) -> None:
        self.geometry = geometry
        self.policy = policy
        self.tracker = UtilizationTracker(geometry)
        policy.bind(geometry)
        self.launches = 0

    def allocate(
        self, config: VirtualConfiguration, cycles: int = 1
    ) -> PhysicalPlacement:
        """Place one launch of ``config`` and record its stress.

        The per-launch form of the policy protocol: the policy's
        ``next_pivot`` hook picks the pivot from the current tracker,
        and the launch is recorded by :meth:`allocate_batch` with that
        pivot, so both entry points share one validation and one fold.
        The cycle weight and the fit are checked before ``next_pivot``
        runs, so a launch rejected for either leaves the policy as it
        was.

        Args:
            config: the virtual configuration being launched.
            cycles: execution cycles of this launch (for cycle-weighted
                utilization): an integral, non-negative weight below
                :data:`MAX_BATCH_CYCLES`.

        Raises:
            AllocationError: if the configuration does not fit the
                fabric (it was scheduled for a different geometry),
                ``cycles`` is not a valid weight, or the policy returns
                an out-of-range pivot.
        """
        if type(cycles) is not int or not 0 <= cycles < MAX_BATCH_CYCLES:
            cycles = int(self._cycles_array(cycles, 1)[0])
        self._check_fit(config)
        pivot = self.policy.next_pivot(config, self.tracker)
        pivots = np.asarray([pivot], dtype=np.int64)
        if pivots.shape == (1, 2):
            # Name the policy; a malformed pivot fails the batch's
            # shape check instead.
            self._check_pivots(
                pivots, f"policy {getattr(self.policy, 'name', '?')!r}"
            )
        batch = self.allocate_indexed(
            (config,), (config,), _ONE_LAUNCH, pivots=pivots, cycles=cycles
        )
        return batch.placement(0)

    def allocate_batch(
        self,
        configs: Sequence[VirtualConfiguration],
        pivots: np.ndarray | Sequence[tuple[int, int]] | None = None,
        cycles: int | Sequence[int] | np.ndarray = 1,
    ) -> BatchPlacement:
        """Place a sequence of launches and record their stress.

        Args:
            configs: configurations in launch order (repeats allowed).
            pivots: optional ``(n_launches, 2)`` pivot overrides; when
                omitted the bound policy plans the sequence via its
                ``plan_segments`` hook.
            cycles: scalar or per-launch execution cycle counts:
                integral and non-negative, summing below
                :data:`MAX_BATCH_CYCLES`.

        Raises:
            AllocationError: if any configuration does not fit the
                fabric, any pivot is outside it, a cycle weight is
                invalid, or the policy's segment plans do not tile the
                sequence contiguously.
        """
        configs = tuple(configs)
        units, unit_index = unit_column(configs)
        return self.allocate_indexed(configs, units, unit_index, pivots, cycles)

    def allocate_indexed(
        self,
        configs: tuple[VirtualConfiguration, ...],
        units: Sequence[VirtualConfiguration],
        unit_index: np.ndarray,
        pivots: np.ndarray | Sequence[tuple[int, int]] | None = None,
        cycles: int | Sequence[int] | np.ndarray = 1,
    ) -> BatchPlacement:
        """:meth:`allocate_batch` of a sequence already indexed by
        :func:`~repro.core.policy.unit_column` (``units`` and
        ``unit_index`` as it returns them for ``configs``)."""
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
        tables = FoldTables(self.geometry, units) if units else None
        fold = _BatchFold(
            tables, self.tracker, units, unit_index, pivots_out, cycles_arr
        )
        tracker_view = _FlushingTrackerView(self.tracker, fold.flush)
        # Telemetry: one flag test per batch and per flush — nothing on
        # the per-launch path.
        if obs.state.enabled:
            obs.count("allocator.launches", n_launches)

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
                self._accept(fold, 0, n_launches)
            elif n_launches > 0:
                origin = f"policy {getattr(self.policy, 'name', '?')!r}"
                schedule = ScheduleView(
                    configs, cycles_arr, unit_index, tables
                )
                planned = 0
                for plan in self.policy.plan_segments(schedule, tracker_view):
                    if obs.state.enabled:
                        obs.count("allocator.segments")
                    seg_pivots = np.asarray(plan.pivots, dtype=np.int64)
                    self._check_plan(plan, seg_pivots, planned, n_launches, origin)
                    self._check_pivots(seg_pivots, origin)
                    pivots_out[plan.start : plan.stop] = seg_pivots
                    self._accept(fold, plan.start, plan.stop)
                    planned = plan.stop
                if planned != n_launches:
                    raise AllocationError(
                        f"{origin} planned segments covering only "
                        f"{planned} of {n_launches} launches"
                    )
        finally:
            # Keep the allocator's observable state consistent even
            # when a segment fails validation (or a policy hook
            # raises): the launches accepted before the error are
            # recorded, so ``launches`` and the tracker agree. On
            # success this is the ordinary final flush.
            fold.flush()
            self.launches += fold.accepted
            batch_span.__exit__(None, None, None)
        placed_cycles = cycles_arr.view()
        placed_cycles.flags.writeable = False
        return BatchPlacement(
            geometry=self.geometry,
            configs=configs,
            pivots=pivots_out,
            cycles=placed_cycles,
        )

    # -- validation helpers ------------------------------------------------

    def _accept(self, fold: _BatchFold, start: int, stop: int) -> None:
        """Accept a segment, raising the fit error at the first launch
        of a unit that does not fit."""
        unit = fold.accept(start, stop)
        if unit is not None:
            self._check_fit(unit)  # raises: ``accept`` stops only there

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
        """Per-launch int64 cycle weights, validated.

        Weights must be integral (an integer dtype, or floats without a
        fractional part) and non-negative, and their exact sum must
        stay below :data:`MAX_BATCH_CYCLES`.
        """
        arr = np.asarray(cycles)
        if arr.ndim == 0:
            arr = np.full(n_launches, arr)
        elif arr.shape != (n_launches,):
            raise AllocationError(
                f"cycles must be scalar or length {n_launches}, "
                f"got shape {arr.shape}"
            )
        if arr.dtype.kind == "f":
            fractional = ~np.isfinite(arr) | (arr != np.trunc(arr))
            if fractional.any():
                bad = arr[int(np.argmax(fractional))]
                raise AllocationError(
                    f"cycle weights must be integral, got {bad!r}"
                )
        elif arr.dtype.kind not in "iu":
            raise AllocationError(
                f"cycle weights must be integers, got dtype {arr.dtype}"
            )
        if n_launches == 0:
            return arr.astype(np.int64)
        if arr.min() < 0:
            bad = arr[int(np.argmax(arr < 0))]
            raise AllocationError(
                f"cycle weights must be non-negative, got {bad!r}"
            )
        if arr.dtype.kind == "f":
            total = math.fsum(arr.tolist())
        elif int(arr.max()) * n_launches < MAX_BATCH_CYCLES:
            total = int(arr.sum())
        else:
            # Python ints: no int64 wrap-around on huge weights.
            total = sum(arr.tolist())
        if total >= MAX_BATCH_CYCLES:
            raise AllocationError(
                f"cycle weights sum to {total:.0f}, at or above the "
                f"2**53 the stress fold counts exactly"
            )
        return arr.astype(np.int64, copy=False)

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
