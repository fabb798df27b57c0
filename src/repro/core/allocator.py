"""Physical allocation of virtual configurations onto the fabric.

The allocator is the run-time glue between the configuration cache and
the fabric: for every launch it asks the policy for a pivot, translates
all virtual cells by the pivot with wrap-around in both axes (the
circular-buffer behaviour enabled by the paper's hardware extensions)
and records the stressed physical cells in the utilization tracker.

Two entry points share one fold:

* :meth:`ConfigurationAllocator.allocate_batch` — the vectorized path.
  The launch sequence is indexed by unit identity
  (:func:`~repro.core.policy.unit_column`; a
  :class:`~repro.system.schedule.LaunchSchedule` carries the columns
  and hands them to :meth:`ConfigurationAllocator.allocate_indexed`).
  The batch's :class:`~repro.core.policy.FoldTables` — each unit's
  memoised cell row plus the wrap-around lookup — are built once and
  give each unit's fit. The policy plans the launches before the first
  unit that does not fit in one
  :meth:`~repro.core.policy.AllocationPolicy.plan_pivots` call,
  against a private copy of the tracker's counts and with the same
  tables, handed over on a :class:`~repro.core.policy.ScheduleView`.
  The pivots are checked once, and the launches before the first
  failing one (a unit that does not fit, or a pivot off the fabric)
  fold into the tracker as one histogram: one ``np.bincount`` over
  ``unit * n_cells + pivot`` keys gives the distinct (unit, pivot)
  pairs with their launch counts and cycle sums, one gather translates
  those pairs' cells, and two weighted ``np.bincount`` calls add
  executions and cycles. The batch then raises the failing launch's
  error, so ``launches`` and the tracker agree with the per-launch
  loop's on every error path.
* :meth:`ConfigurationAllocator.allocate` — one launch: the policy's
  ``next_pivot`` hook picks the pivot from a read-only view of the
  tracker's counts, and the launch is folded as a one-launch
  histogram through fold tables built once per unit and allocator. A
  loop of it is the reference the batch path is property-tested
  against.

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
    pivot_pair,
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


class ConfigurationAllocator:
    """Applies an allocation policy launch by launch or batch by batch."""

    def __init__(self, geometry: FabricGeometry, policy: AllocationPolicy) -> None:
        self.geometry = geometry
        self.policy = policy
        self.tracker = UtilizationTracker(geometry)
        policy.bind(geometry)
        self.launches = 0
        # allocate's one-unit fold tables, per unit identity (the entry
        # holds the unit, so its id is not reused while it lives here).
        self._unit_tables: dict[
            int, tuple[VirtualConfiguration, FoldTables]
        ] = {}

    def allocate(
        self, config: VirtualConfiguration, cycles: int = 1
    ) -> PhysicalPlacement:
        """Place one launch of ``config`` and record its stress.

        The per-launch form of the policy protocol: the policy's
        ``next_pivot`` hook picks the pivot from a read-only view of
        the tracker's counts, the pivot is checked once, and the launch
        is folded as a batch's launches are. The cycle weight and the
        fit are checked before ``next_pivot`` runs, so a launch
        rejected for either leaves the policy as it was.

        Args:
            config: the virtual configuration being launched.
            cycles: execution cycles of this launch (for cycle-weighted
                utilization): an integral, non-negative weight below
                :data:`MAX_BATCH_CYCLES`.

        Raises:
            AllocationError: if the configuration does not fit the
                fabric (it was scheduled for a different geometry),
                ``cycles`` is not a valid weight, or the policy returns
                a pivot that is not a (row, col) pair on the fabric.
        """
        if type(cycles) is not int or not 0 <= cycles < MAX_BATCH_CYCLES:
            cycles = int(self._cycles_array(cycles, 1)[0])
        self._check_fit(config)
        row, col = pivot_pair(
            self.policy,
            self.policy.next_pivot(
                config, self.tracker.execution_counts.reshape(-1)
            ),
        )
        if not (0 <= row < self.geometry.rows and 0 <= col < self.geometry.cols):
            raise self._pivot_error(self._policy_origin(), (row, col))
        entry = self._unit_tables.get(id(config))
        if entry is None:
            entry = self._unit_tables[id(config)] = (
                config,
                FoldTables(self.geometry, (config,)),
            )
        batch = BatchPlacement(
            geometry=self.geometry,
            configs=(config,),
            pivots=np.array([[row, col]], dtype=np.int64),
            cycles=np.asarray([cycles], dtype=np.int64),
        )
        self._fold(
            entry[1], batch.configs, _ONE_LAUNCH, batch.pivots, batch.cycles
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
                ``plan_pivots`` hook.
            cycles: scalar or per-launch execution cycle counts:
                integral and non-negative, summing below
                :data:`MAX_BATCH_CYCLES`.

        Raises:
            AllocationError: if any configuration does not fit the
                fabric, any pivot is outside it, a cycle weight is
                invalid, or the policy's plan has the wrong shape. The
                launches before the first launch that does not fit or
                has a pivot outside the fabric are recorded first.
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
        origin = "explicit pivots argument"
        if pivots is not None:
            pivots = np.array(pivots, dtype=np.int64)
            if pivots.shape != (n_launches, 2):
                raise AllocationError(
                    f"pivots must have shape ({n_launches}, 2), "
                    f"got {pivots.shape}"
                )
        elif not n_launches:
            pivots = np.empty((0, 2), dtype=np.int64)
        with obs.span(
            "allocate.batch",
            policy=getattr(self.policy, "name", "?"),
            launches=n_launches,
        ):
            if n_launches:
                tables = FoldTables(self.geometry, units)
                # Launches before the first unit that does not fit.
                fitting = n_launches
                if not tables.fits.all():
                    fitting = int(np.argmax(~tables.fits[unit_index]))
                if pivots is None:
                    origin = self._policy_origin()
                    pivots = self._plan(
                        configs[:fitting], unit_index[:fitting], tables, origin
                    )
                placed = self._on_fabric(pivots[:fitting])
                self._fold(
                    tables,
                    units,
                    unit_index[:placed],
                    pivots[:placed],
                    cycles_arr[:placed],
                )
                if placed < fitting:
                    raise self._pivot_error(
                        origin, tuple(pivots[placed].tolist())
                    )
                if fitting < n_launches:
                    self._check_fit(units[unit_index[fitting]])  # raises
        placed_cycles = cycles_arr.view()
        placed_cycles.flags.writeable = False
        return BatchPlacement(
            geometry=self.geometry,
            configs=configs,
            pivots=pivots,
            cycles=placed_cycles,
        )

    def _plan(
        self,
        configs: tuple[VirtualConfiguration, ...],
        unit_index: np.ndarray,
        tables: FoldTables,
        origin: str,
    ) -> np.ndarray:
        """The policy's pivots for ``configs``, planned in one
        ``plan_pivots`` call against a private copy of the counts."""
        counts = np.array(self.tracker.execution_counts, dtype=np.int64)
        planned = self.policy.plan_pivots(
            ScheduleView(configs, unit_index, tables), counts.reshape(-1)
        )
        pivots = np.asarray(planned, dtype=np.int64)
        if pivots.shape != (len(configs), 2):
            raise AllocationError(
                f"{origin} planned pivots of shape {pivots.shape} for "
                f"{len(configs)} launches; expected ({len(configs)}, 2)"
            )
        return pivots

    def _fold(
        self,
        tables: FoldTables,
        units: Sequence[VirtualConfiguration],
        unit_index: np.ndarray,
        pivots: np.ndarray,
        cycles: np.ndarray,
    ) -> None:
        """Record launches — unit ``units[unit_index[i]]`` at
        ``pivots[i]`` with weight ``cycles[i]`` — in the tracker as one
        (unit, pivot) histogram translated by ``tables``."""
        n_launches = len(unit_index)
        if not n_launches:
            return
        if obs.state.enabled:
            obs.count("allocator.launches", n_launches)
            obs.count("allocator.folds")
        n_cells = tables.geometry.n_cells
        keys = np.multiply(unit_index, n_cells, dtype=np.int64)
        keys += pivots[:, 0] * tables.geometry.cols
        keys += pivots[:, 1]
        counts = np.bincount(keys)
        pairs = np.flatnonzero(counts)
        busy = np.bincount(keys, weights=cycles)[pairs]
        counts = counts[pairs]
        pair_units, pair_pivots = np.divmod(pairs, n_cells)
        cells = tables.cells(pair_units, pair_pivots)
        flat = cells.reshape(-1)
        # One (pairs, width) weight buffer, scaled in place: a whole
        # batch may hold thousands of pairs.
        weights = tables.real[pair_units]
        weights *= counts[:, None]
        executions = np.bincount(flat, weights.reshape(-1), n_cells)
        np.take(tables.real, pair_units, axis=0, out=weights)
        weights *= busy[:, None]
        busy_cells = np.bincount(flat, weights.reshape(-1), n_cells)
        # Units are numbered in first-launch order, so the launches hold
        # units 0..max and register their footprint keys (start PCs) in
        # the order the per-launch loop would.
        footprint_rows = np.asarray(
            self.tracker.footprint_rows(
                unit.start_pc for unit in units[: int(pair_units[-1]) + 1]
            ),
            dtype=np.int64,
        )
        self.tracker.accrue(
            executions.astype(np.int64),
            busy_cells.astype(np.int64),
            n_launches,
            int(busy.sum()),
            footprint_rows[pair_units][:, None],
            cells,
        )
        self.launches += n_launches

    # -- validation helpers ------------------------------------------------

    def _policy_origin(self) -> str:
        return f"policy {getattr(self.policy, 'name', '?')!r}"

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

    def _on_fabric(self, pivots: np.ndarray) -> int:
        """How many leading pivots lie on the fabric."""
        rows, cols = self.geometry.rows, self.geometry.cols
        off = (
            (pivots[:, 0] < 0)
            | (pivots[:, 0] >= rows)
            | (pivots[:, 1] < 0)
            | (pivots[:, 1] >= cols)
        )
        return int(np.argmax(off)) if off.any() else len(pivots)

    def _pivot_error(
        self, origin: str, pivot: tuple[int, int]
    ) -> AllocationError:
        return AllocationError(
            f"{origin} returned pivot {pivot} outside {self.geometry}"
        )
