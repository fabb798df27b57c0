"""Allocation-policy interface and registry.

A policy chooses the *pivot* of every configuration launch: the
physical cell where the configuration's virtual origin lands. It has
two hooks.

:meth:`AllocationPolicy.next_pivot` (required)
    the pivot of one upcoming launch, given the tracker's accumulated
    stress. :meth:`~repro.core.allocator.ConfigurationAllocator.allocate`
    calls it once per launch.
:meth:`AllocationPolicy.plan_segments` (optional)
    pivots for a whole launch sequence, planned as schedule segments.
    :meth:`~repro.core.allocator.ConfigurationAllocator.allocate_batch`
    drives it; replay and the stress-coupled walk place every launch
    this way. The base class plans one launch per segment through
    ``next_pivot``, which is exact for any policy; override it to plan
    many launches per segment.

``plan_segments`` consumes a :class:`ScheduleView` of the whole launch
sequence and yields :class:`SegmentPlan`\\ s covering it front to
back::

    def plan_segments(self, schedule, tracker):
        # schedule: ScheduleView (configs, runs(), n_launches,
        #           unit_index, fold_tables(geometry))
        # tracker: UtilizationTracker view; any read observes exactly
        #          the stress of every launch planned so far
        yield SegmentPlan(start=0, stop=schedule.n_launches, pivots=...)

Yield plans in order, contiguously from 0 to ``schedule.n_launches``;
``pivots`` is an ``(stop - start, 2)`` int64 array of in-range fabric
coordinates. The generator is re-entered only at segment boundaries,
which is where a policy that plans against the tracker may read fresh
state: the :class:`~repro.core.allocator.ConfigurationAllocator` folds
the previous segment's stress into the tracker (through a flushing
tracker view) before any read. A policy may instead read the tracker
once and count the stress of its own planned launches with the
schedule's :class:`FoldTables` — the fold's own translation — and so
plan the whole batch in one segment. Both hooks must produce the same
pivot sequence, so ``allocate_batch`` is bit-identical to a loop of
``allocate``.

Of the built-in policies only static_remap re-enters mid-batch (at
each epoch) and so relies on the flushing view, as do the base-class
``plan_segments`` (every launch) and custom planners such as the one
in ``examples/adaptive_policy.py``. baseline, rotation and random never
read stress, and stress_aware reads it once per batch. Each policy
declares how often it needs fresh stress via
:attr:`AllocationPolicy.plan_granularity` (campaign tooling weighs
replay cost by it):

``"schedule"``
    the pivot stream is a pure function of internal policy state — one
    segment covers the whole schedule (baseline, rotation, random);
``"epoch"``
    re-planning happens only at rare state changes, e.g. the first
    launch of a new configuration (static_remap);
``"interval"``
    re-planning happens on a fixed duty cycle (stress_aware's periodic
    pivot search, planned in one segment against a private copy of
    the counts);
``"launch"``
    every launch needs fresh tracker state — the base-class
    ``plan_segments``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from repro.cgra.configuration import VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.utilization import UtilizationTracker


#: Valid :attr:`AllocationPolicy.plan_granularity` values, coarsest
#: first. The granularity is declarative metadata (campaign tooling
#: uses it to weight replay cost); the allocator always drives
#: whatever segments the policy actually yields.
PLAN_GRANULARITIES = ("schedule", "epoch", "interval", "launch")


def unit_column(
    configs: Sequence[VirtualConfiguration],
) -> tuple[tuple[VirtualConfiguration, ...], np.ndarray]:
    """Index a launch sequence by unit identity, in one pass.

    Returns ``(units, unit_index)``: the distinct configuration objects
    in first-launch order, and per launch the position of its object
    in ``units`` (read-only int32). Two launches share an index exactly
    when they launch the same object, so runs of equal indices are the
    runs of consecutive identical configurations.
    """
    # Equal ids are one object, so the dict keeps first-launch order.
    first = dict(zip(map(id, configs), configs))
    position = {key: index for index, key in enumerate(first)}
    unit_index = np.fromiter(
        map(position.__getitem__, map(id, configs)),
        dtype=np.int32,
        count=len(configs),
    )
    unit_index.flags.writeable = False
    return tuple(first.values()), unit_index


@lru_cache(maxsize=None)
def _wrap_tables(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Wrap-around translation of one fabric as two small lookups.

    A cell ``(row, col)`` with ``row < 2 * rows`` and ``col < 2 * cols``
    has the *doubled* coordinate ``row * 2 * cols + col``. A virtual
    cell plus a pivot stays inside that range, and adding two doubled
    coordinates adds rows and columns without carries. Returns
    ``(wrap, doubled)``: ``wrap[d]`` is the flat physical cell
    ``(row % rows) * cols + col % cols`` of doubled coordinate ``d``
    (the arithmetic of :func:`candidate_footprints`), and
    ``doubled[p]`` is the doubled coordinate of flat pivot ``p``.
    """
    row = np.arange(2 * rows) % rows
    col = np.arange(2 * cols) % cols
    wrap = (row[:, None] * cols + col[None, :]).reshape(-1)
    flat = np.arange(rows * cols)
    doubled = flat // cols * (2 * cols) + flat % cols
    for table in (wrap, doubled):
        table.flags.writeable = False
    return wrap, doubled


class FoldTables:
    """The wrap-around translation of a sequence's units on one fabric.

    The allocator's stress fold translates every launch through these
    tables; it builds them once per batch and hands them to the policy
    through the :class:`ScheduleView`, so a planner that counts the
    stress of the launches it planned (:meth:`launch_counts`) counts
    exactly what the fold will add. Pivots are flat fabric cells
    ``row * cols + col``.

    Args:
        geometry: the fabric.
        units: the sequence's distinct units (at least one), in
            :func:`unit_column` order.

    Attributes:
        geometry: the fabric.
        real: ``(n_units, width)`` float64 — 1 for each of a unit's
            cells, 0 for the padding that brings every unit's row to
            one width (padding repeats the unit's last cell).
        fits: ``(n_units,)`` bool — whether the unit fits the fabric.
            Cells are distinct and inside the unit's own grid, so a
            unit that fits never wraps two cells onto one.
    """

    __slots__ = (
        "geometry", "real", "fits", "_wrap", "_pivot_doubled", "_doubled",
    )

    def __init__(
        self, geometry: FabricGeometry, units: Sequence[VirtualConfiguration]
    ) -> None:
        rows, cols = geometry.rows, geometry.cols
        self.geometry = geometry
        self._wrap, self._pivot_doubled = _wrap_tables(rows, cols)
        self.fits = np.fromiter(
            (
                unit.geometry_rows <= rows and unit.geometry_cols <= cols
                for unit in units
            ),
            dtype=bool,
            count=len(units),
        )
        # Per unit its cells' doubled coordinates (see _wrap_tables),
        # padded to one width.
        unit_rows = [unit.fold_row(rows, cols) for unit in units]
        lengths = np.fromiter(
            (len(row) for row in unit_rows), dtype=np.int64, count=len(units)
        )
        offsets = np.cumsum(lengths) - lengths
        slot = np.arange(int(lengths.max()))
        last = lengths[:, None] - 1
        self._doubled = np.concatenate(unit_rows)[
            offsets[:, None] + np.minimum(slot, last)
        ]
        self.real = (slot <= last).astype(np.float64)

    def cells(self, units: np.ndarray, pivots: np.ndarray) -> np.ndarray:
        """``(k, width)`` flat physical cells of ``k`` launches: unit
        ``units[i]`` at flat pivot ``pivots[i]`` (padding repeats a
        real cell)."""
        shifts = self._pivot_doubled[pivots]
        return self._wrap[self._doubled[units] + shifts[:, None]]

    def launch_counts(
        self, units: np.ndarray, pivots: np.ndarray
    ) -> np.ndarray:
        """Per flat cell, how many of those launches stress it
        (float64 ``(n_cells,)``, exact)."""
        return np.bincount(
            self.cells(units, pivots).reshape(-1),
            self.real[units].reshape(-1),
            self.geometry.n_cells,
        )


class ScheduleView:
    """Read-only view of a launch sequence handed to ``plan_segments``.

    Wraps the launch order (configuration per launch, repeats allowed)
    plus the per-launch execution cycle weights; policies plan pivots
    over it without being able to mutate the allocator's batch state.
    ``unit_index`` is the sequence's :func:`unit_column` index and
    ``tables`` its units' :class:`FoldTables`, when the caller already
    holds them (the allocator passes both).
    """

    __slots__ = ("_configs", "_cycles", "_unit_index", "_tables")

    def __init__(
        self,
        configs: Sequence[VirtualConfiguration],
        cycles: np.ndarray | None = None,
        unit_index: np.ndarray | None = None,
        tables: FoldTables | None = None,
    ) -> None:
        self._configs = tuple(configs)
        if cycles is not None:
            # Policies plan over the view but must not be able to edit
            # the cycle weights the allocator goes on to record.
            cycles = cycles.view()
            cycles.flags.writeable = False
        self._cycles = cycles
        if unit_index is None:
            unit_index = unit_column(self._configs)[1]
        self._unit_index = unit_index
        self._tables = tables

    @property
    def configs(self) -> tuple[VirtualConfiguration, ...]:
        """Launched configuration per launch slot, in launch order."""
        return self._configs

    @property
    def cycles(self) -> np.ndarray | None:
        """Per-launch execution cycles (stress weights), if known
        (read-only view)."""
        return self._cycles

    @property
    def n_launches(self) -> int:
        return len(self._configs)

    @property
    def unit_index(self) -> np.ndarray:
        """Per launch the position of its unit in the sequence's
        :func:`unit_column` units (read-only int32)."""
        return self._unit_index

    def fold_tables(self, geometry: FabricGeometry) -> FoldTables:
        """The :class:`FoldTables` of the sequence's units on
        ``geometry``: the allocator's own when it built this view,
        else built on first use."""
        tables = self._tables
        if tables is None or tables.geometry != geometry:
            tables = FoldTables(geometry, unit_column(self._configs)[0])
            self._tables = tables
        return tables

    def runs(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[tuple[VirtualConfiguration, int, int]]:
        """``(config, run_start, run_stop)`` for each run of consecutive
        identical configuration objects within ``[start, stop)``: the
        places where the unit index column changes value."""
        stop = len(self._configs) if stop is None else stop
        if start >= stop:
            return iter(())
        column = self._unit_index[start:stop]
        changes = np.flatnonzero(column[1:] != column[:-1])
        bounds = (changes + (start + 1)).tolist()
        configs = self._configs
        return (
            (configs[run_start], run_start, run_stop)
            for run_start, run_stop in zip([start, *bounds], [*bounds, stop])
        )

    def __len__(self) -> int:
        return len(self._configs)


@dataclass(frozen=True)
class SegmentPlan:
    """A contiguous launch range with precomputed pivots.

    Attributes:
        start: first launch index covered (inclusive).
        stop: first launch index *not* covered (exclusive).
        pivots: ``(stop - start, 2)`` int64 pivot per covered launch.
    """

    start: int
    stop: int
    pivots: np.ndarray = field(repr=False)

    @property
    def n_launches(self) -> int:
        return self.stop - self.start


class AllocationPolicy:
    """Chooses pivot cells for configuration launches.

    Lifecycle: the :class:`~repro.core.allocator.ConfigurationAllocator`
    calls :meth:`bind` once with the fabric geometry. ``allocate``
    then calls :meth:`next_pivot` before every launch; ``allocate_batch``
    drives :meth:`plan_segments` over a whole launch sequence (see the
    module docstring for the protocol).
    """

    #: Registry key; subclasses override.
    name = "abstract"

    #: Whether the policy draws from a seedable RNG (campaign specs use
    #: this to expand one policy into per-seed design points).
    seedable = False

    #: How often the policy needs fresh tracker state while planning a
    #: schedule (one of :data:`PLAN_GRANULARITIES`). The base class
    #: plans launch by launch.
    plan_granularity = "launch"

    def bind(self, geometry: FabricGeometry) -> None:
        """Attach the policy to a fabric; resets internal state."""
        self.geometry = geometry

    def next_pivot(
        self, config: VirtualConfiguration, tracker: "UtilizationTracker"
    ) -> tuple[int, int]:
        """Pivot ``(row, col)`` for the upcoming launch of ``config``.

        ``tracker`` exposes the accumulated per-FU stress for policies
        that adapt to run-time aging information.
        """
        raise NotImplementedError

    def plan_segments(
        self, schedule: ScheduleView, tracker: "UtilizationTracker"
    ) -> Iterator[SegmentPlan]:
        """Plan the schedule's pivots as contiguous segments.

        The default yields one single-launch segment per
        :meth:`next_pivot` call. The allocator folds each segment into
        the tracker before the next tracker read, so every call sees
        exactly the stress the per-launch loop would have shown it.
        """
        for index, config in enumerate(schedule.configs):
            pivots = np.asarray(
                [self.next_pivot(config, tracker)], dtype=np.int64
            )
            yield SegmentPlan(start=index, stop=index + 1, pivots=pivots)

    def describe(self) -> str:
        """One-line human-readable description."""
        return self.name


def min_stress_index(counts_flat: np.ndarray, footprints: np.ndarray) -> int:
    """Candidate footprint minimising ``(max stress, total stress)``.

    ``footprints`` is ``(n_candidates, n_cells)`` flat indices into
    ``counts_flat``, the per-cell stress (the stress-searching policies
    pass the tracker's execution counts). Ties on the max break towards
    the lower sum, then the earlier candidate. Sums are taken only over
    the candidates tied on the max.
    """
    stress = counts_flat[footprints]
    maxima = stress.max(axis=1)
    candidates = np.flatnonzero(maxima == maxima.min())
    if candidates.size == 1:
        return int(candidates[0])
    sums = stress[candidates].sum(axis=1)
    return int(candidates[np.argmin(sums)])


def candidate_footprints(
    config: VirtualConfiguration,
    pivots: np.ndarray,
    geometry: FabricGeometry,
) -> np.ndarray:
    """Flat stressed-cell indices of ``config`` under each pivot.

    ``pivots`` is ``(n_candidates, 2)``; the result is
    ``(n_candidates, n_cells)`` flat raster indices with wrap-around —
    the integer-arithmetic footprint translation shared by the batched
    allocator and the stress-searching policies.
    """
    rows, cols = geometry.rows, geometry.cols
    phys_rows = (config.cell_rows[None, :] + pivots[:, :1]) % rows
    phys_cols = (config.cell_cols[None, :] + pivots[:, 1:]) % cols
    return phys_rows * cols + phys_cols


_REGISTRY: dict[str, type[AllocationPolicy]] = {}


def register_policy(cls: type[AllocationPolicy]) -> type[AllocationPolicy]:
    """Class decorator adding a policy to the ``make_policy`` registry."""
    if cls.name in _REGISTRY:
        raise ConfigurationError(f"duplicate policy name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def policy_class(name: str) -> type[AllocationPolicy]:
    """Look up a registered policy class without instantiating it."""
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown policy {name!r}; available: {sorted(_REGISTRY)}"
        )
    return cls


def make_policy(name: str, **kwargs) -> AllocationPolicy:
    """Instantiate a registered policy by name.

    Examples:
        >>> make_policy("baseline").name
        'baseline'
        >>> make_policy("rotation", pattern="raster").pattern_name
        'raster'
    """
    return policy_class(name)(**kwargs)


def available_policies() -> tuple[str, ...]:
    """Names of all registered policies, sorted."""
    return tuple(sorted(_REGISTRY))
