"""Allocation-policy interface and registry.

A policy chooses the *pivot* of every configuration launch: the
physical cell where the configuration's virtual origin lands. It has
two hooks. Both read ``counts``, the flat int64 launch count per
fabric cell (``row * cols + col``) of every launch before the ones
they place — the run-time aging information a policy may adapt to.

:meth:`AllocationPolicy.next_pivot` (required)
    the pivot of one upcoming launch.
    :meth:`~repro.core.allocator.ConfigurationAllocator.allocate`
    calls it once per launch, with a read-only view of the tracker's
    counts.
:meth:`AllocationPolicy.plan_pivots` (optional)
    the pivots of a whole launch sequence, as one
    ``(n_launches, 2)`` int64 array of fabric coordinates.
    :meth:`~repro.core.allocator.ConfigurationAllocator.allocate_batch`
    calls it once per batch, with a private copy of the counts; replay
    and the stress-coupled walk place every launch this way.

``counts`` belongs to the planner for the batch. A planner that reads
stress keeps it current itself: before it reads the counts again, it
adds the launches it has planned since its last read through
:meth:`FoldTables.add_counts` — the allocator fold's own translation,
from the schedule's :meth:`ScheduleView.fold_tables` — so each read
sees what the per-launch loop would have shown ``next_pivot`` there::

    def plan_pivots(self, schedule, counts):
        # schedule: ScheduleView (configs, runs(), n_launches,
        #           unit_index, fold_tables(geometry))
        # counts:   private flat int64 launch counts
        return pivots  # (schedule.n_launches, 2) int64

Both hooks must produce the same pivot sequence, so ``allocate_batch``
is bit-identical to a loop of ``allocate``. The base-class
``plan_pivots`` calls ``next_pivot`` launch by launch and adds each
launch once its pivot is on the fabric, which is exact for any policy;
every built-in policy overrides it. The allocator hands a planner only
the launches before the batch's first unit that does not fit the
fabric, so no planner ever translates one.

Each policy declares how often it reads the counts via
:attr:`AllocationPolicy.plan_granularity` (campaign tooling weighs
replay cost by it):

``"schedule"``
    never — the pivot stream is a pure function of internal policy
    state (baseline, rotation, random);
``"epoch"``
    at rare state changes, e.g. the first launch of a new
    configuration (static_remap);
``"interval"``
    on a fixed duty cycle (stress_aware's periodic pivot search);
``"launch"``
    at every launch — the base-class ``plan_pivots``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache

import numpy as np

from repro.cgra.configuration import VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.errors import AllocationError, ConfigurationError


#: Valid :attr:`AllocationPolicy.plan_granularity` values, coarsest
#: first. The granularity is declarative metadata (campaign tooling
#: uses it to weight replay cost); the allocator calls every planner
#: once per batch.
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
    launches it planned (:meth:`add_counts`) counts exactly what the
    fold will add. Pivots are flat fabric cells ``row * cols + col``.

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
            Only a unit that fits may be translated. Its cells are
            distinct and inside its own grid, so it never wraps two
            cells onto one.
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
        unit_rows = [unit.fold_row(cols) for unit in units]
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

    def add_counts(
        self, counts: np.ndarray, units: np.ndarray, pivots: np.ndarray
    ) -> None:
        """Add to the flat int64 ``counts``, in place, how many of those
        launches stress each cell."""
        launches = np.bincount(
            self.cells(units, pivots).reshape(-1),
            self.real[units].reshape(-1),
            self.geometry.n_cells,
        )
        np.add(counts, launches, out=counts, casting="unsafe")


class ScheduleView:
    """Read-only view of a launch sequence handed to ``plan_pivots``.

    Wraps the launch order (configuration per launch, repeats allowed).
    ``unit_index`` is the sequence's :func:`unit_column` index and
    ``tables`` its units' :class:`FoldTables`, when the caller already
    holds them (the allocator passes both).
    """

    __slots__ = ("_configs", "_unit_index", "_tables")

    def __init__(
        self,
        configs: Sequence[VirtualConfiguration],
        unit_index: np.ndarray | None = None,
        tables: FoldTables | None = None,
    ) -> None:
        self._configs = tuple(configs)
        if unit_index is None:
            unit_index = unit_column(self._configs)[1]
        self._unit_index = unit_index
        self._tables = tables

    @property
    def configs(self) -> tuple[VirtualConfiguration, ...]:
        """Launched configuration per launch slot, in launch order."""
        return self._configs

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

    def runs(self) -> Iterator[tuple[VirtualConfiguration, int, int]]:
        """``(config, run_start, run_stop)`` for each run of consecutive
        identical configuration objects: the places where the unit
        index column changes value."""
        column = self._unit_index
        if not len(column):
            return iter(())
        bounds = (np.flatnonzero(column[1:] != column[:-1]) + 1).tolist()
        configs = self._configs
        return (
            (configs[start], start, stop)
            for start, stop in zip([0, *bounds], [*bounds, len(column)])
        )

    def __len__(self) -> int:
        return len(self._configs)


class AllocationPolicy:
    """Chooses pivot cells for configuration launches.

    Lifecycle: the :class:`~repro.core.allocator.ConfigurationAllocator`
    calls :meth:`bind` once with the fabric geometry. ``allocate``
    then calls :meth:`next_pivot` before every launch; ``allocate_batch``
    calls :meth:`plan_pivots` once per batch (see the module docstring
    for the protocol).
    """

    #: Registry key; subclasses override.
    name = "abstract"

    #: Whether the policy draws from a seedable RNG (campaign specs use
    #: this to expand one policy into per-seed design points).
    seedable = False

    #: How often the policy reads the counts while planning a schedule
    #: (one of :data:`PLAN_GRANULARITIES`). The base class plans launch
    #: by launch.
    plan_granularity = "launch"

    def bind(self, geometry: FabricGeometry) -> None:
        """Attach the policy to a fabric; resets internal state."""
        self.geometry = geometry

    def next_pivot(
        self, config: VirtualConfiguration, counts: np.ndarray
    ) -> tuple[int, int]:
        """Pivot ``(row, col)`` for the upcoming launch of ``config``.

        ``counts`` is the flat per-cell launch count of every launch
        before it, for policies that adapt to run-time aging
        information.
        """
        raise NotImplementedError

    def plan_pivots(
        self, schedule: ScheduleView, counts: np.ndarray
    ) -> np.ndarray:
        """``(n_launches, 2)`` int64 pivots of the schedule's launches.

        ``counts`` is a private copy of the flat per-cell launch counts
        before the schedule. The default asks :meth:`next_pivot` launch
        by launch and adds each launch to ``counts`` once its pivot is
        on the fabric, so every call sees exactly the counts the
        per-launch loop would show it. It stops asking at a pivot off
        the fabric and repeats that pivot to the end: the allocator
        stops the batch there, as the loop does.
        """
        geometry = self.geometry
        rows, cols = geometry.rows, geometry.cols
        unit_index = schedule.unit_index
        pivots = np.empty((schedule.n_launches, 2), dtype=np.int64)
        for index, config in enumerate(schedule.configs):
            row, col = pivots[index] = pivot_pair(
                self, self.next_pivot(config, counts)
            )
            if not (0 <= row < rows and 0 <= col < cols):
                pivots[index:] = row, col
                break
            schedule.fold_tables(geometry).add_counts(
                counts, unit_index[index : index + 1], [row * cols + col]
            )
        return pivots

    def describe(self) -> str:
        """One-line human-readable description."""
        return self.name


def pivot_pair(policy, pivot) -> tuple[int, int]:
    """A ``next_pivot`` result as a ``(row, col)`` pair of ints (cast
    as ``np.int64`` casts them).

    Raises:
        AllocationError: naming ``policy``, when ``pivot`` is not a
            pair.
    """
    pair = np.asarray(pivot, dtype=np.int64)
    if pair.shape != (2,):
        raise AllocationError(
            f"policy {getattr(policy, 'name', '?')!r} returned pivot "
            f"{pivot!r}, not a (row, col) pair"
        )
    row, col = pair.tolist()
    return row, col


def min_stress_index(counts_flat: np.ndarray, footprints: np.ndarray) -> int:
    """Candidate footprint minimising ``(max stress, total stress)``.

    ``footprints`` is ``(n_candidates, n_cells)`` flat indices into
    ``counts_flat``, the per-cell stress (the stress-searching policies
    pass the flat launch counts). Ties on the max break towards
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
    the candidate footprints the stress-searching policies search
    over (see :func:`min_stress_index`).
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
