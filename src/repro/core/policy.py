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
        # schedule: ScheduleView (configs, runs(), n_launches)
        # tracker: UtilizationTracker view; any read observes exactly
        #          the stress of every launch planned so far
        yield SegmentPlan(start=0, stop=schedule.n_launches, pivots=...)

Yield plans in order, contiguously from 0 to ``schedule.n_launches``;
``pivots`` is an ``(stop - start, 2)`` int64 array of in-range fabric
coordinates. The generator is re-entered only at segment boundaries,
which is exactly where the policy may read fresh tracker state: the
:class:`~repro.core.allocator.ConfigurationAllocator` folds the
previous segment's stress into the tracker before any read. Both
hooks must produce the same pivot sequence, so ``allocate_batch`` is
bit-identical to a loop of ``allocate``. Policies declare how often
they need re-entry points via :attr:`AllocationPolicy.plan_granularity`:

``"schedule"``
    the pivot stream is a pure function of internal policy state — one
    segment covers the whole schedule (baseline, rotation, random);
``"epoch"``
    re-planning happens only at rare state changes, e.g. the first
    launch of a new configuration (static_remap);
``"interval"``
    re-planning happens on a fixed duty cycle (stress_aware's periodic
    pivot search);
``"launch"``
    every launch needs fresh tracker state — the base-class
    ``plan_segments``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
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


class ScheduleView:
    """Read-only view of a launch sequence handed to ``plan_segments``.

    Wraps the launch order (configuration per launch, repeats allowed)
    plus the per-launch execution cycle weights; policies plan pivots
    over it without being able to mutate the allocator's batch state.
    ``unit_index`` is the sequence's :func:`unit_column` index, when
    the caller already holds it.
    """

    __slots__ = ("_configs", "_cycles", "_unit_index")

    def __init__(
        self,
        configs: Sequence[VirtualConfiguration],
        cycles: np.ndarray | None = None,
        unit_index: np.ndarray | None = None,
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
