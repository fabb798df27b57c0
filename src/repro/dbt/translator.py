"""DBT engine: decides where units start and drives translation.

The hardware DBT indexes configurations by the PC of the first
instruction of a sequence, so translation is only attempted at
*superblock heads*: the first committed instruction, and any
instruction reached by a control-flow redirect. This avoids creating a
sliding window of overlapping units at every PC while still catching
every loop head and call target.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.cgra.configuration import (
    DEFAULT_MAPPER_KEY,
    VirtualConfiguration,
    greedy_identity,
)
from repro.cgra.fabric import FabricGeometry
from repro.dbt.config_cache import CacheEntry, ConfigCache
from repro.dbt.window import UnitLimits, translate_unit, truncate_unit
from repro.errors import ConfigurationError
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mapping.base import Mapper


@dataclass(frozen=True)
class DBTLimits(UnitLimits):
    """Unit limits plus engine-level knobs."""

    # Misspeculation monitor: once a unit has been launched this many
    # times with divergence on at least half of them, it is truncated
    # to its reliably committing prefix (or dropped when too short).
    misspec_monitor_launches: int = 4


@dataclass
class DBTEngine:
    """Stateful translator shared by one simulation run.

    Attributes:
        mapper: place-and-route stage that refines discovery's greedy
            placement of every discovered window; ``None`` (the
            ``greedy`` pipeline) keeps the greedy placement, under the
            cache namespace ``greedy_identity(limits.row_policy)``. The
            registered ``greedy`` mapper names that placement, so an
            engine given it runs without a mapper.
        stress_provider: zero-argument callable returning the
            allocator's live per-cell stress map; read for a
            stress-coupled mapper, once per translation that forms a
            seed for the mapper to refine.
    """

    geometry: FabricGeometry
    cache: ConfigCache
    limits: DBTLimits = field(default_factory=DBTLimits)
    mapper: "Mapper | None" = None
    stress_provider: "Callable[[], np.ndarray] | None" = None

    def __post_init__(self) -> None:
        if (
            self.mapper is not None
            and self.mapper.identity() == DEFAULT_MAPPER_KEY
        ):
            self.mapper = None
        # A mismatched pairing would file every insert under the units'
        # namespace while probes resolve in the cache's — a permanent,
        # silent 0% hit rate. Fail loudly instead. With no mapper,
        # units carry the discovery scheduler's greedy identity.
        produced = (
            greedy_identity(self.limits.row_policy)
            if self.mapper is None
            else self.mapper.identity()
        )
        if self.cache.mapper_key != produced:
            raise ConfigurationError(
                f"config cache namespace {self.cache.mapper_key!r} does "
                f"not match the engine's mapper identity {produced!r}"
            )
        # Attempting translation again at a PC that already failed
        # wastes DBT bandwidth; remember and skip (the hardware keeps a
        # small reject filter for the same reason).
        self._rejected_pcs: set[int] = set()
        self.translations = 0
        #: Worst per-column context-line pressure over every unit this
        #: engine translated (the congestion metric campaigns report).
        self.peak_line_pressure = 0

    @property
    def stress_coupled(self) -> bool:
        """Whether translations read the allocator's live stress map.

        True only when a stress-coupled mapper is paired with a live
        ``stress_provider``: then the launch stream depends on the
        allocation policy and the run cannot share a policy-independent
        :class:`~repro.system.schedule.LaunchSchedule`.
        """
        return (
            self.mapper is not None
            and self.stress_provider is not None
            and self.mapper.stress_coupled
        )

    def _stress_hint(self) -> "np.ndarray | None":
        return self.stress_provider() if self.stress_coupled else None

    @staticmethod
    def unit_head_flags(trace: Trace) -> "np.ndarray":
        """Per-position flags: whether ``trace[position]`` can start a
        translation unit.

        Single owner of the superblock-head rule shared with the
        schedule walk (:mod:`repro.system.schedule`): position 0 and
        every position after a control-flow redirect.
        """
        flags = np.ones(len(trace), dtype=bool)
        if len(trace) > 1:
            flags[1:] = trace.redirect_array[:-1]
        return flags

    def translate_at(
        self, trace: Trace, position: int
    ) -> VirtualConfiguration | None:
        """Translate a unit starting at ``position`` and cache it.

        Returns the new unit, or ``None`` when the position yields no
        viable unit (too short, or unmappable head instruction).
        """
        pc = int(trace.pc_array[position])
        if pc in self._rejected_pcs:
            return None
        unit, line_pressure = translate_unit(
            trace,
            position,
            self.geometry,
            self.limits,
            mapper=self.mapper,
            stress=self._stress_hint,
        )
        self.translations += 1
        if unit is None:
            self.cache.stats.rejected += 1
            self._rejected_pcs.add(pc)
            return None
        if line_pressure > self.peak_line_pressure:
            self.peak_line_pressure = line_pressure
        self.cache.insert(unit)
        return unit

    def note_replay(self, entry: CacheEntry, matched: int) -> None:
        """Feed the misspeculation monitor after a replay of the unit
        of ``entry``, the cache entry its launch probed.

        A unit that diverges on at least half of a minimum number of
        launches is truncated to the prefix that has been committing
        (ending at the observed divergence point); a prefix too short
        for a worthwhile configuration is dropped and its start PC
        blacklisted. This is the adaptive behaviour that keeps units
        with data-dependent branches from thrashing the fabric.
        """
        entry.launches += 1
        unit = entry.unit
        if matched >= unit.n_instructions:
            return
        entry.misspeculations += 1
        if not entry.misspec_dominated(self.limits.misspec_monitor_launches):
            return
        truncated = truncate_unit(
            unit, matched, self.limits.min_instructions
        )
        if truncated is None:
            self.cache.remove(unit.start_pc)
            self.cache.stats.blacklisted += 1
            self._rejected_pcs.add(unit.start_pc)
            return
        self.cache.insert(truncated)
        self.cache.stats.truncations += 1
