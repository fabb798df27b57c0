"""PC-indexed configuration cache with LRU replacement.

The DBT saves each translation unit here, keyed by the PC of its first
instruction (Step 3 of the TransRec execution model) *and* by the
identity of the mapper that placed it; while the GPP runs, the cache is
probed with the upcoming PC (Step 4) in the cache's bound mapper
namespace. The mapper dimension matters for campaigns that sweep
several mappers over one fabric: a virtual configuration placed by one
mapper must never replay as if another mapper had produced it, so
entries from different mappers can coexist without aliasing.

Each resident :class:`CacheEntry` carries its unit and the two replay
counters of the misspeculation monitor, so a launch probes the cache
once and hands the probed entry to
:meth:`repro.dbt.translator.DBTEngine.note_replay`.

Capacity is expressed in entries; the bit cost of one entry for a given
fabric geometry is available from
:class:`repro.cgra.reconfig.ReconfigLogicSpec`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro import obs
from repro.cgra.configuration import DEFAULT_MAPPER_KEY, VirtualConfiguration
from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_MAPPER_KEY",  # re-export: the cache's default namespace
    "CacheEntry",
    "ConfigCache",
    "ConfigCacheStats",
]


@dataclass
class ConfigCacheStats:
    """Access counters for one simulation run."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected: int = 0   # translation attempts that produced no unit
    truncations: int = 0  # units shortened by the misspec monitor
    blacklisted: int = 0  # units dropped by the misspec monitor

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0


@dataclass(slots=True)
class CacheEntry:
    """One resident unit and its replay monitoring counters (the two
    small hardware counters of the adaptive DBT)."""

    unit: VirtualConfiguration
    launches: int = 0
    misspeculations: int = 0

    def misspec_dominated(self, min_launches: int) -> bool:
        """Whether this unit diverges on most replays."""
        return (
            self.launches >= min_launches
            and 2 * self.misspeculations >= self.launches
        )


@dataclass
class ConfigCache:
    """LRU cache mapping (mapper identity, start PC) ->
    :class:`CacheEntry`.

    ``mapper_key`` is the namespace that PC-based probes
    (:meth:`lookup`, :meth:`remove`, ``pc in cache``) resolve in;
    :meth:`insert` always files a unit
    under the identity recorded on the unit itself, so stale
    cross-mapper reuse is structurally impossible even when one cache
    object is shared by several engines.
    """

    capacity: int = 64
    stats: ConfigCacheStats = field(default_factory=ConfigCacheStats)
    mapper_key: str = DEFAULT_MAPPER_KEY

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError("config cache capacity must be >= 1")
        self._entries: OrderedDict[tuple[str, int], CacheEntry] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pc: int) -> bool:
        return (self.mapper_key, pc) in self._entries

    def lookup(self, pc: int) -> CacheEntry | None:
        """Probe the cache; counts a hit/miss and refreshes recency."""
        key = (self.mapper_key, pc)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            if obs.state.enabled:
                obs.count(f"config_cache.misses[{self.mapper_key}]")
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if obs.state.enabled:
            obs.count(f"config_cache.hits[{self.mapper_key}]")
        return entry

    def insert(self, unit: VirtualConfiguration) -> None:
        """Insert a freshly translated unit, evicting the LRU entry.

        The entry is keyed by the unit's own ``mapper_key``, which for
        units built through the engine equals the engine's mapper
        identity — two mappers sweeping the same PCs occupy disjoint
        key spaces.
        """
        key = (unit.mapper_key, unit.start_pc)
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = CacheEntry(unit)
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            if obs.state.enabled:
                obs.count(f"config_cache.evictions[{unit.mapper_key}]")
        self._entries[key] = CacheEntry(unit)
        self.stats.insertions += 1

    def remove(self, pc: int) -> None:
        """Drop an entry (misspec-monitor blacklisting)."""
        self._entries.pop((self.mapper_key, pc), None)

    def units(self) -> tuple[VirtualConfiguration, ...]:
        """All resident units (every mapper namespace), LRU-first."""
        return tuple(entry.unit for entry in self._entries.values())
