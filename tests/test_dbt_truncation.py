"""Tests for unit truncation and the misspeculation monitor."""

import pytest

from repro.cgra.fabric import FabricGeometry
from repro.dbt.config_cache import CacheEntry, ConfigCache
from repro.dbt.translator import DBTEngine, DBTLimits
from repro.dbt.window import build_unit, truncate_unit

from tests.support import trace_of


def straight_trace(n=12):
    source = "\n".join(f"addi t{i % 3}, t{i % 3}, 1" for i in range(n))
    return trace_of(source + "\nli a7, 93\necall")


@pytest.fixture
def unit():
    return build_unit(straight_trace(), 0, FabricGeometry(rows=2, cols=16))


class TestTruncateUnit:
    def test_full_length_returns_same_unit(self, unit):
        assert truncate_unit(unit, unit.n_instructions) is unit
        assert truncate_unit(unit, unit.n_instructions + 5) is unit

    def test_prefix_keeps_placements(self, unit):
        shorter = truncate_unit(unit, 5)
        assert shorter.n_instructions == 5
        assert shorter.pc_path == unit.pc_path[:5]
        by_offset = {op.trace_offset: op for op in unit.ops}
        for op in shorter.ops:
            original = by_offset[op.trace_offset]
            assert (op.row, op.col, op.width) == (
                original.row, original.col, original.width
            )

    def test_too_short_returns_none(self, unit):
        assert truncate_unit(unit, 2, min_instructions=3) is None
        assert truncate_unit(unit, 0) is None

    def test_start_pc_preserved(self, unit):
        shorter = truncate_unit(unit, 4)
        assert shorter.start_pc == unit.start_pc


class TestCacheEntry:
    def test_not_dominated_below_min_launches(self, unit):
        entry = CacheEntry(unit, launches=3, misspeculations=3)
        assert not entry.misspec_dominated(min_launches=4)

    def test_dominated_at_half(self, unit):
        entry = CacheEntry(unit, launches=4, misspeculations=2)
        assert entry.misspec_dominated(min_launches=4)

    def test_not_dominated_below_half(self, unit):
        entry = CacheEntry(unit, launches=10, misspeculations=4)
        assert not entry.misspec_dominated(min_launches=4)


def replay(engine, unit, matched):
    """Probe the cache at ``unit``'s start PC, as a launch does, and
    feed the monitor the probed entry; return that entry."""
    entry = engine.cache.lookup(unit.start_pc)
    engine.note_replay(entry, matched)
    return entry


class TestMonitor:
    def make_engine(self, **kwargs):
        return DBTEngine(
            geometry=FabricGeometry(rows=2, cols=16),
            cache=ConfigCache(capacity=8),
            limits=DBTLimits(**kwargs),
        )

    def test_full_commits_never_truncate(self, unit):
        engine = self.make_engine()
        engine.cache.insert(unit)
        for _ in range(20):
            entry = replay(engine, unit, unit.n_instructions)
        assert engine.cache.lookup(unit.start_pc) is entry
        assert entry.unit is unit
        assert (entry.launches, entry.misspeculations) == (20, 0)
        assert engine.cache.stats.truncations == 0

    def test_repeated_misspec_truncates(self, unit):
        engine = self.make_engine(misspec_monitor_launches=4)
        engine.cache.insert(unit)
        for _ in range(4):
            replay(engine, unit, 6)
        replacement = engine.cache.lookup(unit.start_pc)
        assert replacement is not None
        assert replacement.unit.n_instructions == 6
        assert (replacement.launches, replacement.misspeculations) == (0, 0)
        assert engine.cache.stats.truncations == 1

    def test_short_divergence_blacklists(self, unit):
        engine = self.make_engine(misspec_monitor_launches=4)
        engine.cache.insert(unit)
        for _ in range(4):
            replay(engine, unit, 1)  # diverges immediately
        assert engine.cache.lookup(unit.start_pc) is None
        assert engine.cache.stats.blacklisted == 1

    def test_blacklisted_pc_not_retranslated(self, unit):
        engine = self.make_engine(misspec_monitor_launches=4)
        trace = straight_trace()
        engine.cache.insert(unit)
        for _ in range(4):
            replay(engine, unit, 1)
        assert engine.translate_at(trace, 0) is None

    def test_mixed_outcomes_below_half_survive(self, unit):
        engine = self.make_engine(misspec_monitor_launches=4)
        engine.cache.insert(unit)
        # One divergence every fourth launch: the cumulative misspec
        # ratio stays at 1/4, below the monitor's 1/2 trigger.
        for index in range(20):
            matched = 6 if index % 4 == 3 else unit.n_instructions
            entry = replay(engine, unit, matched)
        assert engine.cache.lookup(unit.start_pc) is entry
        assert entry.unit is unit
        assert (entry.launches, entry.misspeculations) == (20, 5)
