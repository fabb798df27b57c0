"""Tests for the configuration cache and the DBT engine."""

import pytest

from repro.cgra.configuration import PlacedOp, VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.cgra.fu import FUKind
from repro.dbt.config_cache import ConfigCache
from repro.dbt.translator import DBTEngine, DBTLimits
from repro.errors import ConfigurationError

from tests.support import trace_of


def unit_at(pc, n_ops=1):
    ops = tuple(
        PlacedOp(op="add", kind=FUKind.ALU, row=0, col=i, width=1,
                 trace_offset=i)
        for i in range(n_ops)
    )
    return VirtualConfiguration(
        start_pc=pc,
        pc_path=tuple(pc + 4 * i for i in range(n_ops)),
        ops=ops,
        n_instructions=n_ops,
        geometry_rows=2,
        geometry_cols=16,
    )


class TestConfigCache:
    def test_miss_then_hit(self):
        cache = ConfigCache(capacity=4)
        assert cache.lookup(0x1000) is None
        cache.insert(unit_at(0x1000))
        assert cache.lookup(0x1000) is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = ConfigCache(capacity=2)
        cache.insert(unit_at(0x1000))
        cache.insert(unit_at(0x2000))
        cache.lookup(0x1000)            # refresh 0x1000
        cache.insert(unit_at(0x3000))   # evicts 0x2000
        assert 0x1000 in cache
        assert 0x2000 not in cache
        assert cache.stats.evictions == 1

    def test_reinsert_updates_entry(self):
        cache = ConfigCache(capacity=2)
        cache.insert(unit_at(0x1000, n_ops=1))
        cache.insert(unit_at(0x1000, n_ops=3))
        assert len(cache) == 1
        assert cache.lookup(0x1000).unit.n_ops == 3

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            ConfigCache(capacity=0)

    def test_units_lru_order(self):
        cache = ConfigCache(capacity=3)
        cache.insert(unit_at(0x1000))
        cache.insert(unit_at(0x2000))
        cache.lookup(0x1000)
        lru_first = cache.units()
        assert lru_first[0].start_pc == 0x2000


class TestDBTEngine:
    def make_engine(self, **limits):
        geometry = FabricGeometry(rows=2, cols=16)
        return DBTEngine(
            geometry=geometry,
            cache=ConfigCache(capacity=8),
            limits=DBTLimits(**limits),
        )

    def loop_trace(self):
        return trace_of(
            """
            li t0, 5
            li t1, 0
            loop:
              add t1, t1, t0
              addi t0, t0, -1
              bnez t0, loop
            li a7, 93
            ecall
            """
        )

    def test_unit_heads(self):
        trace = self.loop_trace()
        flags = DBTEngine.unit_head_flags(trace)
        assert flags.shape == (len(trace),)
        assert flags[0]
        # The instruction after a taken branch is a head.
        redirect_positions = [
            i + 1 for i, r in enumerate(trace[:-1]) if r.redirects
        ]
        assert redirect_positions
        for position in redirect_positions:
            assert flags[position]
        # A mid-straight-line instruction is not, and nothing else is.
        assert not flags[1]
        assert sorted(map(int, flags.nonzero()[0])) == [0, *redirect_positions]

    def test_translate_and_cache(self):
        trace = self.loop_trace()
        engine = self.make_engine()
        unit = engine.translate_at(trace, 0)
        assert unit is not None
        assert engine.cache.lookup(unit.start_pc).unit is unit

    def test_reject_remembered(self):
        trace = trace_of("li a0, 0\nli a7, 93\necall")
        engine = self.make_engine()
        assert engine.translate_at(trace, 0) is None
        translations_after_first = engine.translations
        assert engine.translate_at(trace, 0) is None
        assert engine.translations == translations_after_first

