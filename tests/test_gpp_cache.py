"""Tests for the set-associative cache model and the per-stream dcache
outcome."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.gpp.cache import CacheModel, CacheParams
from repro.gpp.timing import stream_dcache
from repro.isa.instructions import InstrClass
from repro.sim.trace import ABSENT, InstructionTable, Trace
from repro.system.schedule import clear_schedule_caches

from tests.support import trace_of


def small_cache(ways=2, sets=2, line=16, penalty=10):
    return CacheModel(
        CacheParams(
            size_bytes=ways * sets * line,
            line_bytes=line,
            ways=ways,
            miss_penalty=penalty,
        )
    )


class TestParams:
    def test_n_sets(self):
        params = CacheParams(size_bytes=1024, line_bytes=64, ways=4)
        assert params.n_sets == 4

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheParams(size_bytes=1000)
        with pytest.raises(ConfigurationError):
            CacheParams(line_bytes=48)
        with pytest.raises(ConfigurationError):
            CacheParams(ways=3)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheParams(size_bytes=64, line_bytes=64, ways=4)

    def test_negative_miss_penalty_rejected(self):
        with pytest.raises(ConfigurationError, match="miss_penalty"):
            CacheParams(miss_penalty=-20)
        assert CacheParams(miss_penalty=0).miss_penalty == 0


class TestBehaviour:
    def test_first_access_misses_then_hits(self):
        cache = small_cache()
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert cache.access(0x1004)  # same line

    def test_distinct_lines_miss(self):
        cache = small_cache(line=16)
        cache.access(0x0)
        assert not cache.access(0x10)

    def test_lru_eviction(self):
        cache = small_cache(ways=2, sets=1, line=16)
        a, b, c = 0x000, 0x010, 0x020  # all map to the single set
        cache.access(a)
        cache.access(b)
        cache.access(a)      # a is now MRU
        cache.access(c)      # evicts b
        assert cache.access(a)
        assert not cache.access(b)

    def test_set_indexing_avoids_conflicts(self):
        cache = small_cache(ways=1, sets=2, line=16)
        # 0x00 -> set 0, 0x10 -> set 1: no conflict
        cache.access(0x00)
        cache.access(0x10)
        assert cache.access(0x00)
        assert cache.access(0x10)

    def test_stats(self):
        cache = small_cache()
        cache.access(0)
        cache.access(0)
        cache.access(0x1000)
        assert cache.accesses == 3
        assert cache.hits == 1
        assert cache.misses == 2
        assert cache.miss_rate == pytest.approx(2 / 3)
        cache.reset_stats()
        assert cache.accesses == 0
        assert cache.miss_rate == 0.0


#: One ALU and one load row: a stream's records index these.
_TABLE = InstructionTable.from_rows(
    [
        (0x1000, "addi", InstrClass.ALU, 5, 5, None, 1, 0),
        (0x1004, "lw", InstrClass.LOAD, 6, 5, None, 0, 4),
    ]
)


def stream_trace(addresses):
    """A trace with one load per address and one ALU record per
    ``None``, in order."""
    n_records = len(addresses)
    return Trace(
        _TABLE,
        [0 if address is None else 1 for address in addresses],
        [ABSENT if address is None else address for address in addresses],
        [ABSENT] * n_records,
        [ABSENT] * n_records,
        [0x1000] * n_records,
        name="stream",
    )


@st.composite
def cache_params(draw):
    line = 1 << draw(st.integers(2, 7))
    ways = 1 << draw(st.integers(0, 3))
    sets = 1 << draw(st.integers(0, 5))
    return CacheParams(
        size_bytes=line * ways * sets,
        line_bytes=line,
        ways=ways,
        miss_penalty=draw(st.integers(0, 50)),
    )


class TestStreamOutcome:
    @given(
        params=cache_params(),
        addresses=st.lists(
            st.one_of(st.none(), st.integers(0, 1 << 14)), max_size=300
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_access_loop(self, params, addresses):
        """A cold cache over the stream's loads/stores, one access at a
        time, misses what the memoised outcome counts."""
        cache = CacheModel(params)
        for address in addresses:
            if address is not None:
                cache.access(address)
        trace = stream_trace(addresses)
        outcome = stream_dcache(trace, params)
        assert (outcome.misses, outcome.accesses) == (
            cache.misses,
            cache.accesses,
        )
        assert outcome.miss_rate == cache.miss_rate
        assert stream_dcache(trace, params) is outcome

    def test_stream_without_memory_records(self):
        trace = trace_of("li a0, 1\naddi a0, a0, 2\nli a7, 93\necall")
        outcome = stream_dcache(trace, CacheParams())
        assert (outcome.misses, outcome.accesses) == (0, 0)
        assert outcome.miss_rate == 0.0

    def test_empty_trace(self):
        outcome = stream_dcache(stream_trace([]), CacheParams())
        assert (outcome.misses, outcome.accesses) == (0, 0)
        assert outcome.miss_rate == 0.0

    def test_memo_returns_one_entry_until_schedules_clear(self):
        trace = stream_trace([0, 64, 0, None, 128, 64])
        params = CacheParams(size_bytes=128, line_bytes=64, ways=1)
        outcome = stream_dcache(trace, params)
        assert stream_dcache(trace, params) is outcome
        # The outcome does not depend on the penalty.
        charged = stream_dcache(trace, replace(params, miss_penalty=5))
        assert charged == outcome == (3, 5)
        clear_schedule_caches()
        fresh = stream_dcache(trace, params)
        assert fresh == outcome and fresh is not outcome


class TestAccessMany:
    @given(
        params=cache_params(),
        chunks=st.lists(
            # Runs of nearby addresses (start, length, stride), so that
            # consecutive accesses often share a line.
            st.lists(
                st.tuples(
                    st.integers(0, 1 << 12),
                    st.integers(1, 6),
                    st.integers(0, 8),
                ),
                max_size=30,
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_address_loop(self, params, chunks):
        """Hits, misses and the final LRU order of every set equal a
        per-address ``access`` loop's, over consecutive calls."""
        merged, looped = CacheModel(params), CacheModel(params)
        for runs in chunks:
            chunk = [
                start + stride * step
                for start, length, stride in runs
                for step in range(length)
            ]
            merged.access_many(np.array(chunk, dtype=np.int64))
            for address in chunk:
                looped.access(address)
        assert (merged.hits, merged.misses) == (looped.hits, looped.misses)
        assert merged._sets == looped._sets

    def test_repeats_are_hits_that_keep_lru_order(self):
        cache = small_cache(ways=2, sets=1, line=16)
        cache.access_many(np.array([0x00, 0x04, 0x10, 0x14, 0x18, 0x00]))
        assert (cache.hits, cache.misses) == (4, 2)
        assert cache._sets == [[0, 1]]
