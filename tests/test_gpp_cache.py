"""Tests for the set-associative cache model."""

import pytest

from repro.errors import ConfigurationError
from repro.gpp.cache import CacheModel, CacheParams


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

    def test_access_cycles(self):
        cache = small_cache(penalty=7)
        assert cache.access_cycles(0x40) == 7
        assert cache.access_cycles(0x40) == 0

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

    def test_span_cycles_matches_per_access_costing(self):
        addresses = [(i * 52) % 3000 for i in range(400)] + [8, 8, 12, 8]
        one_by_one = small_cache(ways=2, sets=8)
        spanned = small_cache(ways=2, sets=8)
        expected = sum(one_by_one.access_cycles(a) for a in addresses)
        assert spanned.span_cycles(addresses[:150]) + spanned.span_cycles(
            addresses[150:]
        ) == expected
        assert (spanned.hits, spanned.misses) == (
            one_by_one.hits,
            one_by_one.misses,
        )
        # Same LRU state: any later access sequence hits and misses alike.
        probe = list(range(0, 3000, 40))
        assert [spanned.access(a) for a in probe] == [
            one_by_one.access(a) for a in probe
        ]
        assert spanned.span_cycles([]) == 0
