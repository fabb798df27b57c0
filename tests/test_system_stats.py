"""Tests for the result containers and their derived metrics."""

import pytest

from repro.cgra.fabric import FabricGeometry
from repro.core.utilization import UtilizationTracker
from repro.dbt.config_cache import ConfigCacheStats
from repro.errors import ConfigurationError
from repro.gpp.timing import GPPTimingResult
from repro.hw.energy import EnergyReport
from repro.system.stats import CGRAStats, SystemResult


def timing(cycles=1000, instructions=800):
    return GPPTimingResult(
        cycles=cycles, instructions=instructions, base_cycles=cycles,
        icache_miss_cycles=0, dcache_miss_cycles=0, mispredict_cycles=0,
        icache_miss_rate=0.0, dcache_miss_rate=0.0,
    )


def energy(total=100.0):
    return EnergyReport(
        gpp_dynamic_pj=total / 2, cache_miss_pj=0.0,
        gpp_background_pj=total / 2, cgra_dynamic_pj=0.0,
        fabric_background_pj=0.0,
    )


def result(gpp_cycles=1000, transrec_cycles=500, committed=600,
           instructions=800, gpp_pj=100.0, transrec_pj=80.0):
    return SystemResult(
        name="demo",
        gpp=timing(cycles=gpp_cycles, instructions=instructions),
        transrec_cycles=transrec_cycles,
        cgra=CGRAStats(committed_instructions=committed),
        cache_stats=ConfigCacheStats(),
        tracker=UtilizationTracker(FabricGeometry(rows=2, cols=8)),
        gpp_energy=energy(gpp_pj),
        transrec_energy=energy(transrec_pj),
        instructions=instructions,
    )


class TestSystemResult:
    def test_speedup_and_time_ratio(self):
        r = result(gpp_cycles=1000, transrec_cycles=500)
        assert r.speedup == 2.0
        assert r.exec_time_ratio == 0.5

    def test_energy_ratio(self):
        r = result(gpp_pj=100.0, transrec_pj=80.0)
        assert r.energy_ratio == pytest.approx(0.8)

    def test_offload_fraction(self):
        r = result(committed=600, instructions=800)
        assert r.offload_fraction == pytest.approx(0.75)

    def test_degenerate_zero_cycles(self):
        """A zero denominator raises instead of reporting parity."""
        with pytest.raises(ConfigurationError, match="speedup"):
            result(transrec_cycles=0).speedup
        with pytest.raises(ConfigurationError, match="exec_time_ratio"):
            result(gpp_cycles=0).exec_time_ratio
        with pytest.raises(ConfigurationError, match="energy_ratio"):
            result(gpp_pj=0.0).energy_ratio

    def test_zero_instructions(self):
        r = result(committed=0, instructions=0)
        assert r.offload_fraction == 0.0


class TestCGRAStats:
    def test_commit_efficiency(self):
        stats = CGRAStats(committed_instructions=90,
                          squashed_instructions=10)
        assert stats.commit_efficiency == pytest.approx(0.9)

    def test_commit_efficiency_empty(self):
        assert CGRAStats().commit_efficiency == 0.0


class TestGPPTimingResult:
    def test_cpi(self):
        assert timing(cycles=1200, instructions=800).cpi == 1.5

    def test_cpi_empty(self):
        assert timing(cycles=0, instructions=0).cpi == 0.0
