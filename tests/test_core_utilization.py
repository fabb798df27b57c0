"""Tests for the utilization tracker."""

import numpy as np
import pytest

from repro.cgra.fabric import FabricGeometry
from repro.core.utilization import UtilizationTracker, Weighting
from repro.errors import ConfigurationError


def tracker(rows=2, cols=4):
    return UtilizationTracker(FabricGeometry(rows=rows, cols=cols))


class TestExecutionWeighting:
    def test_single_launch(self):
        t = tracker()
        t.record(0x1000, ((0, 0), (0, 1)))
        util = t.utilization()
        assert util[0, 0] == 1.0
        assert util[0, 1] == 1.0
        assert util[1, 0] == 0.0

    def test_fractional_utilization(self):
        t = tracker()
        t.record(0x1000, ((0, 0),))
        t.record(0x2000, ((0, 1),))
        util = t.utilization()
        assert util[0, 0] == 0.5
        assert util[0, 1] == 0.5

    def test_max_and_mean(self):
        t = tracker(rows=2, cols=2)
        t.record(0x1000, ((0, 0),))
        t.record(0x1000, ((0, 0),))
        t.record(0x2000, ((1, 1),))
        assert t.max_utilization() == pytest.approx(2 / 3)
        assert t.mean_utilization() == pytest.approx((2 / 3 + 1 / 3) / 4)

    def test_empty_tracker(self):
        t = tracker()
        assert t.max_utilization() == 0.0
        assert t.mean_utilization() == 0.0
        with pytest.raises(ConfigurationError, match="balance_ratio"):
            t.balance_ratio()


class TestCycleWeighting:
    def test_cycles_weight_longer_configs_heavier(self):
        t = tracker()
        t.record(0x1000, ((0, 0),), cycles=9)
        t.record(0x2000, ((0, 1),), cycles=1)
        util = t.utilization(Weighting.CYCLES)
        assert util[0, 0] == pytest.approx(0.9)
        assert util[0, 1] == pytest.approx(0.1)
        # Execution weighting sees them as equal.
        exec_util = t.utilization(Weighting.EXECUTIONS)
        assert exec_util[0, 0] == exec_util[0, 1] == 0.5


class TestConfigWeighting:
    def test_counts_distinct_configs_once(self):
        t = tracker()
        for _ in range(10):
            t.record(0x1000, ((0, 0),))
        t.record(0x2000, ((0, 0), (0, 1)))
        util = t.utilization(Weighting.CONFIGS)
        assert util[0, 0] == 1.0     # both configs touch it
        assert util[0, 1] == 0.5     # only one of two configs
        assert t.n_configs == 2

    def test_config_footprint_unions_moving_allocations(self):
        t = tracker()
        t.record(0x1000, ((0, 0),))
        t.record(0x1000, ((0, 1),))  # same config allocated elsewhere
        util = t.utilization(Weighting.CONFIGS)
        assert util[0, 0] == 1.0
        assert util[0, 1] == 1.0


    def test_footprints_survive_many_configs(self):
        """Footprint storage grows as keys arrive; every key keeps its
        own cells, in first-record order."""
        t = tracker(rows=2, cols=4)
        keys = [0x1000 + 4 * index for index in range(11)]
        for index, key in enumerate(keys):
            t.record(key, ((index % 2, index % 4),))
            t.record(keys[0], ((1, 3),))
        assert t.n_configs == len(keys)
        footprints = t.config_footprints
        assert list(footprints) == keys
        assert footprints[keys[0]] == {(0, 0), (1, 3)}
        for index, key in enumerate(keys[1:], start=1):
            assert footprints[key] == {(index % 2, index % 4)}
        util = t.utilization(Weighting.CONFIGS)
        # (1, 3): keys[0] and the keys recorded at indices 3 and 7.
        assert util[1, 3] == pytest.approx(3 / 11)

class TestDerived:
    def test_balance_ratio(self):
        t = tracker(rows=1, cols=2)
        t.record(0x1000, ((0, 0),))
        # max = 1.0, mean = 0.5
        assert t.balance_ratio() == pytest.approx(0.5)

    def test_utilization_values_flat(self):
        t = tracker(rows=2, cols=2)
        t.record(0x1000, ((0, 0), (1, 1)))
        values = t.utilization_values()
        assert values.shape == (4,)
        assert values.sum() == pytest.approx(2.0)

    def test_execution_counts_read_only(self):
        t = tracker()
        t.record(0x1000, ((0, 0),))
        counts = t.execution_counts
        with pytest.raises(ValueError):
            counts[0, 0] = 99
