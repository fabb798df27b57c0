"""Tests for allocation policies and the configuration allocator."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cgra.configuration import PlacedOp, VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.cgra.fu import FUKind
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import available_policies, make_policy
from repro.core.utilization import UtilizationTracker, Weighting
from repro.errors import AllocationError, ConfigurationError


def config(cells, rows=2, cols=8, start_pc=0x1000):
    """Build a config whose ops are single-column ALUs at `cells`."""
    ops = tuple(
        PlacedOp(op="add", kind=FUKind.ALU, row=r, col=c, width=1,
                 trace_offset=i)
        for i, (r, c) in enumerate(cells)
    )
    return VirtualConfiguration(
        start_pc=start_pc,
        pc_path=tuple(start_pc + 4 * i for i in range(len(cells))),
        ops=ops,
        n_instructions=len(cells),
        geometry_rows=rows,
        geometry_cols=cols,
    )


def allocator(policy_name="baseline", rows=2, cols=8, **kwargs):
    geometry = FabricGeometry(rows=rows, cols=cols)
    return ConfigurationAllocator(geometry, make_policy(policy_name, **kwargs))


class TestRegistry:
    def test_all_policies_registered(self):
        names = available_policies()
        for expected in ("baseline", "rotation", "random", "stress_aware"):
            assert expected in names

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            make_policy("oracle")


class TestBaseline:
    def test_pivot_always_origin(self):
        alloc = allocator("baseline")
        c = config([(0, 0), (1, 1)])
        for _ in range(5):
            placement = alloc.allocate(c)
            assert placement.pivot == (0, 0)
            assert placement.cells == ((0, 0), (1, 1))

    def test_corner_concentration(self):
        alloc = allocator("baseline", rows=2, cols=8)
        c = config([(0, 0)])
        for _ in range(10):
            alloc.allocate(c)
        util = alloc.tracker.utilization()
        assert util[0, 0] == 1.0
        assert util.sum() == 1.0  # nothing anywhere else


class TestRotation:
    def test_pivots_follow_snake(self):
        alloc = allocator("rotation", rows=2, cols=4)
        c = config([(0, 0)], rows=2, cols=4)
        pivots = [alloc.allocate(c).pivot for _ in range(8)]
        assert pivots == [
            (0, 0), (0, 1), (0, 2), (0, 3),
            (1, 3), (1, 2), (1, 1), (1, 0),
        ]

    def test_wrap_around(self):
        alloc = allocator("rotation", rows=2, cols=4)
        c = config([(0, 0), (0, 3), (1, 0)], rows=2, cols=4)
        placements = [alloc.allocate(c) for _ in range(2)]
        # Second launch pivot (0,1): cell (0,3) wraps to (0,0).
        assert placements[1].pivot == (0, 1)
        assert (0, 0) in placements[1].cells

    def test_full_sweep_uniform(self):
        """After exactly rows*cols launches every physical cell has been
        stressed by a single-op config exactly once."""
        alloc = allocator("rotation", rows=2, cols=4)
        c = config([(0, 0)], rows=2, cols=4)
        for _ in range(8):
            alloc.allocate(c)
        counts = alloc.tracker.execution_counts
        assert (counts == 1).all()

    def test_multi_cell_uniform_after_sweep(self):
        alloc = allocator("rotation", rows=2, cols=4)
        c = config([(0, 0), (0, 1), (1, 2)], rows=2, cols=4)
        for _ in range(8):
            alloc.allocate(c)
        counts = alloc.tracker.execution_counts
        assert (counts == 3).all()

    def test_alternative_pattern(self):
        alloc = allocator("rotation", rows=2, cols=4, pattern="raster")
        c = config([(0, 0)], rows=2, cols=4)
        pivots = [alloc.allocate(c).pivot for _ in range(4)]
        assert pivots == [(0, 0), (0, 1), (0, 2), (0, 3)]


class TestRandom:
    def test_deterministic_under_seed(self):
        a = allocator("random", seed=7)
        b = allocator("random", seed=7)
        c = config([(0, 0)])
        pivots_a = [a.allocate(c).pivot for _ in range(20)]
        pivots_b = [b.allocate(c).pivot for _ in range(20)]
        assert pivots_a == pivots_b

    def test_spreads_over_fabric(self):
        alloc = allocator("random", rows=2, cols=8, seed=3)
        c = config([(0, 0)])
        for _ in range(400):
            alloc.allocate(c)
        counts = alloc.tracker.execution_counts
        assert (counts > 0).all()


class TestStressAware:
    def test_balances_at_least_as_well_as_baseline(self):
        c = config([(0, 0), (0, 1)], rows=2, cols=4)
        base = allocator("baseline", rows=2, cols=4)
        aware = allocator("stress_aware", rows=2, cols=4, interval=1)
        for _ in range(32):
            base.allocate(c)
            aware.allocate(c)
        assert (
            aware.tracker.max_utilization() < base.tracker.max_utilization()
        )

    def test_perfect_balance_with_interval_one(self):
        c = config([(0, 0)], rows=2, cols=4)
        aware = allocator("stress_aware", rows=2, cols=4, interval=1)
        for _ in range(32):
            aware.allocate(c)
        counts = aware.tracker.execution_counts
        assert counts.max() - counts.min() <= 1

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            make_policy("stress_aware", interval=0)


class TestAllocatorValidation:
    def test_oversized_config_rejected(self):
        alloc = allocator("baseline", rows=2, cols=8)
        big = config([(0, 0)], rows=4, cols=8)
        with pytest.raises(AllocationError):
            alloc.allocate(big)

    def test_pivot_out_of_range_rejected(self):
        class BadPolicy:
            name = "bad"

            def bind(self, geometry):
                pass

            def next_pivot(self, config_, tracker):
                return (99, 0)

        geometry = FabricGeometry(rows=2, cols=8)
        alloc = ConfigurationAllocator(geometry, BadPolicy())
        with pytest.raises(AllocationError):
            alloc.allocate(config([(0, 0)]))


class TestCycleWeights:
    """Both allocation paths take only integral, non-negative cycle
    weights, and a batch's weights must sum below 2**53 (the float64
    histogram fold counts exactly only up to there). A rejected weight
    leaves the tracker untouched."""

    @staticmethod
    def assert_untouched(alloc):
        assert alloc.launches == 0
        assert alloc.tracker.total_executions == 0
        assert alloc.tracker.total_cycles == 0
        assert not alloc.tracker.cycle_counts.any()

    def test_batch_rejects_non_integral_weights(self):
        alloc = allocator("baseline")
        c = config([(0, 0)])
        with pytest.raises(AllocationError, match="integral"):
            alloc.allocate_batch([c, c], cycles=[1.7, 2.9])
        self.assert_untouched(alloc)

    def test_scalar_rejects_non_integral_weight(self):
        alloc = allocator("baseline")
        with pytest.raises(AllocationError, match="integral"):
            alloc.allocate(config([(0, 0)]), cycles=1.7)
        self.assert_untouched(alloc)

    def test_batch_rejects_negative_weights(self):
        alloc = allocator("baseline")
        c = config([(0, 0)])
        with pytest.raises(AllocationError, match="non-negative"):
            alloc.allocate_batch([c, c], cycles=[3, -5])
        with pytest.raises(AllocationError, match="non-negative"):
            alloc.allocate_batch([c, c], cycles=-5)
        self.assert_untouched(alloc)

    def test_scalar_rejects_negative_weight(self):
        alloc = allocator("baseline")
        with pytest.raises(AllocationError, match="non-negative"):
            alloc.allocate(config([(0, 0)]), cycles=-5)
        self.assert_untouched(alloc)

    def test_batch_rejects_cycle_total_reaching_2_pow_53(self):
        alloc = allocator("baseline")
        c = config([(0, 0)])
        # Summed in int64 these would wrap to -2**63.
        with pytest.raises(AllocationError, match="2\\*\\*53"):
            alloc.allocate_batch([c, c], cycles=[2**62, 2**62])
        with pytest.raises(AllocationError, match="2\\*\\*53"):
            alloc.allocate_batch([c, c], cycles=[2**52, 2**52])
        self.assert_untouched(alloc)
        alloc.allocate_batch([c, c], cycles=[2**52, 2**52 - 1])
        assert alloc.tracker.total_cycles == 2**53 - 1
        assert alloc.tracker.cycle_counts[0, 0] == 2**53 - 1

    def test_scalar_rejects_weight_reaching_2_pow_53(self):
        alloc = allocator("baseline")
        with pytest.raises(AllocationError, match="2\\*\\*53"):
            alloc.allocate(config([(0, 0)]), cycles=2**53)
        self.assert_untouched(alloc)

    def test_integral_floats_and_numpy_ints_accepted_on_both_paths(self):
        c = config([(0, 0), (1, 2)])
        scalar = allocator("rotation")
        batched = allocator("rotation")
        weights = [np.int64(3), 2.0, np.int32(5)]
        for weight in weights:
            scalar.allocate(c, cycles=weight)
        batched.allocate_batch([c] * 3, cycles=np.asarray([3.0, 2.0, 5.0]))
        np.testing.assert_array_equal(
            scalar.tracker.cycle_counts, batched.tracker.cycle_counts
        )
        assert scalar.tracker.total_cycles == batched.tracker.total_cycles == 10
        assert type(scalar.tracker.total_cycles) is int


class TestAllocatorProperties:
    @given(
        pivot_count=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_cells_always_in_bounds(self, pivot_count, seed):
        alloc = allocator("random", rows=2, cols=8, seed=seed)
        c = config([(0, 0), (1, 3), (0, 7)], rows=2, cols=8)
        for _ in range(pivot_count):
            placement = alloc.allocate(c)
            for row, col in placement.cells:
                assert 0 <= row < 2
                assert 0 <= col < 8

    @given(seed=st.integers(min_value=0, max_value=100))
    def test_no_cell_collisions_after_wrap(self, seed):
        alloc = allocator("random", rows=2, cols=8, seed=seed)
        cells = [(0, 0), (0, 1), (1, 0), (1, 7), (0, 4)]
        c = config(cells, rows=2, cols=8)
        placement = alloc.allocate(c)
        assert len(set(placement.cells)) == len(cells)
