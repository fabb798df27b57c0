"""Tests for allocation policies and the configuration allocator."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cgra.configuration import PlacedOp, VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.cgra.fu import FUKind
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import AllocationPolicy, available_policies, make_policy
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

    def test_out_of_range_pivot_names_the_policy_on_both_paths(self):
        """Both entry points blame the policy for its pivot, not the
        explicit-pivots argument ``allocate`` hands the batch; an
        explicit argument is still named as such."""

        class BadPolicy(AllocationPolicy):
            name = "bad"

            def next_pivot(self, config_, tracker):
                return (9, 9)

        geometry = FabricGeometry(rows=2, cols=8)
        message = "policy 'bad' returned pivot (9, 9) outside L8xW2"
        c = config([(0, 0)])
        alloc = ConfigurationAllocator(geometry, BadPolicy())
        with pytest.raises(AllocationError) as scalar:
            alloc.allocate(c)
        assert str(scalar.value) == message
        with pytest.raises(AllocationError) as batch:
            alloc.allocate_batch((c,))
        assert str(batch.value) == message
        assert alloc.launches == 0
        assert alloc.tracker.total_executions == 0
        with pytest.raises(
            AllocationError,
            match=r"^explicit pivots argument returned pivot \(9, 9\)",
        ):
            alloc.allocate_batch((c,), pivots=[(9, 9)])

    @pytest.mark.parametrize(
        "policy_name,kwargs",
        (("rotation", {}), ("random", {"seed": 5}), ("stress_aware", {})),
        ids=("rotation", "random", "stress_aware"),
    )
    def test_rejected_launch_leaves_policy_untouched(self, policy_name, kwargs):
        """A launch rejected for its cycle weight or its fit does not
        consume a policy step: the pivots that follow are those of an
        allocator that never saw it."""
        c = config([(0, 0), (1, 3)])
        rejected = allocator(policy_name, **kwargs)
        clean = allocator(policy_name, **kwargs)
        rejected.allocate(c)
        clean.allocate(c)
        with pytest.raises(AllocationError, match="integral"):
            rejected.allocate(c, cycles=1.7)
        with pytest.raises(AllocationError, match="cannot launch"):
            rejected.allocate(config([(0, 0)], rows=4))
        for _ in range(6):
            assert rejected.allocate(c).pivot == clean.allocate(c).pivot

    def test_malformed_pivot_names_the_policy_on_both_paths(self):
        """A ``next_pivot`` result that is not a (row, col) pair is
        rejected with the same error by ``allocate`` and by the
        base-class planner, and nothing is recorded."""

        class TriplePolicy(AllocationPolicy):
            name = "triple"

            def next_pivot(self, config_, counts):
                return (0, 1, 2)

        c = config([(0, 0)])
        alloc = ConfigurationAllocator(
            FabricGeometry(rows=2, cols=8), TriplePolicy()
        )
        message = (
            r"^policy 'triple' returned pivot \(0, 1, 2\), "
            r"not a \(row, col\) pair$"
        )
        with pytest.raises(AllocationError, match=message):
            alloc.allocate(c)
        with pytest.raises(AllocationError, match=message):
            alloc.allocate_batch((c, c))
        assert alloc.launches == alloc.tracker.total_executions == 0

    def test_explicit_off_fabric_pivot_stops_the_batch_there(self):
        """An explicit pivot off the fabric stops a batch as a planned
        one does: the launches before it are recorded, then the error
        names the argument."""
        c = config([(0, 0), (1, 3)])
        alloc = allocator("baseline")
        with pytest.raises(
            AllocationError,
            match=r"^explicit pivots argument returned pivot \(0, 8\)",
        ):
            alloc.allocate_batch(
                [c] * 4, pivots=[(0, 0), (1, 2), (0, 8), (0, 1)]
            )
        assert alloc.launches == alloc.tracker.total_executions == 2
        assert alloc.tracker.execution_counts.sum() == 4

    def test_unit_beyond_the_fabric_stops_a_planned_batch(self):
        """A unit with cells beyond the fabric stops a stress_aware
        batch with the fit error after the launches before it; the
        planner, which counts each launch into the next search's
        counts, never sees it."""
        small = config([(0, 0), (1, 3)])
        wide = config([(0, 0), (5, 11)], rows=6, cols=12, start_pc=0x2000)
        alloc = allocator("stress_aware", interval=1)
        with pytest.raises(AllocationError, match="cannot launch"):
            alloc.allocate_batch([small, small, wide, small, small])
        assert alloc.launches == alloc.tracker.total_executions == 2


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


class TestPerLaunchFoldTables:
    @pytest.mark.parametrize("policy_name", ("baseline", "rotation"))
    def test_units_sharing_a_start_pc_fold_their_own_cells(self, policy_name):
        """``allocate`` keeps one unit's fold tables for its later
        launches, per unit: two units with one start PC (a re-translation
        after an eviction, say) each stress their own cells, as a batch
        that builds its tables afresh does."""
        narrow = config([(0, 0)], start_pc=0x2000)
        wide = config([(0, 0), (0, 1), (1, 2)], start_pc=0x2000)
        launches = [narrow, wide, narrow, wide, wide, narrow]
        each, batch = allocator(policy_name), allocator(policy_name)
        for unit in launches:
            each.allocate(unit, cycles=2)
        batch.allocate_batch(launches, cycles=2)
        np.testing.assert_array_equal(
            each.tracker.execution_counts, batch.tracker.execution_counts
        )
        np.testing.assert_array_equal(
            each.tracker.cycle_counts, batch.tracker.cycle_counts
        )
        assert each.tracker.config_footprints == batch.tracker.config_footprints
