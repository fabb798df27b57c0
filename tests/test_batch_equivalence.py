"""Batched-vs-scalar allocation equivalence.

The vectorized ``allocate_batch`` path must be *bit-identical* to the
scalar launch loop: same execution-count, cycle-count and
config-footprint matrices, same pivots, same errors — for every policy,
on real translation units from the workload suite and on adversarial
synthetic configurations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgra.configuration import PlacedOp, VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.cgra.fu import FUKind
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import (
    AllocationPolicy,
    FoldTables,
    make_policy,
    unit_column,
)
from repro.dbt.window import build_unit
from repro.errors import AllocationError
from repro.workloads.suite import run_workload, workload_names

from tests.support import POLICIES, assert_trackers_equal

ROWS, COLS = 4, 8
GEOMETRY = FabricGeometry(rows=ROWS, cols=COLS)


def build_allocator(policy_name, make_kwargs):
    return ConfigurationAllocator(
        GEOMETRY, make_policy(policy_name, **make_kwargs())
    )


def synthetic_config(cells, start_pc=0x1000):
    ops = tuple(
        PlacedOp(
            op="add", kind=FUKind.ALU, row=row, col=col, width=1,
            trace_offset=index,
        )
        for index, (row, col) in enumerate(cells)
    )
    return VirtualConfiguration(
        start_pc=start_pc,
        pc_path=tuple(start_pc + 4 * i for i in range(len(cells))),
        ops=ops,
        n_instructions=len(cells),
        geometry_rows=ROWS,
        geometry_cols=COLS,
    )


def assert_trackers_identical(scalar, batched):
    assert_trackers_equal(scalar.tracker, batched.tracker)
    assert scalar.launches == batched.launches


@pytest.fixture(scope="module")
def suite_units():
    """Real translation units: one per suite workload (where mappable)."""
    units = []
    for name in workload_names():
        trace = run_workload(name)
        for position in (0, 40, 200):
            unit = build_unit(trace, position, GEOMETRY)
            if unit is not None:
                units.append(unit)
                break
    assert len(units) >= 5, "suite should yield several mappable units"
    return units


@pytest.mark.parametrize("policy_name,make_kwargs", POLICIES)
def test_suite_equivalence_all_policies(suite_units, policy_name, make_kwargs):
    """One big interleaved batch over real suite units matches the
    scalar loop exactly, for every policy."""
    sequence = []
    cycles = []
    for repeat in range(3):
        for index, unit in enumerate(suite_units):
            sequence.extend([unit] * (2 + (index + repeat) % 3))
            cycles.extend(
                7 + (index * 13 + repeat * 5 + offset) % 11
                for offset in range(2 + (index + repeat) % 3)
            )
    scalar = build_allocator(policy_name, make_kwargs)
    batched = build_allocator(policy_name, make_kwargs)
    pivots = [
        scalar.allocate(config, cycles=cyc).pivot
        for config, cyc in zip(sequence, cycles)
    ]
    batch = batched.allocate_batch(sequence, cycles=cycles)
    assert_trackers_identical(scalar, batched)
    np.testing.assert_array_equal(
        batch.pivots, np.asarray(pivots, dtype=np.int64)
    )


@pytest.mark.parametrize("policy_name,make_kwargs", POLICIES)
def test_run_of_one_interleaving_equivalence(
    suite_units, policy_name, make_kwargs
):
    """A fully interleaved schedule — every run has length 1, the
    worst case for per-run planning — matches the scalar loop exactly
    for every policy."""
    distinct = suite_units[:4]
    sequence = [distinct[index % len(distinct)] for index in range(60)]
    cycles = [1 + index % 7 for index in range(60)]
    scalar = build_allocator(policy_name, make_kwargs)
    batched = build_allocator(policy_name, make_kwargs)
    pivots = [
        scalar.allocate(config, cycles=cyc).pivot
        for config, cyc in zip(sequence, cycles)
    ]
    batch = batched.allocate_batch(sequence, cycles=cycles)
    assert_trackers_identical(scalar, batched)
    np.testing.assert_array_equal(
        batch.pivots, np.asarray(pivots, dtype=np.int64)
    )


@settings(max_examples=20, deadline=None)
@given(
    prefix=st.integers(min_value=0, max_value=12),
    interleave=st.booleans(),
    policy_index=st.integers(min_value=0, max_value=len(POLICIES) - 1),
)
def test_property_mid_batch_error_equivalence(prefix, interleave, policy_index):
    """A configuration that cannot fit, appearing mid-sequence, raises
    from both paths with the launches before it recorded identically —
    ``launches`` and the tracker stay in agreement on the error path."""
    small_a = synthetic_config([(0, 0), (1, 3)], start_pc=0x1000)
    small_b = synthetic_config([(2, 1)], start_pc=0x2000)
    oversized = VirtualConfiguration(
        start_pc=0x3000,
        pc_path=(0x3000,),
        ops=(
            PlacedOp(
                op="add", kind=FUKind.ALU, row=0, col=0, width=1,
                trace_offset=0,
            ),
        ),
        n_instructions=1,
        geometry_rows=ROWS + 1,
        geometry_cols=COLS,
    )
    if interleave:
        good = [small_a if index % 2 else small_b for index in range(prefix)]
    else:
        good = [small_a] * prefix
    sequence = good + [oversized] + [small_b] * 3
    policy_name, make_kwargs = POLICIES[policy_index]
    scalar = build_allocator(policy_name, make_kwargs)
    batched = build_allocator(policy_name, make_kwargs)
    with pytest.raises(AllocationError):
        for config in sequence:
            scalar.allocate(config)
    with pytest.raises(AllocationError):
        batched.allocate_batch(sequence)
    # The scalar loop records exactly the launches before the bad
    # config; the batch path may have planned further ahead, but must
    # *record* the same accepted prefix.
    np.testing.assert_array_equal(
        scalar.tracker.execution_counts, batched.tracker.execution_counts
    )
    np.testing.assert_array_equal(
        scalar.tracker.cycle_counts, batched.tracker.cycle_counts
    )
    assert scalar.launches == batched.launches == prefix
    assert batched.tracker.total_executions == prefix


@pytest.mark.parametrize("policy_name,make_kwargs", POLICIES)
def test_chunked_batches_equal_one_batch(suite_units, policy_name, make_kwargs):
    """Splitting a launch sequence into arbitrary chunks leaves the
    accumulated stress unchanged (tracker updates between runs see the
    same state the scalar loop would)."""
    sequence = [unit for unit in suite_units for _ in range(5)]
    whole = build_allocator(policy_name, make_kwargs)
    chunked = build_allocator(policy_name, make_kwargs)
    whole.allocate_batch(sequence, cycles=3)
    boundaries = [0, 1, 4, 7, len(sequence) // 2, len(sequence)]
    for start, stop in zip(boundaries, boundaries[1:]):
        chunked.allocate_batch(sequence[start:stop], cycles=3)
    assert_trackers_identical(whole, chunked)


def test_explicit_pivots_replay(suite_units):
    """Feeding recorded pivots back through ``pivots=`` reproduces the
    policy-driven batch exactly."""
    sequence = [unit for unit in suite_units for _ in range(4)]
    driven = ConfigurationAllocator(GEOMETRY, make_policy("rotation"))
    batch = driven.allocate_batch(sequence, cycles=2)
    replayed = ConfigurationAllocator(GEOMETRY, make_policy("rotation"))
    replayed.allocate_batch(sequence, pivots=batch.pivots, cycles=2)
    assert_trackers_identical(driven, replayed)


class DiagonalPolicy(AllocationPolicy):
    """next_pivot-only policy whose pivots ignore the counts."""

    name = "diagonal_test"

    def __init__(self):
        self._step = 0

    def next_pivot(self, config, counts):
        pivot = (self._step % ROWS, self._step % COLS)
        self._step += 1
        return pivot


class CoolestPivotPolicy(AllocationPolicy):
    """next_pivot-only policy that reads the counts on every launch:
    the pivot whose footprint has the lowest (max, sum) stress, first
    in raster order on ties."""

    name = "coolest_pivot_test"

    def next_pivot(self, config, counts):
        def stress(pivot):
            values = [
                int(
                    counts[
                        (row + pivot[0]) % ROWS * COLS
                        + (col + pivot[1]) % COLS
                    ]
                )
                for row, col in config.cells
            ]
            return max(values), sum(values)

        return min(
            ((row, col) for row in range(ROWS) for col in range(COLS)),
            key=stress,
        )


class LeastBusyColumnPolicy(AllocationPolicy):
    """next_pivot-only policy that reads the whole count vector: the
    row is the sum of all counts so far modulo the rows, the column is
    that row's least-launched one."""

    name = "least_busy_column_test"

    def next_pivot(self, config, counts):
        row = int(counts.sum()) % ROWS
        return (row, int(np.argmin(counts.reshape(ROWS, COLS)[row])))


@pytest.mark.parametrize(
    "policy_cls", [DiagonalPolicy, CoolestPivotPolicy, LeastBusyColumnPolicy]
)
def test_default_plan_pivots_fallback(policy_cls):
    """A policy that only implements the scalar hook runs in a batch
    through the base-class ``plan_pivots``, exactly as the scalar
    loop places it — also when it reads the counts of the launches
    before it in the same run."""
    config = synthetic_config([(0, 0), (1, 3)])
    other = synthetic_config([(0, 1)], start_pc=0x2000)
    sequence = [config] * 6 + [other, other, config, other]
    cycles = [1 + (5 * index) % 7 for index in range(len(sequence))]
    scalar = ConfigurationAllocator(GEOMETRY, policy_cls())
    batched = ConfigurationAllocator(GEOMETRY, policy_cls())
    pivots = [
        scalar.allocate(c, cycles=cyc).pivot
        for c, cyc in zip(sequence, cycles)
    ]
    batch = batched.allocate_batch(sequence, cycles=cycles)
    np.testing.assert_array_equal(
        batch.pivots, np.asarray(pivots, dtype=np.int64)
    )
    assert_trackers_identical(scalar, batched)


@pytest.mark.parametrize(
    "policy_cls", [DiagonalPolicy, CoolestPivotPolicy, LeastBusyColumnPolicy]
)
def test_default_plan_pivots_mid_batch_error(policy_cls):
    """A configuration that cannot fit stops the base-class planner's
    batch where it stops the scalar loop: the launches before it are
    recorded identically, and none after it."""
    config = synthetic_config([(0, 0), (1, 3)])
    other = synthetic_config([(0, 1)], start_pc=0x2000)
    oversized = VirtualConfiguration(
        start_pc=0x3000,
        pc_path=(0x3000,),
        ops=(
            PlacedOp(
                op="add", kind=FUKind.ALU, row=0, col=0, width=1,
                trace_offset=0,
            ),
        ),
        n_instructions=1,
        geometry_rows=ROWS,
        geometry_cols=COLS + 1,
    )
    sequence = [config] * 4 + [other, config, oversized, other, config]
    cycles = [2 + index % 3 for index in range(len(sequence))]
    scalar = ConfigurationAllocator(GEOMETRY, policy_cls())
    batched = ConfigurationAllocator(GEOMETRY, policy_cls())
    with pytest.raises(AllocationError):
        for c, cyc in zip(sequence, cycles):
            scalar.allocate(c, cycles=cyc)
    with pytest.raises(AllocationError):
        batched.allocate_batch(sequence, cycles=cycles)
    assert_trackers_identical(scalar, batched)
    assert batched.launches == 6


@pytest.mark.parametrize("unfit_at", (0, 3))
@pytest.mark.parametrize(
    "policy",
    (
        lambda: make_policy("rotation"),
        lambda: make_policy("stress_aware", interval=2),
        lambda: make_policy("random", seed=0),
        lambda: make_policy("static_remap"),
        lambda: NextPivotOnly(make_policy("stress_aware", interval=2)),
    ),
    ids=("rotation", "stress_aware", "random", "static_remap", "base_class"),
)
def test_failed_batch_leaves_the_policy_where_the_loop_does(policy, unfit_at):
    """A unit that does not fit at launch 0 or 3 of 9 stops a batch
    where it stops the per-launch loop, and the policy is left there
    too: its planner saw only the launches before it, so the next
    ``allocate`` picks the loop's pivot."""
    config = synthetic_config([(0, 0), (1, 3)])
    other = synthetic_config([(0, 1)], start_pc=0x2000)
    oversized = VirtualConfiguration(
        start_pc=0x3000,
        pc_path=(0x3000,),
        ops=(
            PlacedOp(
                op="add", kind=FUKind.ALU, row=0, col=0, width=1,
                trace_offset=0,
            ),
        ),
        n_instructions=1,
        geometry_rows=ROWS,
        geometry_cols=COLS + 1,
    )
    sequence = [config, other, config, config, other] + [config] * 3
    sequence.insert(unfit_at, oversized)
    scalar = ConfigurationAllocator(GEOMETRY, policy())
    batched = ConfigurationAllocator(GEOMETRY, policy())
    with pytest.raises(AllocationError, match="cannot launch"):
        for c in sequence:
            scalar.allocate(c)
    with pytest.raises(AllocationError, match="cannot launch"):
        batched.allocate_batch(sequence)
    assert batched.launches == scalar.launches == unfit_at
    assert batched.allocate(other).pivot == scalar.allocate(other).pivot
    assert_trackers_identical(scalar, batched)


class NextPivotOnly(AllocationPolicy):
    """Hides a policy's own planner: batches of the wrapper run through
    the base-class ``plan_pivots`` and the wrapped ``next_pivot``."""

    name = "next_pivot_only_test"

    def __init__(self, inner):
        self.inner = inner

    def bind(self, geometry):
        super().bind(geometry)
        self.inner.bind(geometry)

    def next_pivot(self, config, counts):
        return self.inner.next_pivot(config, counts)


@pytest.mark.parametrize("policy_name,make_kwargs", POLICIES)
def test_base_class_planner_exact_for_every_policy(
    suite_units, policy_name, make_kwargs
):
    """Planning launch by launch through ``next_pivot`` is exact
    for any policy: it reproduces every built-in policy's own planner
    on an interleaved batch of suite units."""
    sequence = [
        unit
        for repeat in range(2)
        for index, unit in enumerate(suite_units)
        for _ in range(1 + (index + repeat) % 4)
    ]
    cycles = [3 + (7 * index) % 11 for index in range(len(sequence))]
    own = build_allocator(policy_name, make_kwargs)
    fallback = ConfigurationAllocator(
        GEOMETRY, NextPivotOnly(make_policy(policy_name, **make_kwargs()))
    )
    own_batch = own.allocate_batch(sequence, cycles=cycles)
    fallback_batch = fallback.allocate_batch(sequence, cycles=cycles)
    np.testing.assert_array_equal(own_batch.pivots, fallback_batch.pivots)
    assert_trackers_identical(own, fallback)


cell_sets = st.sets(
    st.tuples(st.integers(0, ROWS - 1), st.integers(0, COLS - 1)),
    min_size=1,
    max_size=5,
)


@settings(max_examples=40, deadline=None)
@given(
    footprints=st.lists(cell_sets, min_size=1, max_size=4),
    data=st.data(),
)
def test_explicit_pivots_match_add_at_reference(footprints, data):
    """The batch's grouped stress fold equals accruing every launch on
    its own with ``np.add.at`` over the wrapped physical footprint —
    for any configs, run structure, pivots and cycle weights — and so
    does ``FoldTables.add_counts``, a planner's count of them."""
    configs = [
        synthetic_config(sorted(cells), start_pc=0x1000 * (index + 1))
        for index, cells in enumerate(footprints)
    ]
    n_launches = data.draw(st.integers(1, 24))
    launches = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, len(configs) - 1),
                st.integers(0, ROWS - 1),
                st.integers(0, COLS - 1),
                st.integers(1, 9),
            ),
            min_size=n_launches,
            max_size=n_launches,
        )
    )
    sequence = [configs[pick] for pick, _, _, _ in launches]
    pivots = [(row, col) for _, row, col, _ in launches]
    cycles = [cyc for _, _, _, cyc in launches]
    allocator = ConfigurationAllocator(GEOMETRY, make_policy("baseline"))
    allocator.allocate_batch(sequence, pivots=pivots, cycles=cycles)
    # A planner counts its planned launches with the fold's own tables.
    units, unit_index = unit_column(sequence)
    counted = np.zeros(ROWS * COLS, dtype=np.int64)
    FoldTables(GEOMETRY, units).add_counts(
        counted, unit_index, [row * COLS + col for row, col in pivots]
    )

    executions = np.zeros(ROWS * COLS, dtype=np.int64)
    busy = np.zeros(ROWS * COLS, dtype=np.int64)
    touched = {}
    for config, (prow, pcol), cyc in zip(sequence, pivots, cycles):
        flat = [
            ((row + prow) % ROWS) * COLS + (col + pcol) % COLS
            for row, col in config.cells
        ]
        np.add.at(executions, flat, 1)
        np.add.at(busy, flat, cyc)
        touched.setdefault(config.start_pc, set()).update(
            divmod(cell, COLS) for cell in flat
        )
    tracker = allocator.tracker
    np.testing.assert_array_equal(
        tracker.execution_counts.reshape(-1), executions
    )
    np.testing.assert_array_equal(tracker.cycle_counts.reshape(-1), busy)
    assert tracker.config_footprints == {
        key: frozenset(cells) for key, cells in touched.items()
    }
    assert tracker.total_executions == allocator.launches == n_launches
    assert tracker.total_cycles == sum(cycles)
    np.testing.assert_array_equal(counted, executions)


config_cells = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=ROWS - 1),
        st.integers(min_value=0, max_value=COLS - 1),
    ),
    min_size=1,
    max_size=6,
    unique=True,
)


@settings(max_examples=30, deadline=None)
@given(
    pool=st.lists(config_cells, min_size=1, max_size=4),
    picks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=9),
        ),
        min_size=1,
        max_size=40,
    ),
    policy_index=st.integers(min_value=0, max_value=len(POLICIES) - 1),
)
def test_property_scalar_batch_equivalence(pool, picks, policy_index):
    """Random config pools, launch orders and cycle weights: scalar
    loop and one-shot batch accrue identical stress."""
    configs = [
        synthetic_config(cells, start_pc=0x1000 + 0x40 * index)
        for index, cells in enumerate(pool)
    ]
    sequence = [configs[index % len(configs)] for index, _ in picks]
    cycles = [cyc for _, cyc in picks]
    policy_name, make_kwargs = POLICIES[policy_index]
    scalar = build_allocator(policy_name, make_kwargs)
    batched = build_allocator(policy_name, make_kwargs)
    for config, cyc in zip(sequence, cycles):
        scalar.allocate(config, cycles=cyc)
    batched.allocate_batch(sequence, cycles=cycles)
    assert_trackers_identical(scalar, batched)


class TestBatchValidation:
    def test_oversized_config_rejected(self):
        big = VirtualConfiguration(
            start_pc=0x2000,
            pc_path=(0x2000,),
            ops=(
                PlacedOp(
                    op="add", kind=FUKind.ALU, row=0, col=0, width=1,
                    trace_offset=0,
                ),
            ),
            n_instructions=1,
            geometry_rows=ROWS + 2,
            geometry_cols=COLS,
        )
        allocator = ConfigurationAllocator(GEOMETRY, make_policy("baseline"))
        with pytest.raises(AllocationError):
            allocator.allocate_batch([big])

    def test_bad_pivot_shape_rejected(self):
        config = synthetic_config([(0, 0)])
        allocator = ConfigurationAllocator(GEOMETRY, make_policy("baseline"))
        with pytest.raises(AllocationError):
            allocator.allocate_batch([config, config], pivots=[(0, 0)])

    def test_out_of_range_pivot_rejected(self):
        config = synthetic_config([(0, 0)])
        allocator = ConfigurationAllocator(GEOMETRY, make_policy("baseline"))
        with pytest.raises(AllocationError):
            allocator.allocate_batch([config], pivots=[(ROWS, 0)])

    def test_bad_cycles_length_rejected(self):
        config = synthetic_config([(0, 0)])
        allocator = ConfigurationAllocator(GEOMETRY, make_policy("baseline"))
        with pytest.raises(AllocationError):
            allocator.allocate_batch([config, config], cycles=[1, 2, 3])

    def test_empty_batch_is_noop(self):
        allocator = ConfigurationAllocator(GEOMETRY, make_policy("rotation"))
        batch = allocator.allocate_batch([])
        assert batch.n_launches == 0
        assert allocator.tracker.total_executions == 0

    def test_placement_reconstruction_matches_scalar(self):
        config = synthetic_config([(0, 0), (1, 3), (3, 7)])
        batched = ConfigurationAllocator(GEOMETRY, make_policy("rotation"))
        scalar = ConfigurationAllocator(GEOMETRY, make_policy("rotation"))
        batch = batched.allocate_batch([config] * 8)
        for index in range(8):
            assert batch.placement(index) == scalar.allocate(config)
