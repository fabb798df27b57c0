"""The batch-planning policy protocol: the schedule view, each
policy's ``plan_pivots``, the base-class planner and the allocator's
plan validation.

Companion to ``tests/test_batch_equivalence.py`` (which pins the
engine's bit-identity to the scalar loop): this file pins the protocol
itself — plan granularities, the counts a stress-reading planner sees
at each search, plan shape and pivot validation, the base-class
planner, and the custom policy in ``examples/adaptive_policy.py``.
"""

import dataclasses
import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.stress_aware
from repro.cgra.configuration import PlacedOp, VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.cgra.fu import FUKind
from repro.core.allocator import ConfigurationAllocator
from repro.core.patterns import MOVEMENT_PATTERNS, movement_pattern
from repro.core.policy import (
    PLAN_GRANULARITIES,
    AllocationPolicy,
    ScheduleView,
    make_policy,
    policy_class,
)
from repro.errors import AllocationError
from tests.support import allocate_each, assert_trackers_equal
from tests.test_batch_equivalence import NextPivotOnly

ROWS, COLS = 4, 8
GEOMETRY = FabricGeometry(rows=ROWS, cols=COLS)


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


CONFIG_A = synthetic_config([(0, 0), (1, 1)], start_pc=0x1000)
CONFIG_B = synthetic_config([(0, 2)], start_pc=0x2000)


class TestScheduleView:
    def test_runs_follow_object_identity(self):
        view = ScheduleView((CONFIG_A, CONFIG_A, CONFIG_B, CONFIG_A))
        assert list(view.runs()) == [
            (CONFIG_A, 0, 2),
            (CONFIG_B, 2, 3),
            (CONFIG_A, 3, 4),
        ]
        assert view.n_launches == len(view) == 4

    @settings(max_examples=60, deadline=None)
    @given(picks=st.lists(st.integers(0, 3), max_size=30))
    def test_runs_match_identity_run_loop(self, picks):
        """``runs()`` over random sequences of 0–4 distinct objects
        equals a plain loop that cuts a run wherever the next launch is
        a different object — also between equal objects."""
        pool = (CONFIG_A, CONFIG_B, dataclasses.replace(CONFIG_A),
                synthetic_config([(3, 7)], 0x4000))
        configs = tuple(pool[pick] for pick in picks)
        reference = []
        position = 0
        while position < len(configs):
            run_stop = position + 1
            while (
                run_stop < len(configs)
                and configs[run_stop] is configs[position]
            ):
                run_stop += 1
            reference.append((configs[position], position, run_stop))
            position = run_stop
        assert list(ScheduleView(configs).runs()) == reference


class TestPlanGranularity:
    @pytest.mark.parametrize(
        "name,granularity",
        [
            ("baseline", "schedule"),
            ("rotation", "schedule"),
            ("random", "schedule"),
            ("static_remap", "epoch"),
            ("stress_aware", "interval"),
        ],
    )
    def test_builtin_declarations(self, name, granularity):
        assert policy_class(name).plan_granularity == granularity
        assert granularity in PLAN_GRANULARITIES

    def test_base_class_defaults_to_per_launch(self):
        assert AllocationPolicy.plan_granularity == "launch"


BUILTIN_POLICIES = (
    "baseline",
    "random",
    "rotation",
    "static_remap",
    "stress_aware",
)


class TestBuiltinPlans:
    @pytest.mark.parametrize("name", BUILTIN_POLICIES)
    def test_builtin_policy_overrides_the_planner(self, name):
        """Every built-in policy plans its own batches; none falls back
        to the base class's launch-by-launch planner."""
        assert (
            policy_class(name).plan_pivots
            is not AllocationPolicy.plan_pivots
        )

    def test_whole_schedule_policies_plan_without_counts(self):
        """baseline, rotation and random never read the counts: they
        plan a whole schedule with none at all."""
        for name in ("baseline", "rotation", "random"):
            policy = make_policy(name)
            policy.bind(GEOMETRY)
            pivots = policy.plan_pivots(
                ScheduleView((CONFIG_A, CONFIG_B, CONFIG_A)), None
            )
            assert pivots.shape == (3, 2)
            assert pivots.dtype == np.int64

    def test_stress_aware_searches_align_to_search_interval(self):
        """The batch's searches fall on launches 0, 4 and 8 (counter
        ≡ 1 mod 4), each seeing the per-launch loop's counts, and its
        pivots are the loop's."""
        sequence = (CONFIG_A,) * 10
        pivots, searches = _plan_stress_aware(4, (), sequence)
        _assert_matches_scalar_loop(
            4, (), sequence, pivots, searches, [0, 4, 8]
        )

    def test_stress_aware_searches_resume_mid_interval(self):
        """After two scalar launches the batch's launch 2 carries
        counter 5, so it alone searches; launches 0 and 1 follow the
        pattern from the scalar launches' last pivot."""
        prefix = (CONFIG_A, CONFIG_A)
        sequence = (CONFIG_A,) * 6
        pivots, searches = _plan_stress_aware(4, prefix, sequence)
        _assert_matches_scalar_loop(4, prefix, sequence, pivots, searches, [2])

    @settings(max_examples=40, deadline=None)
    @given(
        pattern=st.sampled_from(sorted(MOVEMENT_PATTERNS)),
        stride=st.integers(1, 9),
        prefix=st.integers(0, 40),
        count=st.integers(0, 70),
    )
    def test_rotation_plan_is_strided_pattern_gather(
        self, pattern, stride, prefix, count
    ):
        """The rotation planner's one gather reproduces the counter
        stepping of ``next_pivot``, from any counter position, for
        counts that wrap the pattern several times."""
        planned = make_policy("rotation", pattern=pattern, stride=stride)
        walked = make_policy("rotation", pattern=pattern, stride=stride)
        planned.bind(GEOMETRY)
        walked.bind(GEOMETRY)
        for _ in range(prefix):
            planned.next_pivot(CONFIG_A, None)
            walked.next_pivot(CONFIG_A, None)
        pivots = planned.plan_pivots(ScheduleView((CONFIG_A,) * count), None)
        expected = [walked.next_pivot(CONFIG_A, None) for _ in range(count)]
        np.testing.assert_array_equal(
            pivots, np.asarray(expected, dtype=np.int64).reshape(-1, 2)
        )
        # The counter ends where the walk's does.
        assert planned.next_pivot(CONFIG_A, None) == walked.next_pivot(
            CONFIG_A, None
        )

    @pytest.mark.parametrize("interval", [2, 5])
    def test_stress_aware_plan_follows_the_pattern(self, interval):
        """Between searches the plan walks the movement pattern one step
        per launch from the searched pivot; the searches fall where the
        counter (18 launches in) is ≡ 1 mod the interval."""
        prefix = [CONFIG_A, CONFIG_B] * 9
        sequence = (CONFIG_A, CONFIG_B) * 6
        planned, searches = _plan_stress_aware(interval, prefix, sequence)
        searched = [i for i in range(12) if (18 + i) % interval == 0]
        pattern = movement_pattern("snake", ROWS, COLS)
        pivots = [tuple(pivot) for pivot in planned.tolist()]
        for index in range(1, 12):
            if index not in searched:
                step = pattern.index(pivots[index - 1]) + 1
                assert pivots[index] == pattern[step % len(pattern)]
        _assert_matches_scalar_loop(
            interval, prefix, sequence, planned, searches, searched
        )

    @settings(max_examples=120, deadline=None)
    @given(
        pattern=st.sampled_from(sorted(MOVEMENT_PATTERNS)),
        interval=st.integers(1, 9),
        shape=st.sampled_from([(4, 8), (3, 10), (1, 7)]),
        data=st.data(),
    )
    def test_stress_aware_cut_batches_match_scalar_loop(
        self, pattern, interval, shape, data
    ):
        """A schedule cut at random points into consecutive
        ``allocate_batch`` calls places every launch as a per-launch
        ``allocate`` loop does: same pivots, same tracker, and the
        policies leave off in the same state (same next pivot). The
        planners are stress_aware's own, static_remap's and the base
        class's (stress_aware behind :class:`NextPivotOnly`)."""
        rows, cols = shape
        geometry = FabricGeometry(rows=rows, cols=cols)
        pool = [
            _config_on(geometry, [(0, 0), (0, 1)], 0x1000),
            _config_on(geometry, [(rows - 1, cols - 1)], 0x2000),
            _config_on(
                geometry, [(0, 2), (rows - 1, 0), (rows // 2, 4)], 0x3000
            ),
        ]
        picks = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=40))
        sequence = [pool[pick] for pick in picks]
        cycles = data.draw(
            st.lists(
                st.integers(0, 5), min_size=len(picks), max_size=len(picks)
            )
        )
        cuts = sorted(
            data.draw(st.sets(st.integers(1, len(picks) - 1), max_size=6))
            if len(picks) > 1
            else ()
        )

        def stress_aware():
            return make_policy(
                "stress_aware", interval=interval, pattern=pattern
            )

        for policy in (
            stress_aware,
            lambda: make_policy("static_remap"),
            lambda: NextPivotOnly(stress_aware()),
        ):
            scalar = ConfigurationAllocator(geometry, policy())
            pivots = [
                scalar.allocate(config, cycles=cycle).pivot
                for config, cycle in zip(sequence, cycles)
            ]
            batched = ConfigurationAllocator(geometry, policy())
            planned = []
            for start, stop in zip([0, *cuts], [*cuts, len(picks)]):
                batch = batched.allocate_batch(
                    sequence[start:stop], cycles=cycles[start:stop]
                )
                planned.extend(
                    tuple(pivot) for pivot in batch.pivots.tolist()
                )
            assert planned == pivots
            assert_trackers_equal(scalar.tracker, batched.tracker)
            assert scalar.policy.next_pivot(
                pool[0], scalar.tracker.execution_counts.reshape(-1)
            ) == batched.policy.next_pivot(
                pool[0], batched.tracker.execution_counts.reshape(-1)
            )


def _config_on(geometry, cells, start_pc):
    """A configuration of single-column ALU ops on ``geometry``."""
    ops = tuple(
        PlacedOp(
            op="add", kind=FUKind.ALU, row=row, col=col, width=1,
            trace_offset=index,
        )
        for index, (row, col) in enumerate(dict.fromkeys(cells))
    )
    return VirtualConfiguration(
        start_pc=start_pc,
        pc_path=tuple(start_pc + 4 * i for i in range(len(ops))),
        ops=ops,
        n_instructions=len(ops),
        geometry_rows=geometry.rows,
        geometry_cols=geometry.cols,
    )


def _plan_stress_aware(interval, prefix, sequence):
    """Plan ``sequence`` with a stress_aware policy whose allocator has
    first placed ``prefix`` per launch. Returns the planned pivots and
    the flat counts each search saw."""
    policy = make_policy("stress_aware", interval=interval)
    allocator = ConfigurationAllocator(GEOMETRY, policy)
    for config in prefix:
        allocator.allocate(config)
    searches = []
    search = repro.core.stress_aware.min_stress_index

    def spy(counts, footprints):
        searches.append(counts.copy())
        return search(counts, footprints)

    counts = np.array(allocator.tracker.execution_counts).reshape(-1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.core.stress_aware, "min_stress_index", spy)
        planned = policy.plan_pivots(ScheduleView(sequence), counts)
    return planned, searches


def _assert_matches_scalar_loop(
    interval, prefix, sequence, planned, searches, searched
):
    """The plan's pivots are a fresh per-launch loop's (the
    ``next_pivot`` reference), and its searches ran exactly before the
    ``searched`` launches, on the counts the loop's tracker held
    there."""
    scalar = ConfigurationAllocator(
        GEOMETRY, make_policy("stress_aware", interval=interval)
    )
    for config in prefix:
        scalar.allocate(config)
    pivots, counts_before = [], []
    for config in sequence:
        counts_before.append(
            scalar.tracker.execution_counts.reshape(-1).copy()
        )
        pivots.append(scalar.allocate(config).pivot)
    assert [tuple(pivot) for pivot in planned.tolist()] == pivots
    assert len(searches) == len(searched)
    for seen, index in zip(searches, searched):
        np.testing.assert_array_equal(seen, counts_before[index])


class FixedStepPolicy(AllocationPolicy):
    """next_pivot-only policy: raster-walks pivots per launch."""

    name = "fixed_step"

    def __init__(self):
        self._step = 0

    def next_pivot(self, config, counts):
        pivot = (self._step % ROWS, self._step % COLS)
        self._step += 1
        return pivot


class TestDefaultPlanPivots:
    def test_empty_schedule_plans_nothing(self):
        policy = FixedStepPolicy()
        policy.bind(GEOMETRY)
        pivots = policy.plan_pivots(ScheduleView(()), np.zeros(ROWS * COLS))
        assert pivots.shape == (0, 2)
        assert policy._step == 0

    def test_next_pivot_only_batch_emits_no_warning(self):
        """A policy without its own planner is a supported policy, not a
        deprecated one: batching it warns about nothing."""
        allocator = ConfigurationAllocator(GEOMETRY, FixedStepPolicy())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            allocator.allocate_batch([CONFIG_A, CONFIG_A, CONFIG_B])
        assert allocator.launches == 3

    def test_stops_asking_at_an_off_fabric_pivot(self):
        """The base-class planner stops calling ``next_pivot`` at the
        first pivot off the fabric, as the per-launch loop stops there:
        the launches before it are recorded, the error names the
        policy, and the policy has stepped as often as the loop's."""

        class RunsOffTheRow(FixedStepPolicy):
            def next_pivot(self, config, counts):
                self._step += 1
                return (0, self._step - 1)

        sequence = [CONFIG_A, CONFIG_B] * 6
        scalar = ConfigurationAllocator(GEOMETRY, RunsOffTheRow())
        with pytest.raises(AllocationError) as stepped:
            for config in sequence:
                scalar.allocate(config)
        batched = ConfigurationAllocator(GEOMETRY, RunsOffTheRow())
        with pytest.raises(AllocationError) as planned:
            batched.allocate_batch(sequence)
        assert str(planned.value) == str(stepped.value) == (
            "policy 'fixed_step' returned pivot (0, 8) outside L8xW4"
        )
        assert batched.launches == scalar.launches == COLS
        assert_trackers_equal(scalar.tracker, batched.tracker)
        assert batched.policy._step == scalar.policy._step == COLS + 1


class _MisplannedPolicy(AllocationPolicy):
    """Plans whatever pivots the test injects."""

    name = "misplanned"

    def __init__(self, pivots):
        self._pivots = pivots

    def next_pivot(self, config, counts):  # pragma: no cover
        return (0, 0)

    def plan_pivots(self, schedule, counts):
        return self._pivots


def _zeros(count):
    return np.zeros((count, 2), dtype=np.int64)


class TestPlanValidation:
    def _allocate(self, pivots, sequence=None):
        sequence = sequence or [CONFIG_A] * 4
        allocator = ConfigurationAllocator(
            GEOMETRY, _MisplannedPolicy(pivots)
        )
        return allocator, lambda: allocator.allocate_batch(sequence)

    def test_bad_pivot_shape_rejected(self):
        allocator, run = self._allocate(_zeros(3))
        with pytest.raises(
            AllocationError,
            match=r"^policy 'misplanned' planned pivots of shape \(3, 2\)",
        ):
            run()
        assert allocator.launches == allocator.tracker.total_executions == 0

    def test_out_of_range_pivot_rejected(self):
        bad = _zeros(4)
        bad[2] = (ROWS, 0)
        _, run = self._allocate(bad)
        with pytest.raises(
            AllocationError,
            match=r"^policy 'misplanned' returned pivot \(4, 0\) outside",
        ):
            run()

    def test_tracker_consistent_after_bad_plan(self):
        """The launches before the first off-fabric pivot are recorded;
        launches and the tracker agree."""
        bad = _zeros(4)
        bad[2:] = (0, -1)
        allocator, run = self._allocate(bad)
        with pytest.raises(AllocationError):
            run()
        assert allocator.launches == 2
        assert allocator.tracker.total_executions == 2


def _load_example(name="example_adaptive_policy"):
    path = Path(__file__).parent.parent / "examples" / "adaptive_policy.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplePolicies:
    """examples/adaptive_policy.py stays on the supported path: its
    custom policy's two hooks place every launch identically."""

    @pytest.fixture(scope="class")
    def example(self):
        return _load_example()

    def test_demo_walk_and_replay_identical(self, example):
        planned, walked = example.demo_custom_policy()
        np.testing.assert_array_equal(
            planned.execution_counts, walked.execution_counts
        )
        np.testing.assert_array_equal(
            planned.cycle_counts, walked.cycle_counts
        )
        assert planned.config_footprints == walked.config_footprints

    @pytest.mark.parametrize("epoch", [3, 5, 7, 16, 64])
    def test_variants_identical_across_epochs(self, example, epoch):
        """The two hooks agree for any epoch, not just the demo's: a
        per-launch ``allocate`` loop (``next_pivot``) and the schedule
        replay (``plan_pivots``) place every crc32 launch
        identically."""
        from repro.system import SystemParams, replay_schedule, shared_schedule
        from repro.workloads.suite import run_workload

        geometry = FabricGeometry(rows=4, cols=16)
        schedule = shared_schedule(
            SystemParams(geometry=geometry), run_workload("crc32")
        )
        stepped = allocate_each(
            schedule, geometry, example.CoolestCornerPolicy(epoch=epoch)
        )
        planned = replay_schedule(
            schedule, geometry, example.CoolestCornerPolicy(epoch=epoch)
        )
        np.testing.assert_array_equal(
            stepped.tracker.execution_counts,
            planned.tracker.execution_counts,
        )
        np.testing.assert_array_equal(
            stepped.tracker.cycle_counts, planned.tracker.cycle_counts
        )

    @pytest.mark.parametrize("epoch", [3, 16])
    def test_modern_variant_matches_scalar_loop(self, example, epoch):
        """The ground truth is the scalar launch loop."""
        sequence = [CONFIG_A, CONFIG_B, CONFIG_B, CONFIG_A] * 9
        scalar = ConfigurationAllocator(
            GEOMETRY, example.CoolestCornerPolicy(epoch=epoch)
        )
        planned = ConfigurationAllocator(
            GEOMETRY, example.CoolestCornerPolicy(epoch=epoch)
        )
        for config in sequence:
            scalar.allocate(config)
        planned.allocate_batch(sequence)
        np.testing.assert_array_equal(
            scalar.tracker.execution_counts,
            planned.tracker.execution_counts,
        )

    def test_modern_variant_re_anchors_once_per_epoch(self, example):
        """The planner reads the counts only where it re-anchors: at
        launches 0, 4 and 8 of a 10-launch batch with epoch 4."""
        policy = example.CoolestCornerPolicy(epoch=4)
        allocator = ConfigurationAllocator(GEOMETRY, policy)
        anchors = []
        re_anchor = policy._re_anchor

        def spy(config, counts):
            anchors.append(int(counts.sum()))
            return re_anchor(config, counts)

        policy._re_anchor = spy
        allocator.allocate_batch((CONFIG_A,) * 10)
        # CONFIG_A stresses two cells per launch.
        assert anchors == [0, 8, 16]

    def test_scalar_and_planned_example_policy_agree(self, example):
        sequence = [CONFIG_A, CONFIG_A, CONFIG_B] * 7
        scalar = ConfigurationAllocator(
            GEOMETRY, example.CoolestCornerPolicy(epoch=5)
        )
        batched = ConfigurationAllocator(
            GEOMETRY, example.CoolestCornerPolicy(epoch=5)
        )
        pivots = [scalar.allocate(c).pivot for c in sequence]
        batch = batched.allocate_batch(sequence)
        np.testing.assert_array_equal(
            batch.pivots, np.asarray(pivots, dtype=np.int64)
        )
        np.testing.assert_array_equal(
            scalar.tracker.execution_counts,
            batched.tracker.execution_counts,
        )
