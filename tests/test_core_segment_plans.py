"""The sequence-planning policy protocol: segment plans, the schedule
view, the base-class ``plan_segments`` and the allocator's plan
validation.

Companion to ``tests/test_batch_equivalence.py`` (which pins the
engine's bit-identity to the scalar loop): this file pins the protocol
itself — plan granularities, contiguity validation, the one-launch
segments of the base-class planner, and the custom policy in
``examples/adaptive_policy.py``.
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

from repro.cgra.configuration import PlacedOp, VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.cgra.fu import FUKind
from repro.core.allocator import ConfigurationAllocator
from repro.core.patterns import MOVEMENT_PATTERNS, movement_pattern
from repro.core.policy import (
    PLAN_GRANULARITIES,
    AllocationPolicy,
    ScheduleView,
    SegmentPlan,
    make_policy,
    policy_class,
)
from repro.errors import AllocationError

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

    def test_runs_within_slice(self):
        configs = (CONFIG_A, CONFIG_A, CONFIG_B, CONFIG_B, CONFIG_A)
        assert list(ScheduleView(configs).runs(1, 4)) == [
            (CONFIG_A, 1, 2),
            (CONFIG_B, 2, 4),
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=30),
        data=st.data(),
    )
    def test_runs_match_identity_run_loop(self, picks, data):
        """``runs(start, stop)`` over random sequences of 1–4 distinct
        objects equals a plain loop that cuts a run wherever the next
        launch is a different object — also between equal objects."""
        pool = (CONFIG_A, CONFIG_B, dataclasses.replace(CONFIG_A),
                synthetic_config([(3, 7)], 0x4000))
        configs = tuple(pool[pick] for pick in picks)
        start = data.draw(st.integers(0, len(configs)))
        stop = data.draw(st.integers(start, len(configs)))
        reference = []
        position = start
        while position < stop:
            run_stop = position + 1
            while run_stop < stop and configs[run_stop] is configs[position]:
                run_stop += 1
            reference.append((configs[position], position, run_stop))
            position = run_stop
        assert list(ScheduleView(configs).runs(start, stop)) == reference
        if (start, stop) == (0, len(configs)):
            assert list(ScheduleView(configs).runs()) == reference

    def test_cycles_exposed_read_only(self):
        cycles = np.asarray([3, 5], dtype=np.int64)
        view = ScheduleView((CONFIG_A, CONFIG_A), cycles)
        np.testing.assert_array_equal(view.cycles, cycles)
        # The view must not let a planner edit the weights the
        # allocator goes on to record.
        assert not view.cycles.flags.writeable
        with pytest.raises(ValueError):
            view.cycles[0] = 9
        assert ScheduleView((CONFIG_A,)).cycles is None


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
        """Every built-in policy plans its own segments; none falls back
        to the base class's one launch per segment."""
        assert (
            policy_class(name).plan_segments
            is not AllocationPolicy.plan_segments
        )

    def test_whole_schedule_policies_yield_one_segment(self):
        for name in ("baseline", "rotation", "random"):
            policy = make_policy(name)
            policy.bind(GEOMETRY)
            plans = list(
                policy.plan_segments(
                    ScheduleView((CONFIG_A, CONFIG_B, CONFIG_A)), None
                )
            )
            assert [(p.start, p.stop) for p in plans] == [(0, 3)]
            assert plans[0].pivots.shape == (3, 2)
            assert plans[0].n_launches == 3

    def test_static_remap_segments_break_at_new_configs(self):
        policy = make_policy("static_remap")
        allocator = ConfigurationAllocator(GEOMETRY, policy)
        view = ScheduleView(
            (CONFIG_A, CONFIG_A, CONFIG_B, CONFIG_A, CONFIG_B)
        )
        plans = list(policy.plan_segments(view, allocator.tracker))
        # One epoch per first-seen config: [0, 2) closes when B first
        # appears, then [2, 5) runs to the end (no further new configs).
        assert [(p.start, p.stop) for p in plans] == [(0, 2), (2, 5)]

    def test_stress_aware_segments_align_to_search_interval(self):
        policy = make_policy("stress_aware", interval=4)
        allocator = ConfigurationAllocator(GEOMETRY, policy)
        view = ScheduleView((CONFIG_A,) * 10)
        plans = list(policy.plan_segments(view, allocator.tracker))
        assert [(p.start, p.stop) for p in plans] == [(0, 4), (4, 8), (8, 10)]

    def test_stress_aware_segments_resume_mid_interval(self):
        policy = make_policy("stress_aware", interval=4)
        allocator = ConfigurationAllocator(GEOMETRY, policy)
        allocator.allocate(CONFIG_A)
        allocator.allocate(CONFIG_A)
        plans = list(
            policy.plan_segments(
                ScheduleView((CONFIG_A,) * 6), allocator.tracker
            )
        )
        # Two scalar launches consumed the first half of the interval:
        # the first segment only runs to the next search boundary.
        assert [(p.start, p.stop) for p in plans] == [(0, 2), (2, 6)]


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
        plans = list(
            planned.plan_segments(ScheduleView((CONFIG_A,) * count), None)
        )
        assert [(p.start, p.stop) for p in plans] == [(0, count)]
        expected = [walked.next_pivot(CONFIG_A, None) for _ in range(count)]
        np.testing.assert_array_equal(
            plans[0].pivots.reshape(-1, 2),
            np.asarray(expected, dtype=np.int64).reshape(-1, 2),
        )
        # The counter ends where the walk's does.
        assert planned.next_pivot(CONFIG_A, None) == walked.next_pivot(
            CONFIG_A, None
        )

    @pytest.mark.parametrize("interval", [2, 5])
    def test_stress_aware_segments_follow_the_pattern(self, interval):
        """Between searches a stress_aware segment walks the movement
        pattern one step per launch from the searched pivot."""
        policy = make_policy("stress_aware", interval=interval)
        allocator = ConfigurationAllocator(GEOMETRY, policy)
        allocator.allocate_batch([CONFIG_A, CONFIG_B] * 9)
        view = ScheduleView((CONFIG_A, CONFIG_B) * 6)
        pattern = movement_pattern("snake", ROWS, COLS)
        for plan in policy.plan_segments(view, allocator.tracker):
            first = pattern.index(tuple(plan.pivots[0]))
            expected = [
                pattern[(first + step) % len(pattern)]
                for step in range(plan.n_launches)
            ]
            assert [tuple(p) for p in plan.pivots] == expected


class FixedStepPolicy(AllocationPolicy):
    """next_pivot-only policy: raster-walks pivots per launch."""

    name = "fixed_step"

    def __init__(self):
        self._step = 0

    def next_pivot(self, config, tracker):
        pivot = (self._step % ROWS, self._step % COLS)
        self._step += 1
        return pivot


class TestDefaultPlanSegments:
    def test_one_segment_per_launch(self):
        policy = FixedStepPolicy()
        policy.bind(GEOMETRY)
        view = ScheduleView((CONFIG_A, CONFIG_A, CONFIG_B))
        plans = list(policy.plan_segments(view, None))
        assert [(p.start, p.stop) for p in plans] == [(0, 1), (1, 2), (2, 3)]
        np.testing.assert_array_equal(
            np.concatenate([p.pivots for p in plans]),
            [[0, 0], [1, 1], [2, 2]],
        )

    def test_empty_schedule_yields_nothing(self):
        policy = FixedStepPolicy()
        assert list(policy.plan_segments(ScheduleView(()), None)) == []

    def test_plans_lazily_one_next_pivot_per_segment(self):
        """``next_pivot`` runs only when the allocator asks for the next
        segment — after it has folded the previous one into the
        tracker — never ahead of it."""
        calls = []

        class Counting(FixedStepPolicy):
            def next_pivot(self, config, tracker):
                calls.append(config)
                return super().next_pivot(config, tracker)

        plans = Counting().plan_segments(
            ScheduleView((CONFIG_A, CONFIG_B, CONFIG_A)), None
        )
        assert calls == []
        next(plans)
        assert calls == [CONFIG_A]
        next(plans)
        assert calls == [CONFIG_A, CONFIG_B]

    def test_next_pivot_only_batch_emits_no_warning(self):
        """A policy without its own planner is a supported policy, not a
        deprecated one: batching it warns about nothing."""
        allocator = ConfigurationAllocator(GEOMETRY, FixedStepPolicy())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            allocator.allocate_batch([CONFIG_A, CONFIG_A, CONFIG_B])
        assert allocator.launches == 3


class _MisplannedPolicy(AllocationPolicy):
    """Yields whatever segments the test injects."""

    name = "misplanned"

    def __init__(self, plans):
        self._plans = plans

    def next_pivot(self, config, tracker):  # pragma: no cover
        return (0, 0)

    def plan_segments(self, schedule, tracker):
        yield from self._plans


def _zeros(count):
    return np.zeros((count, 2), dtype=np.int64)


class TestPlanValidation:
    def _allocate(self, plans, sequence=None):
        sequence = sequence or [CONFIG_A] * 4
        allocator = ConfigurationAllocator(
            GEOMETRY, _MisplannedPolicy(plans)
        )
        return allocator, lambda: allocator.allocate_batch(sequence)

    def test_gap_between_segments_rejected(self):
        _, run = self._allocate(
            [SegmentPlan(0, 2, _zeros(2)), SegmentPlan(3, 4, _zeros(1))]
        )
        with pytest.raises(AllocationError, match="out of order"):
            run()

    def test_overlapping_segments_rejected(self):
        _, run = self._allocate(
            [SegmentPlan(0, 3, _zeros(3)), SegmentPlan(2, 4, _zeros(2))]
        )
        with pytest.raises(AllocationError, match="out of order"):
            run()

    def test_overrunning_segment_rejected(self):
        _, run = self._allocate([SegmentPlan(0, 9, _zeros(9))])
        with pytest.raises(AllocationError, match="out of order"):
            run()

    def test_short_coverage_rejected(self):
        _, run = self._allocate([SegmentPlan(0, 2, _zeros(2))])
        with pytest.raises(AllocationError, match="covering only 2 of 4"):
            run()

    def test_bad_pivot_shape_rejected(self):
        _, run = self._allocate([SegmentPlan(0, 4, _zeros(3))])
        with pytest.raises(AllocationError, match="shape"):
            run()

    def test_out_of_range_pivot_rejected(self):
        bad = _zeros(4)
        bad[2] = (ROWS, 0)
        _, run = self._allocate([SegmentPlan(0, 4, bad)])
        with pytest.raises(AllocationError, match="outside"):
            run()

    def test_tracker_consistent_after_bad_plan(self):
        """Segments accepted before the error are recorded; launches
        and the tracker agree."""
        allocator, run = self._allocate(
            [SegmentPlan(0, 2, _zeros(2)), SegmentPlan(3, 4, _zeros(1))]
        )
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
        """The two hooks agree for any epoch, not just the demo's: the
        coupled walk (``next_pivot``) and the schedule replay
        (``plan_segments``) place every crc32 launch identically."""
        from repro.system import (
            SystemParams,
            compute_schedule,
            replay_schedule,
            shared_schedule,
        )
        from repro.workloads.suite import run_workload

        geometry = FabricGeometry(rows=4, cols=16)
        params = SystemParams(geometry=geometry)
        trace = run_workload("crc32")
        walked = ConfigurationAllocator(
            geometry, example.CoolestCornerPolicy(epoch=epoch)
        )
        compute_schedule(params, trace, allocator=walked)
        planned = replay_schedule(
            shared_schedule(params, trace),
            geometry,
            example.CoolestCornerPolicy(epoch=epoch),
        )
        np.testing.assert_array_equal(
            walked.tracker.execution_counts,
            planned.tracker.execution_counts,
        )
        np.testing.assert_array_equal(
            walked.tracker.cycle_counts, planned.tracker.cycle_counts
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

    def test_modern_variant_plans_epoch_segments(self, example):
        policy = example.CoolestCornerPolicy(epoch=4)
        policy.bind(GEOMETRY)
        allocator = ConfigurationAllocator(GEOMETRY, policy)
        plans = list(
            policy.plan_segments(
                ScheduleView((CONFIG_A,) * 10), allocator.tracker
            )
        )
        assert [(p.start, p.stop) for p in plans] == [(0, 4), (4, 8), (8, 10)]

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
