"""Schedule-replay vs coupled-walk equivalence.

The two-phase simulation (one policy-independent
:class:`~repro.system.schedule.LaunchSchedule` walk + vectorized
policy replay) must be *bit-identical* to the coupled walk
(``TransRecSystem._run_coupled``, every launch allocated as it is
discovered): same cycles, same fabric/cache counters, same tracker
matrices, same energy floats — for every allocation policy, on every
workload of the verified suite. Stress-coupled pipelines (annealing
with live stress feedback) must refuse to share schedules; a
decoupled annealing configuration (zero stress weight) must share and
stay exact.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignRunner, CampaignSpec, MapperSpec, PolicySpec
from repro.cgra.fabric import FabricGeometry
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import AllocationPolicy, make_policy
from repro.errors import AllocationError, ConfigurationError
from repro.system import (
    SystemParams,
    TransRecSystem,
    clear_schedule_caches,
    compute_schedule,
    replay_schedule,
    schedule_key,
    shared_schedule,
)
from repro.system.schedule import gpp_reference, params_stress_coupled
from repro.workloads.suite import run_workload, workload_names

from tests.support import POLICIES, POLICY_IDS

ROWS, COLS = 4, 16
GEOMETRY = FabricGeometry(rows=ROWS, cols=COLS)



def make_params(policy_name, make_kwargs, **overrides):
    return SystemParams(
        geometry=GEOMETRY,
        policy=policy_name,
        policy_kwargs=make_kwargs(),
        **overrides,
    )


def assert_results_identical(coupled, replayed):
    """Field-by-field bit-identity of two SystemResults."""
    assert coupled.name == replayed.name
    assert coupled.instructions == replayed.instructions
    assert coupled.transrec_cycles == replayed.transrec_cycles
    assert dataclasses.astuple(coupled.cgra) == dataclasses.astuple(
        replayed.cgra
    )
    assert dataclasses.astuple(coupled.cache_stats) == dataclasses.astuple(
        replayed.cache_stats
    )
    assert dataclasses.astuple(coupled.gpp) == dataclasses.astuple(
        replayed.gpp
    )
    # Energy reports are frozen float dataclasses; exact equality is
    # intended — both sides must run the identical float computation.
    assert coupled.gpp_energy == replayed.gpp_energy
    assert coupled.transrec_energy == replayed.transrec_energy
    np.testing.assert_array_equal(
        coupled.tracker.execution_counts, replayed.tracker.execution_counts
    )
    np.testing.assert_array_equal(
        coupled.tracker.cycle_counts, replayed.tracker.cycle_counts
    )
    assert (
        coupled.tracker.total_executions == replayed.tracker.total_executions
    )
    assert coupled.tracker.total_cycles == replayed.tracker.total_cycles
    assert (
        coupled.tracker.config_footprints
        == replayed.tracker.config_footprints
    )


class TestReplayEquivalence:
    @pytest.mark.parametrize("workload", workload_names())
    @pytest.mark.parametrize(
        "policy_name,make_kwargs",
        POLICIES,
        ids=POLICY_IDS,
    )
    def test_bit_identical_across_suite(
        self, workload, policy_name, make_kwargs
    ):
        trace = run_workload(workload)
        params = make_params(policy_name, make_kwargs)
        coupled = TransRecSystem(params)._run_coupled(trace)
        params = make_params(policy_name, make_kwargs)
        replayed = TransRecSystem(params).run_trace(trace)
        assert_results_identical(coupled, replayed)

    def test_run_trace_matches_coupled(self):
        trace = run_workload("sha")
        params = make_params("rotation", dict)
        replayed = TransRecSystem(params).run_trace(trace)
        coupled = TransRecSystem(params)._run_coupled(trace)
        assert_results_identical(coupled, replayed)

    @settings(deadline=None, max_examples=8)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        workload=st.sampled_from(("bitcount", "crc32", "dijkstra")),
    )
    def test_random_policy_property(self, seed, workload):
        trace = run_workload(workload)
        params = SystemParams(
            geometry=GEOMETRY, policy="random", policy_kwargs={"seed": seed}
        )
        coupled = TransRecSystem(params)._run_coupled(trace)
        replayed = TransRecSystem(params).run_trace(trace)
        assert_results_identical(coupled, replayed)


def _distinct_units(schedule, limit=4):
    """The schedule's first ``limit`` distinct launched units."""
    units = []
    for config in schedule.configs:
        if config not in units:
            units.append(config)
        if len(units) == limit:
            break
    return units


def _synthetic_schedule(base, configs, exec_cycles):
    """A real schedule with a hand-built launch stream substituted."""
    return dataclasses.replace(
        base,
        configs=tuple(configs),
        exec_cycles=np.asarray(exec_cycles, dtype=np.int64),
    )


class TestSyntheticScheduleReplay:
    """Per-policy replay ≡ scalar loop on hand-built launch streams:
    heavy interleavings, run-of-1 schedules and mid-batch errors —
    shapes the recorded suite schedules only partially exercise."""

    @pytest.fixture(scope="class")
    def base_schedule(self):
        params = SystemParams(geometry=GEOMETRY)
        return shared_schedule(params, run_workload("bitcount"))

    @settings(deadline=None, max_examples=25)
    @given(
        order=st.lists(
            st.integers(min_value=0, max_value=3), min_size=1, max_size=48
        ),
        policy_index=st.integers(min_value=0, max_value=len(POLICIES) - 1),
    )
    def test_replay_matches_scalar_on_synthetic_streams(
        self, base_schedule, order, policy_index
    ):
        units = _distinct_units(base_schedule)
        configs = [units[index % len(units)] for index in order]
        cycles = [1 + (index * 5) % 9 for index in range(len(order))]
        schedule = _synthetic_schedule(base_schedule, configs, cycles)
        policy_name, make_kwargs = POLICIES[policy_index]
        replayed = replay_schedule(
            schedule, GEOMETRY, make_policy(policy_name, **make_kwargs())
        )
        scalar = ConfigurationAllocator(
            GEOMETRY, make_policy(policy_name, **make_kwargs())
        )
        for config, cyc in zip(configs, cycles):
            scalar.allocate(config, cycles=cyc)
        np.testing.assert_array_equal(
            scalar.tracker.execution_counts,
            replayed.tracker.execution_counts,
        )
        np.testing.assert_array_equal(
            scalar.tracker.cycle_counts, replayed.tracker.cycle_counts
        )
        assert (
            scalar.tracker.config_footprints
            == replayed.tracker.config_footprints
        )

    @pytest.mark.parametrize(
        "policy_name,make_kwargs",
        POLICIES,
        ids=POLICY_IDS,
    )
    def test_run_of_one_schedule_replay(
        self, base_schedule, policy_name, make_kwargs
    ):
        units = _distinct_units(base_schedule)
        configs = [units[index % len(units)] for index in range(40)]
        cycles = [2 + index % 5 for index in range(40)]
        schedule = _synthetic_schedule(base_schedule, configs, cycles)
        replayed = replay_schedule(
            schedule, GEOMETRY, make_policy(policy_name, **make_kwargs())
        )
        scalar = ConfigurationAllocator(
            GEOMETRY, make_policy(policy_name, **make_kwargs())
        )
        for config, cyc in zip(configs, cycles):
            scalar.allocate(config, cycles=cyc)
        np.testing.assert_array_equal(
            scalar.tracker.execution_counts,
            replayed.tracker.execution_counts,
        )

    @pytest.mark.parametrize(
        "policy_name,make_kwargs",
        POLICIES,
        ids=POLICY_IDS,
    )
    def test_mid_batch_error_schedule_replay(
        self, base_schedule, policy_name, make_kwargs
    ):
        """A schedule carrying a unit that cannot fit the replay fabric
        fails identically to the scalar loop, with the accepted prefix
        recorded."""
        units = _distinct_units(base_schedule, limit=2)
        oversized = dataclasses.replace(
            units[0], geometry_rows=GEOMETRY.rows + 1
        )
        configs = [units[index % 2] for index in range(7)]
        configs += [oversized, units[0], units[1]]
        cycles = list(range(1, len(configs) + 1))
        schedule = _synthetic_schedule(base_schedule, configs, cycles)
        policy = make_policy(policy_name, **make_kwargs())
        with pytest.raises(AllocationError):
            replay_schedule(schedule, GEOMETRY, policy)
        scalar = ConfigurationAllocator(
            GEOMETRY, make_policy(policy_name, **make_kwargs())
        )
        with pytest.raises(AllocationError):
            for config, cyc in zip(configs, cycles):
                scalar.allocate(config, cycles=cyc)
        assert scalar.launches == 7


class LegacyProbePolicy(AllocationPolicy):
    """next_pivot-only policy that reads the tracker on every launch,
    used to pin the base-class ``plan_segments`` at system level: the
    row steps per launch, the column is the row's least-executed one."""

    name = "legacy_probe"

    def __init__(self):
        self._step = 0

    def bind(self, geometry):
        super().bind(geometry)
        self._step = 0

    def next_pivot(self, config, tracker):
        row = self._step % self.geometry.rows
        self._step += 1
        return (row, int(np.argmin(tracker.execution_counts[row])))


class TestLegacyPolicyReplay:
    def test_legacy_policy_replay_matches_coupled_walk(self):
        trace = run_workload("bitcount")
        params = SystemParams(geometry=GEOMETRY)
        coupled_allocator = ConfigurationAllocator(
            GEOMETRY, LegacyProbePolicy()
        )
        compute_schedule(params, trace, allocator=coupled_allocator)
        schedule = shared_schedule(params, trace)
        replayed = replay_schedule(schedule, GEOMETRY, LegacyProbePolicy())
        np.testing.assert_array_equal(
            coupled_allocator.tracker.execution_counts,
            replayed.tracker.execution_counts,
        )
        np.testing.assert_array_equal(
            coupled_allocator.tracker.cycle_counts,
            replayed.tracker.cycle_counts,
        )
        assert (
            coupled_allocator.tracker.config_footprints
            == replayed.tracker.config_footprints
        )


class TestStressCoupling:
    def test_annealing_is_stress_coupled(self):
        params = SystemParams(
            geometry=GEOMETRY,
            mapper="annealing",
            mapper_kwargs={"seed": 0},
        )
        assert params_stress_coupled(params)
        assert TransRecSystem(params).stress_coupled

    def test_stress_coupled_point_refuses_replay(self):
        params = SystemParams(
            geometry=GEOMETRY,
            policy="rotation",
            mapper="annealing",
            mapper_kwargs={"seed": 0},
        )
        schedule = compute_schedule(
            params,
            run_workload("bitcount"),
            allocator=ConfigurationAllocator(GEOMETRY, make_policy("rotation")),
        )
        assert schedule.stress_coupled
        with pytest.raises(ConfigurationError, match="stress-coupled"):
            replay_schedule(schedule, GEOMETRY, make_policy("baseline"))

    def test_compute_schedule_refuses_stress_coupled_without_allocator(self):
        params = SystemParams(
            geometry=GEOMETRY,
            mapper="annealing",
            mapper_kwargs={"seed": 0},
        )
        with pytest.raises(ConfigurationError, match="stress-coupled"):
            compute_schedule(params, run_workload("bitcount"))

    def test_stress_coupled_run_trace_takes_the_coupled_walk(self):
        trace = run_workload("bitcount")
        params = SystemParams(
            geometry=GEOMETRY,
            policy="rotation",
            mapper="annealing",
            mapper_kwargs={"seed": 3},
        )
        result = TransRecSystem(params).run_trace(trace)
        coupled = TransRecSystem(params)._run_coupled(trace)
        assert_results_identical(coupled, result)

    def test_zero_stress_weight_annealing_shares_schedules(self):
        trace = run_workload("bitcount")
        params = SystemParams(
            geometry=GEOMETRY,
            policy="rotation",
            mapper="annealing",
            mapper_kwargs={"seed": 0, "stress_weight": 0.0},
        )
        assert not params_stress_coupled(params)
        coupled = TransRecSystem(params)._run_coupled(trace)
        replayed = TransRecSystem(params).run_trace(trace)
        assert_results_identical(coupled, replayed)


class TestScheduleSharing:
    def test_shared_schedule_memoised_across_policies(self):
        clear_schedule_caches()
        trace = run_workload("sha")
        params_a = SystemParams(geometry=GEOMETRY, policy="baseline")
        params_b = SystemParams(geometry=GEOMETRY, policy="stress_aware")
        assert schedule_key(params_a) == schedule_key(params_b)
        first = shared_schedule(params_a, trace)
        second = shared_schedule(params_b, trace)
        assert first is second  # one walk, two policies

    def test_schedule_key_separates_pipelines(self):
        base = SystemParams(geometry=GEOMETRY)
        assert schedule_key(base) != schedule_key(
            SystemParams(geometry=FabricGeometry(rows=2, cols=16))
        )
        assert schedule_key(base) != schedule_key(
            dataclasses.replace(base, config_cache_entries=8)
        )
        assert schedule_key(base) != schedule_key(
            dataclasses.replace(
                base, mapper_kwargs={"row_policy": "round_robin"}
            )
        )
        # The allocation policy axis must NOT split schedules.
        assert schedule_key(base) == schedule_key(
            base.with_policy("random", seed=5)
        )

    def test_gpp_reference_memoised_copies(self):
        clear_schedule_caches()
        trace = run_workload("bitcount")
        params = SystemParams(geometry=GEOMETRY)
        timing_a, energy_a = gpp_reference(trace, params)
        timing_b, energy_b = gpp_reference(trace, params)
        # Equal values, distinct mutable containers (results must not
        # alias across SystemResults).
        assert timing_a is not timing_b
        assert dataclasses.astuple(timing_a) == dataclasses.astuple(timing_b)
        assert energy_a == energy_b

    def test_results_do_not_alias_mutable_stats(self):
        trace = run_workload("bitcount")
        params = SystemParams(geometry=GEOMETRY, policy="baseline")
        system = TransRecSystem(params)
        first = system.run_trace(trace)
        second = system.run_trace(trace)
        assert first.cgra is not second.cgra
        assert first.cache_stats is not second.cache_stats
        assert first.gpp is not second.gpp
        first.cgra.launches += 1
        assert first.cgra.launches == second.cgra.launches + 1


class TestCampaignGrouping:
    def _spec(self):
        return CampaignSpec(
            geometries=((4, 8),),
            policies=(
                PolicySpec.make("baseline"),
                PolicySpec.make("rotation"),
                PolicySpec.make("stress_aware", interval=3),
                PolicySpec.make("random"),
            ),
            seeds=(0, 1),
            workloads=("bitcount", "dijkstra"),
        )

    def test_policy_sweep_collapses_to_one_group(self):
        spec = self._spec()
        points = spec.design_points()
        groups = CampaignRunner().schedule_groups(points)
        assert len(groups) == 1
        assert sorted(groups[0]) == list(range(len(points)))

    def test_stress_coupled_points_get_singleton_groups(self):
        spec = CampaignSpec(
            geometries=((4, 8),),
            policies=(
                PolicySpec.make("baseline"),
                PolicySpec.make("rotation"),
            ),
            mappers=(
                MapperSpec.make("greedy"),
                MapperSpec.make("annealing"),
            ),
            seeds=(0, 1),
            workloads=("bitcount",),
        )
        points = spec.design_points()
        groups = CampaignRunner().schedule_groups(points)
        coupled_indices = [
            index
            for index, point in enumerate(points)
            if point.mapper.name == "annealing"
        ]
        singleton_groups = [group for group in groups if len(group) == 1]
        assert sorted(
            index for group in singleton_groups for index in group
        ) == sorted(coupled_indices)
        # The greedy points all share one walk.
        shared = [group for group in groups if len(group) > 1]
        assert len(shared) == 1

    def test_grouped_campaign_bit_identical_to_coupled(self):
        spec = self._spec()
        shared = CampaignRunner().run(spec)
        for point in spec.design_points():
            params = SystemParams(
                geometry=FabricGeometry(rows=point.rows, cols=point.cols),
                policy=point.policy.name,
                policy_kwargs=point.policy.as_kwargs(),
            )
            for name, result in shared.runs[point].results.items():
                coupled = TransRecSystem(params)._run_coupled(
                    run_workload(name)
                )
                assert_results_identical(coupled, result)

    def test_parallel_grouped_campaign_matches_serial(self):
        spec = self._spec()
        serial = CampaignRunner().run(spec)
        parallel = CampaignRunner(max_workers=2).run(spec)
        for point in spec.design_points():
            for name in serial.runs[point].results:
                assert_results_identical(
                    serial.runs[point].results[name],
                    parallel.runs[point].results[name],
                )


class TestScheduleColumns:
    """The unit columns a schedule hands to replay, and the read-only
    guarantee on everything a memoised schedule shares."""

    @pytest.fixture(scope="class")
    def crc32_schedule(self):
        return shared_schedule(
            SystemParams(geometry=GEOMETRY), run_workload("crc32")
        )

    def test_unit_columns_index_configs_by_identity(self, crc32_schedule):
        schedule = crc32_schedule
        assert schedule.unit_index.dtype == np.int32
        assert len(schedule.unit_index) == schedule.n_launches
        assert [
            schedule.units[index] for index in schedule.unit_index
        ] == list(schedule.configs)
        first_seen = list({id(unit): unit for unit in schedule.configs})
        assert [id(unit) for unit in schedule.units] == first_seen

    def test_replace_recomputes_the_columns(self, crc32_schedule):
        units = _distinct_units(crc32_schedule, limit=2)
        swapped = _synthetic_schedule(
            crc32_schedule, [units[1], units[0], units[1]], [1, 2, 3]
        )
        assert [id(unit) for unit in swapped.units] == [
            id(units[1]), id(units[0])
        ]
        assert swapped.unit_index.tolist() == [0, 1, 0]
        assert not swapped.exec_cycles.flags.writeable

    def test_shared_columns_are_read_only(self, crc32_schedule):
        schedule = crc32_schedule
        first = int(schedule.exec_cycles[0])
        with pytest.raises(ValueError):
            schedule.exec_cycles[0] = 999
        with pytest.raises(ValueError):
            schedule.unit_index[0] = 1
        allocator = ConfigurationAllocator(GEOMETRY, make_policy("rotation"))
        placement = allocator.allocate_batch(
            schedule.configs, cycles=schedule.exec_cycles
        )
        with pytest.raises(ValueError):
            placement.cycles[0] = 999
        assert int(schedule.exec_cycles[0]) == first
        again = shared_schedule(
            SystemParams(geometry=GEOMETRY), run_workload("crc32")
        )
        assert again is schedule
        assert int(again.exec_cycles[0]) == first
