"""Tests for the pluggable mapping subsystem and its plumbing."""

import dataclasses
import json

import numpy as np
import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    MapperSpec,
    PolicySpec,
)
from repro.cgra.configuration import greedy_identity
from repro.cgra.fabric import FabricGeometry
from repro.dbt.config_cache import ConfigCache
from repro.dbt.translator import DBTEngine, DBTLimits
from repro.dbt.window import build_unit, truncate_unit
from repro.errors import ConfigurationError
from repro.mapping import (
    SimulatedAnnealingMapper,
    available_mappers,
    make_mapper,
)
from repro.mapping.legality import check_unit
from repro.system.params import SystemParams
from repro.system.transrec import TransRecSystem
from repro.workloads.suite import run_workload, workload_names

from tests.support import greedy_unit, rec, reset_rec_pcs

GEOMETRY = FabricGeometry(rows=4, cols=16)


def window_of(trace, unit, start=0):
    """The instruction window a unit discovered at ``start`` covers."""
    return [
        trace[start + offset] for offset in range(unit.n_instructions)
    ]


class TestRegistry:
    def test_builtins_registered(self):
        assert available_mappers() == ("annealing", "greedy")

    def test_unknown_mapper_raises(self):
        with pytest.raises(ConfigurationError, match="unknown mapper"):
            make_mapper("quantum")

    def test_identities(self):
        assert make_mapper("greedy").identity() == "greedy"
        assert (
            make_mapper("annealing", seed=7).identity() == "annealing(seed=7)"
        )

    def test_unknown_options_raise_configuration_error(self):
        # Greedy placement is discovery's own: the geometry owns the
        # routing budget and the DBT limits the row policy, so greedy
        # takes no option, and the annealer no line budget.
        with pytest.raises(ConfigurationError, match="'greedy'.*row_policy"):
            make_mapper("greedy", row_policy="round_robin")
        with pytest.raises(ConfigurationError, match="no arguments"):
            make_mapper("greedy", line_budget=4)
        with pytest.raises(ConfigurationError, match="line_budget"):
            make_mapper("annealing", line_budget=4)

    def test_identity_names_every_placement_knob(self):
        # Equal identity must imply identical output, so non-default
        # cost parameters have to show up in the cache namespace.
        a = make_mapper("annealing", seed=0)
        b = make_mapper("annealing", seed=0, stress_weight=5.0)
        assert a.identity() != b.identity()
        assert "stress_weight=5.0" in b.identity()

    def test_invalid_annealing_params_fail_at_construction(self):
        with pytest.raises(ValueError, match="t0"):
            make_mapper("annealing", t0=0.0)
        with pytest.raises(ValueError, match="cooling"):
            make_mapper("annealing", cooling=1.5)
        with pytest.raises(ValueError, match="proposals_per_op"):
            make_mapper("annealing", proposals_per_op=0)


class TestGreedyPipeline:
    """Greedy placement is discovery's: a greedy walk takes no mapper
    options, and its row policy is the DBT's."""

    def test_walk_rejects_greedy_options(self):
        trace = run_workload("crc32")
        params = SystemParams(
            geometry=GEOMETRY,
            mapper="greedy",
            mapper_kwargs={"row_policy": "round_robin"},
        )
        with pytest.raises(ConfigurationError, match="row_policy"):
            TransRecSystem(params).run_trace(trace)

    def test_round_robin_rows_key_their_own_namespace(self):
        # The DBT's round-robin rows place differently, so the walk's
        # units and cache entries carry their own identity, and system
        # runs keep hitting the cache.
        trace = run_workload("crc32")
        limits = DBTLimits(row_policy="round_robin")
        result = TransRecSystem(
            SystemParams(geometry=GEOMETRY, dbt=limits)
        ).run_trace(trace)
        assert result.cache_stats.hits > 0
        unit = build_unit(trace, 0, GEOMETRY, limits)
        assert unit.mapper_key == "greedy(row_policy=round_robin)"
        bare = build_unit(trace, 0, GEOMETRY)
        assert bare.mapper_key == "greedy"
        assert unit.ops != bare.ops


class TestGreedyBitIdentity:
    """Greedy placement is one placement: a discovered window placed
    record by record on a fresh scheduler
    (:func:`tests.support.greedy_unit`, the unit factory of the oracle
    tests) equals discovery's unit op for op, under both DBT row
    policies."""

    @pytest.mark.parametrize("name", workload_names())
    def test_equals_seed_scheduler_on_suite(self, name):
        trace = run_workload(name)
        for row_policy in ("first_fit", "round_robin"):
            limits = DBTLimits(row_policy=row_policy)
            units = 0
            position = 0
            # Walk the trace's unit heads the way the DBT does.
            while position < len(trace) and units < 25:
                unit = build_unit(trace, position, GEOMETRY, limits)
                if unit is None:
                    position += 1
                    continue
                units += 1
                assert unit.mapper_key == greedy_identity(row_policy)
                window = window_of(trace, unit, position)
                assert greedy_unit(window, GEOMETRY, row_policy) == unit
                position += unit.n_instructions
            assert units > 0
        assert make_mapper("greedy").identity() == greedy_identity(
            "first_fit"
        )

    @pytest.mark.parametrize("row_policy", ("first_fit", "round_robin"))
    def test_engine_given_the_greedy_mapper_runs_discovery(self, row_policy):
        # The registered greedy mapper names discovery's own placement:
        # an engine given it keeps discovery's units, in the namespace
        # of the DBT's row policy, like an engine without a mapper.
        trace = run_workload("crc32")
        limits = DBTLimits(row_policy=row_policy)
        heads = np.flatnonzero(DBTEngine.unit_head_flags(trace))[:200]
        translated = []
        for mapper in (None, make_mapper("greedy")):
            engine = DBTEngine(
                geometry=GEOMETRY,
                cache=ConfigCache(
                    capacity=64, mapper_key=greedy_identity(row_policy)
                ),
                limits=limits,
                mapper=mapper,
            )
            assert engine.mapper is None
            assert not engine.stress_coupled
            translated.append(
                [engine.translate_at(trace, int(p)) for p in heads]
            )
        assert translated[0] == translated[1]
        assert sum(unit is not None for unit in translated[0]) > 1


class TestSimulatedAnnealing:
    def unit_and_window(self, name="sha"):
        trace = run_workload(name)
        unit = build_unit(trace, 0, GEOMETRY)
        return unit, window_of(trace, unit)

    def test_refines_only_a_discovery_seed(self):
        unit, window = self.unit_and_window()
        with pytest.raises(ValueError, match="seed"):
            SimulatedAnnealingMapper(seed=3).map_unit(window, GEOMETRY)

    def test_single_op_seed_is_kept_under_the_annealers_identity(self):
        # One op has nowhere better to go: the seed's placement comes
        # back unchanged, filed under the annealer's own namespace.
        reset_rec_pcs()
        window = [rec("add", rd=5, rs1=1, rs2=2)]
        seed = greedy_unit(window, GEOMETRY)
        assert len(seed.ops) == 1
        mapper = SimulatedAnnealingMapper(seed=3)
        unit = mapper.map_unit(window, GEOMETRY, seed=seed)
        assert unit.mapper_key == mapper.identity()
        assert unit.ops == seed.ops
        assert dataclasses.replace(unit, mapper_key=seed.mapper_key) == seed

    def test_deterministic_per_seed(self):
        unit, window = self.unit_and_window()
        first = SimulatedAnnealingMapper(seed=3).map_unit(
            window, GEOMETRY, seed=unit
        )
        second = SimulatedAnnealingMapper(seed=3).map_unit(
            window, GEOMETRY, seed=unit
        )
        assert first == second

    def test_seeds_differ(self):
        unit, window = self.unit_and_window()
        a = SimulatedAnnealingMapper(seed=0).map_unit(
            window, GEOMETRY, seed=unit
        )
        b = SimulatedAnnealingMapper(seed=1).map_unit(
            window, GEOMETRY, seed=unit
        )
        # Same window, same cost model, different anneal trajectories.
        assert a.mapper_key == "annealing(seed=0)"
        assert b.mapper_key == "annealing(seed=1)"
        assert {op.trace_offset for op in a.ops} == {
            op.trace_offset for op in b.ops
        }

    def test_never_grows_critical_path(self):
        for name in ("sha", "crc32", "bitcount"):
            unit, window = self.unit_and_window(name)
            annealed = SimulatedAnnealingMapper(seed=5).map_unit(
                window, GEOMETRY, seed=unit
            )
            assert annealed.used_cols <= unit.used_cols

    def test_preserves_window_metadata(self):
        unit, window = self.unit_and_window()
        annealed = SimulatedAnnealingMapper(seed=5).map_unit(
            window, GEOMETRY, seed=unit
        )
        assert annealed.pc_path == unit.pc_path
        assert annealed.n_instructions == unit.n_instructions
        assert len(annealed.ops) == len(unit.ops)

    def test_balances_rows(self):
        unit, window = self.unit_and_window()
        annealed = SimulatedAnnealingMapper(seed=0).map_unit(
            window, GEOMETRY, seed=unit
        )

        def row_spread(u):
            counts = np.zeros(GEOMETRY.rows)
            for op in u.ops:
                counts[op.row] += op.width
            return counts.max() - counts.min()

        assert row_spread(annealed) < row_spread(unit)

    def test_stress_hint_steers_away_from_hot_cells(self):
        unit, window = self.unit_and_window("crc32")
        hot_row = 0
        hint = np.zeros((GEOMETRY.rows, GEOMETRY.cols), dtype=np.int64)
        hint[hot_row, :] = 1000
        annealed = SimulatedAnnealingMapper(
            seed=2, balance_weight=0.0, stress_weight=5.0
        ).map_unit(window, GEOMETRY, stress_hint=hint, seed=unit)
        greedy_hot = sum(op.width for op in unit.ops if op.row == hot_row)
        sa_hot = sum(op.width for op in annealed.ops if op.row == hot_row)
        assert sa_hot < greedy_hot
        assert check_unit(annealed, window).ok

    def test_truncation_preserves_mapper_key(self):
        unit, window = self.unit_and_window()
        annealed = SimulatedAnnealingMapper(seed=3).map_unit(
            window, GEOMETRY, seed=unit
        )
        shorter = truncate_unit(annealed, annealed.n_instructions - 1)
        assert shorter is not None
        assert shorter.mapper_key == annealed.mapper_key


class TestConfigCacheMapperKeying:
    def unit(self, mapper_key=None):
        trace = run_workload("crc32")
        unit = build_unit(trace, 0, GEOMETRY)
        if mapper_key is None:
            return unit
        mapper = SimulatedAnnealingMapper(seed=9)
        return mapper.map_unit(window_of(trace, unit), GEOMETRY, seed=unit)

    def test_probe_resolves_in_bound_namespace(self):
        greedy_unit = self.unit()
        sa_unit = self.unit("annealing")
        cache = ConfigCache(capacity=8, mapper_key="annealing(seed=9)")
        cache.insert(greedy_unit)  # filed under its own (greedy) key
        assert cache.lookup(greedy_unit.start_pc) is None  # no aliasing
        cache.insert(sa_unit)
        assert cache.lookup(sa_unit.start_pc).unit is sa_unit
        assert len(cache) == 2  # both entries coexist

    def test_default_namespace_matches_default_units(self):
        unit = self.unit()
        cache = ConfigCache(capacity=8)
        cache.insert(unit)
        assert cache.lookup(unit.start_pc).unit is unit
        assert unit.start_pc in cache
        cache.remove(unit.start_pc)
        assert unit.start_pc not in cache

    def test_stress_map_is_live_readonly_view(self):
        from tests.test_core_allocator import allocator, config

        alloc = allocator("baseline", rows=GEOMETRY.rows, cols=GEOMETRY.cols)
        tracker = alloc.tracker
        before = tracker.stress_map.copy()
        unit = config([(0, 0), (1, 2)], rows=GEOMETRY.rows, cols=GEOMETRY.cols)
        alloc.allocate_batch([unit], pivots=[(0, 0)])
        assert tracker.stress_map[0, 0] == before[0, 0] + 1
        with pytest.raises(ValueError):
            tracker.stress_map[0, 0] = 99

    def test_engine_cache_namespace_is_mapper_identity(self):
        trace = run_workload("crc32")
        mapper = SimulatedAnnealingMapper(seed=4)
        cache = ConfigCache(capacity=8, mapper_key=mapper.identity())
        engine = DBTEngine(geometry=GEOMETRY, cache=cache, mapper=mapper)
        unit = engine.translate_at(trace, 0)
        assert unit is not None
        assert unit.mapper_key == mapper.identity()
        assert cache.lookup(unit.start_pc).unit is unit

    def test_engine_rejects_mismatched_cache_namespace(self):
        mapper = SimulatedAnnealingMapper(seed=0)
        with pytest.raises(ConfigurationError, match="namespace"):
            DBTEngine(
                geometry=GEOMETRY,
                cache=ConfigCache(capacity=8),  # default 'greedy' space
                mapper=mapper,
            )


class TestCampaignMapperAxis:
    def test_default_points_unchanged(self):
        spec = CampaignSpec(
            geometries=((2, 8),),
            policies=(PolicySpec.make("baseline"),),
            workloads=("crc32",),
        )
        (point,) = spec.design_points()
        assert point.mapper.is_default
        assert point.key == "L8xW2__baseline"
        assert point.label == "L8xW2/baseline"

    def test_mapper_axis_cross_product(self):
        spec = CampaignSpec(
            geometries=((2, 8),),
            policies=(
                PolicySpec.make("baseline"),
                PolicySpec.make("rotation"),
            ),
            mappers=(
                MapperSpec.make("greedy"),
                MapperSpec.make("annealing", seed=1),
            ),
            workloads=("crc32",),
        )
        points = spec.design_points()
        assert len(points) == 4
        labels = [point.label for point in points]
        assert labels == [
            "L8xW2/baseline",
            "L8xW2/rotation",
            "L8xW2/baseline/annealing(seed=1)",
            "L8xW2/rotation/annealing(seed=1)",
        ]
        assert len({point.key for point in points}) == 4

    def test_seed_expansion_of_seedable_mapper(self):
        spec = CampaignSpec(
            geometries=((2, 8),),
            policies=(PolicySpec.make("baseline"),),
            mappers=(
                MapperSpec.make("greedy"),
                MapperSpec.make("annealing"),
            ),
            seeds=(1, 2),
            workloads=("crc32",),
        )
        mappers = spec.expanded_mappers()
        assert [mapper.label for mapper in mappers] == [
            "greedy",
            "annealing(seed=1)",
            "annealing(seed=2)",
        ]

    def test_jsonable_round_trip(self):
        spec = CampaignSpec(
            geometries=((2, 8),),
            policies=(PolicySpec.make("baseline"),),
            mappers=(MapperSpec.make("annealing", seed=3),),
            workloads=("crc32",),
        )
        assert CampaignSpec.from_jsonable(spec.to_jsonable()) == spec

    def test_manifest_omits_default_mappers(self):
        spec = CampaignSpec(
            geometries=((2, 8),),
            policies=(PolicySpec.make("baseline"),),
            workloads=("crc32",),
        )
        assert "mappers" not in spec.to_jsonable()

    def test_campaign_runs_annealing_mapper(self, tmp_path):
        traces = {"crc32": run_workload("crc32")}
        spec = CampaignSpec(
            geometries=((2, 16),),
            policies=(PolicySpec.make("stress_aware", interval=8),),
            mappers=(MapperSpec.make("annealing", seed=0),),
            workloads=("crc32",),
        )
        runner = CampaignRunner(artifact_dir=tmp_path)
        result = runner.run(spec, traces=traces)
        run = result.only_run()
        assert run.results["crc32"].cgra.launches > 0
        (point,) = result.points
        payload = json.loads((tmp_path / f"{point.key}.json").read_text())
        assert payload["mapper"] == "annealing"
        assert payload["mapper_kwargs"] == {"seed": 0}


class TestSystemLevelAcceptance:
    """SA mapping + stress-aware allocation vs greedy + stress-aware."""

    @pytest.mark.parametrize("name", ["crc32", "sha"])
    def test_combined_beats_allocation_only(self, name):
        trace = run_workload(name)
        geometry = FabricGeometry(rows=2, cols=16)

        def measure(mapper, mapper_kwargs):
            params = SystemParams(
                geometry=geometry,
                policy="stress_aware",
                policy_kwargs={"interval": 8},
                mapper=mapper,
                mapper_kwargs=mapper_kwargs,
            )
            result = TransRecSystem(params).run_trace(trace)
            return result.tracker.max_utilization(), result.transrec_cycles

        greedy_peak, greedy_cycles = measure("greedy", {})
        sa_peak, sa_cycles = measure("annealing", {"seed": 0})
        assert sa_peak <= greedy_peak
        assert sa_cycles <= greedy_cycles * 1.05  # <= 5% overhead

    def test_sa_run_reproducible(self):
        trace = run_workload("bitcount")
        params = SystemParams(
            geometry=FabricGeometry(rows=2, cols=16),
            mapper="annealing",
            mapper_kwargs={"seed": 1},
        )
        first = TransRecSystem(params).run_trace(trace)
        second = TransRecSystem(params).run_trace(trace)
        assert first.transrec_cycles == second.transrec_cycles
        np.testing.assert_array_equal(
            first.tracker.execution_counts, second.tracker.execution_counts
        )
