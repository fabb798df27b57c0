"""Tests for the campaign subsystem (spec, runner, artifacts)."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    MapperSpec,
    PolicySpec,
    SuiteRun,
    evaluate_design_point,
    to_jsonable,
)
from repro.cgra.fabric import FabricGeometry
from repro.errors import ConfigurationError
from repro.workloads.suite import run_workload, workload_names

WORKLOADS = ("bitcount", "crc32")


def small_spec(**overrides):
    base = dict(
        geometries=((2, 8), (2, 16)),
        policies=(PolicySpec.make("baseline"), PolicySpec.make("rotation")),
        workloads=WORKLOADS,
        name="test",
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestPolicySpec:
    def test_make_sorts_kwargs(self):
        spec = PolicySpec.make("rotation", stride=2, pattern="raster")
        assert spec.kwargs == (("pattern", "raster"), ("stride", 2))
        assert spec.as_kwargs() == {"pattern": "raster", "stride": 2}

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            PolicySpec.make("oracle")

    def test_seedable_flag(self):
        assert PolicySpec.make("random").seedable
        assert not PolicySpec.make("baseline").seedable

    def test_label(self):
        assert PolicySpec.make("baseline").label == "baseline"
        assert (
            PolicySpec.make("random", seed=3).label == "random(seed=3)"
        )

    def test_plan_granularity_reflects_policy_class(self):
        assert PolicySpec.make("rotation").plan_granularity == "schedule"
        assert PolicySpec.make("static_remap").plan_granularity == "epoch"
        assert PolicySpec.make("stress_aware").plan_granularity == "interval"


class TestCampaignSpec:
    def test_design_point_product(self):
        points = small_spec().design_points()
        assert len(points) == 4  # 2 geometries x 2 policies
        assert [(p.rows, p.cols, p.policy.name) for p in points] == [
            (2, 8, "baseline"),
            (2, 8, "rotation"),
            (2, 16, "baseline"),
            (2, 16, "rotation"),
        ]
        assert len({p.key for p in points}) == 4

    def test_empty_workloads_resolve_to_full_suite(self):
        spec = small_spec(workloads=())
        assert spec.resolved_workloads() == workload_names()

    def test_seed_expansion_only_for_seedable(self):
        spec = small_spec(
            geometries=((2, 8),),
            policies=(
                PolicySpec.make("baseline"),
                PolicySpec.make("random"),
            ),
            seeds=(1, 2, 3),
        )
        expanded = spec.expanded_policies()
        labels = [policy.label for policy in expanded]
        assert labels == [
            "baseline",
            "random(seed=1)",
            "random(seed=2)",
            "random(seed=3)",
        ]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(geometries=(), policies=(PolicySpec.make("baseline"),))
        with pytest.raises(ConfigurationError):
            CampaignSpec(geometries=((2, 8),), policies=())
        with pytest.raises(ConfigurationError):
            CampaignSpec(
                geometries=((0, 8),), policies=(PolicySpec.make("baseline"),)
            )

    def test_duplicate_design_points_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate design point"):
            small_spec(geometries=((2, 8), (2, 8))).design_points()
        with pytest.raises(ConfigurationError, match="duplicate design point"):
            small_spec(
                geometries=((2, 8),),
                policies=(PolicySpec.make("random"),),
                seeds=(1, 1),
            ).design_points()

    def test_json_round_trip(self):
        spec = small_spec(seeds=(4, 5))
        clone = CampaignSpec.from_jsonable(
            json.loads(json.dumps(spec.to_jsonable()))
        )
        assert clone == spec

    def test_seeds_cross_seeded_policies_and_mappers(self):
        spec = small_spec(
            geometries=((2, 8),),
            policies=(PolicySpec.make("random"),),
            mappers=(MapperSpec.make("annealing"),),
            seeds=(1, 2),
        )
        points = spec.design_points()
        assert [
            (p.mapper.as_kwargs()["seed"], p.policy.as_kwargs()["seed"])
            for p in points
        ] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_manifest_naming_seed_mode_rejected(self):
        payload = small_spec(seeds=(1, 2)).to_jsonable()
        payload["seed_mode"] = "paired"
        with pytest.raises(ConfigurationError, match="seed_mode"):
            CampaignSpec.from_jsonable(payload)

    def test_manifest_naming_an_unknown_kwarg_rejected_at_load(self):
        # A misspelt or retired option fails where the spec is built,
        # naming the component and the keyword, instead of as a bare
        # TypeError inside a walk (which a parallel campaign would
        # quarantine as not retryable).
        payload = small_spec().to_jsonable()
        payload["policies"] = [{"name": "rotation", "kwargs": {"strid": 2}}]
        with pytest.raises(
            ConfigurationError, match="policy 'rotation'.*'strid'"
        ):
            CampaignSpec.from_jsonable(payload)
        payload = small_spec().to_jsonable()
        for mapper in (
            {"name": "annealing", "kwargs": {"line_budgt": 4}},
            {"name": "annealing", "kwargs": {"line_budget": 4}},
            {"name": "greedy", "kwargs": {"row_policy": "round_robin"}},
        ):
            payload["mappers"] = [mapper]
            (keyword,) = mapper["kwargs"]
            with pytest.raises(
                ConfigurationError,
                match=f"mapper '{mapper['name']}'.*'{keyword}'",
            ):
                CampaignSpec.from_jsonable(payload)

    def test_known_kwargs_accepted(self):
        assert PolicySpec.make("rotation", stride=2).as_kwargs() == {
            "stride": 2
        }
        assert MapperSpec.make("annealing", seed=1, t0=2.0).label == (
            "annealing(seed=1,t0=2.0)"
        )


class TestRunner:
    @pytest.fixture(scope="class")
    def campaign_result(self):
        traces = {name: run_workload(name) for name in WORKLOADS}
        return CampaignRunner().run(small_spec(), traces=traces)

    def test_all_points_evaluated(self, campaign_result):
        assert len(campaign_result.runs) == 4
        for point, run in campaign_result:
            assert isinstance(run, SuiteRun)
            assert set(run.results) == set(WORKLOADS)
            assert run.utilization().shape == (point.rows, point.cols)

    def test_rotation_flattens_stress(self, campaign_result):
        by_label = {
            point.label: run for point, run in campaign_result.runs.items()
        }
        baseline = by_label["L8xW2/baseline"]
        rotation = by_label["L8xW2/rotation"]
        assert rotation.max_utilization() < baseline.max_utilization()

    def test_only_run_requires_single_point(self, campaign_result):
        with pytest.raises(ConfigurationError):
            campaign_result.only_run()

    def test_artifacts_written(self, tmp_path):
        traces = {name: run_workload(name) for name in WORKLOADS}
        spec = small_spec(geometries=((2, 8),))
        CampaignRunner(artifact_dir=tmp_path).run(spec, traces=traces)
        manifest = json.loads((tmp_path / "campaign.json").read_text())
        assert manifest["spec"]["name"] == "test"
        assert len(manifest["design_points"]) == 2
        for key in manifest["design_points"]:
            payload = json.loads((tmp_path / f"{key}.json").read_text())
            assert payload["geomean_speedup"] > 0
            assert np.asarray(payload["utilization"]).shape == (2, 8)
            assert set(payload["per_workload"]) == set(WORKLOADS)

    def test_process_pool_matches_serial(self):
        spec = small_spec(
            workloads=("bitcount",),
            policies=(PolicySpec.make("rotation"),),
        )
        serial = CampaignRunner().run(spec)
        pooled = CampaignRunner(max_workers=2).run(spec)
        for point in spec.design_points():
            np.testing.assert_array_equal(
                serial.runs[point].utilization(),
                pooled.runs[point].utilization(),
            )
            assert serial.runs[point].geomean_speedup() == pytest.approx(
                pooled.runs[point].geomean_speedup()
            )

    def test_evaluate_design_point_matches_runner(self):
        spec = small_spec(geometries=((2, 8),), policies=(PolicySpec.make("baseline"),))
        (point,) = spec.design_points()
        direct = evaluate_design_point(point)
        via_runner = CampaignRunner().run(spec).only_run()
        np.testing.assert_array_equal(
            direct.utilization(), via_runner.utilization()
        )


class TestGroupBalancing:
    """``CampaignRunner._balanced_groups``: splitting schedule groups to
    fill the pool."""

    def test_granularity_weighted_balancing_covers_all_points(self):
        spec = small_spec(
            geometries=((2, 8),),
            workloads=("bitcount",),
            policies=(
                PolicySpec.make("baseline"),
                PolicySpec.make("rotation"),
                PolicySpec.make("stress_aware", interval=3),
                PolicySpec.make("static_remap"),
            ),
        )
        points = spec.design_points()
        runner = CampaignRunner()
        groups = runner._balanced_groups(
            runner.schedule_groups(points), 3, points
        )
        assert sorted(
            index for group in groups for index in group
        ) == list(range(len(points)))
        assert len(groups) == 3

    def test_expensive_singleton_does_not_stall_balancing(self):
        """An unsplittable high-cost group (e.g. one stress-coupled
        point) must not stop cheaper multi-point groups from splitting
        to fill the pool."""
        spec = small_spec(
            geometries=((2, 8),),
            workloads=("bitcount",),
            policies=(
                PolicySpec.make("baseline"),
                PolicySpec.make("rotation"),
                PolicySpec.make("stress_aware", interval=3),
            ),
        )
        points = spec.design_points()
        # A singleton whose cost (stress_aware: 4) exceeds the
        # two-point whole-schedule group's (2): with max-by-cost alone the
        # singleton would be picked and the loop would stall at 2
        # payloads.
        groups = [[2], [0, 1]]
        balanced = CampaignRunner()._balanced_groups(groups, 3, points)
        assert len(balanced) == 3
        assert sorted(
            index for group in balanced for index in group
        ) == [0, 1, 2]


class TestSuiteRunGuards:
    def fake_run(self, speedups):
        results = {
            f"w{index}": SimpleNamespace(speedup=value)
            for index, value in enumerate(speedups)
        }
        return SuiteRun(
            geometry=FabricGeometry(rows=2, cols=8),
            policy="baseline",
            results=results,
        )

    def test_geomean_guards_non_positive(self):
        with pytest.raises(ConfigurationError, match="non-positive"):
            self.fake_run([2.0, 0.0]).geomean_speedup()
        with pytest.raises(ConfigurationError, match="non-positive"):
            self.fake_run([2.0, -1.0]).geomean_speedup()

    def test_geomean_guards_empty(self):
        with pytest.raises(ConfigurationError):
            self.fake_run([]).geomean_speedup()

    def test_geomean_normal_path(self):
        assert self.fake_run([2.0, 8.0]).geomean_speedup() == pytest.approx(4.0)


class TestJsonable:
    def test_numpy_and_sets(self):
        payload = to_jsonable(
            {
                "matrix": np.arange(4).reshape(2, 2),
                "scalar": np.int64(7),
                "cells": frozenset({(1, 2), (0, 1)}),
            }
        )
        assert payload["matrix"] == [[0, 1], [2, 3]]
        assert payload["scalar"] == 7
        assert payload["cells"] == [[0, 1], [1, 2]]
        json.dumps(payload)


class TestDeclaredRoutingBudgetAxis:
    """(rows, cols, ctx_lines) geometry entries flow from the spec to
    the fabric and into artifacts."""

    def test_three_tuple_geometry_design_point(self):
        spec = small_spec(geometries=((2, 8), (2, 8, 4)))
        points = spec.design_points()
        assert [(p.rows, p.cols, p.ctx_lines) for p in points[:4:2]] == [
            (2, 8, None),
            (2, 8, 4),
        ]
        # The budgeted point is a distinct key/label; the unbudgeted
        # ones keep their pre-routing names.
        assert points[0].key.startswith("L8xW2__")
        assert points[2].key.startswith("L8xW2xC4__")

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="ctx_lines"):
            small_spec(geometries=((4, 8, 2),))
        with pytest.raises(ConfigurationError, match="geometry entries"):
            small_spec(geometries=((4, 8, 8, 1),)).design_points()

    def test_budget_reaches_the_system(self):
        traces = {"bitcount": run_workload("bitcount")}
        spec = small_spec(
            geometries=((2, 16, 2),),
            policies=(PolicySpec.make("baseline"),),
            workloads=("bitcount",),
        )
        result = CampaignRunner().run(spec, traces=traces)
        run = result.only_run()
        assert run.geometry.routing_budget == 2
        # Translated units were held to the declared budget.
        assert all(
            res.cgra.peak_line_pressure <= 2
            for res in run.results.values()
        )

    def test_budget_recorded_in_artifacts(self, tmp_path):
        traces = {"bitcount": run_workload("bitcount")}
        spec = small_spec(
            geometries=((2, 16, 2),),
            policies=(PolicySpec.make("baseline"),),
            workloads=("bitcount",),
        )
        CampaignRunner(artifact_dir=tmp_path).run(spec, traces=traces)
        manifest = json.loads((tmp_path / "campaign.json").read_text())
        (key,) = manifest["design_points"]
        payload = json.loads((tmp_path / f"{key}.json").read_text())
        assert payload["ctx_lines"] == 2
        assert manifest["spec"]["geometries"] == [[2, 16, 2]]
