"""Shape tests for the experiment drivers (figures and tables).

These run the real experiments on the real suite — slower than unit
tests but they are the reproduction's acceptance criteria, so they
assert the paper's qualitative claims directly.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    fig1,
    fig6,
    fig7,
    fig8,
    mapping_ablation,
    table1,
    table2,
)
from repro.experiments.common import run_suite
from repro.experiments.speculation import SpeculationResult


@pytest.fixture(scope="module")
def fig1_result():
    return fig1.run()


@pytest.fixture(scope="module")
def fig6_result():
    return fig6.run()


@pytest.fixture(scope="module")
def fig7_result():
    return fig7.run()


@pytest.fixture(scope="module")
def fig8_result():
    return fig8.run()


@pytest.fixture(scope="module")
def table1_result():
    return table1.run()


class TestFig1:
    def test_corner_bias(self, fig1_result):
        assert fig1_result.top_left >= 0.95
        assert fig1_result.bottom_right <= 0.05

    def test_monotone_row_decay(self, fig1_result):
        row_means = fig1_result.utilization.mean(axis=1)
        assert all(a >= b for a, b in zip(row_means, row_means[1:]))

    def test_column_decay(self, fig1_result):
        col_means = fig1_result.utilization.mean(axis=0)
        assert col_means[0] > 2 * col_means[-1]

    def test_render_mentions_paper(self, fig1_result):
        rendered = fig1.render(fig1_result)
        assert "paper" in rendered
        assert "100" in rendered


class TestFig6:
    def test_every_design_point_accelerates(self, fig6_result):
        assert all(p.exec_time_ratio < 1.0 for p in fig6_result.points)

    def test_energy_grows_and_occupation_falls_with_width(self, fig6_result):
        by_shape = {(p.cols, p.rows): p for p in fig6_result.points}
        for cols in (8, 16, 24, 32):
            column = [by_shape[(cols, rows)] for rows in (2, 4, 8)]
            energies = [p.energy_ratio for p in column]
            utils = [p.avg_utilization for p in column]
            assert energies[0] < energies[1] < energies[2]
            assert utils[0] > utils[1] > utils[2]

    def test_named_scenarios_keep_their_roles(self, fig6_result):
        be, bp, bu = (fig6_result.scenarios[k] for k in ("BE", "BP", "BU"))
        # BE is the energy minimum and below the GPP line; BP/BU are the
        # fastest; BU has the lowest occupation.
        assert be.energy_ratio < 1.0
        assert be.energy_ratio < bp.energy_ratio < bu.energy_ratio
        assert bp.speedup >= be.speedup
        assert bu.avg_utilization < bp.avg_utilization < be.avg_utilization
        # The paper's band is ~2.1-2.5x.
        assert 1.5 < be.speedup < 3.0
        assert 1.7 < bp.speedup < 3.2


class TestFig7:
    def test_baseline_peak_and_proposed_flat(self, fig7_result):
        assert fig7_result.baseline_max >= 0.90
        assert fig7_result.flatness >= 0.90
        assert 0.35 <= fig7_result.proposed_max <= 0.60
        # Paper: 94.5 / 41.2 = 2.3x.
        assert fig7_result.baseline_max / fig7_result.proposed_max >= 1.8

    def test_balancing_keeps_the_configurations(self, fig7_result):
        baseline = fig7_result.baseline_run.results
        for name, proposed in fig7_result.proposed_run.results.items():
            assert proposed.instructions == baseline[name].instructions
            assert proposed.cgra.launches == baseline[name].cgra.launches

    def test_mean_stress_conserved(self, fig7_result):
        np.testing.assert_allclose(
            fig7_result.baseline.mean(),
            fig7_result.proposed.mean(),
            rtol=1e-9,
        )

    def test_render_has_both_maps(self, fig7_result):
        rendered = fig7.render(fig7_result)
        assert "Baseline" in rendered
        assert "Proposed" in rendered

    def test_flatness_of_unstressed_map_raises(self):
        zeros = np.zeros((fig7.ROWS, fig7.COLS))
        result = fig7.Fig7Result(zeros, zeros, None, None)
        with pytest.raises(ConfigurationError, match="flatness"):
            result.flatness


class TestSpeculation:
    def test_lifetime_ratio_with_zero_clean_lifetime_raises(self):
        result = SpeculationResult(
            aging={"baseline": {"clean": (0.5, 6.0), "gshare": (0.6, 5.0)}}
        )
        assert result.lifetime_ratio("baseline", "gshare") == 5.0 / 6.0
        result.aging["baseline"]["clean"] = (0.5, 0.0)
        with pytest.raises(ConfigurationError, match="lifetime_ratio"):
            result.lifetime_ratio("baseline", "gshare")


class TestFig8:
    def test_delay_ordering(self, fig8_result):
        for curves in fig8_result.scenarios.values():
            assert (curves.proposed_delay < curves.baseline_delay).all()
            assert (np.diff(curves.baseline_delay) > 0).all()
            assert (np.diff(curves.proposed_delay) > 0).all()
            assert curves.proposed_lifetime > curves.baseline_lifetime

    def test_proposed_distribution_tighter_same_mean(self, fig8_result):
        for curves in fig8_result.scenarios.values():
            assert curves.proposed_values.std() < curves.baseline_values.std()
            np.testing.assert_allclose(
                curves.proposed_values.mean(),
                curves.baseline_values.mean(),
                rtol=1e-9,
            )

    def test_lifetime_trend_with_size(self, fig8_result):
        improvements = [
            c.proposed_lifetime / c.baseline_lifetime
            for c in (
                fig8_result.scenarios["BE"],
                fig8_result.scenarios["BP"],
                fig8_result.scenarios["BU"],
            )
        ]
        assert improvements[0] < improvements[1] < improvements[2]

    def test_three_scenarios(self, fig8_result):
        assert set(fig8_result.scenarios) == {"BE", "BP", "BU"}


class TestTable1:
    def test_improvement_bands(self, table1_result):
        rows = {r.scenario: r for r in table1_result.rows}
        assert 1.7 <= rows["BE"].lifetime_improvement <= 3.2
        assert 3.3 <= rows["BP"].lifetime_improvement <= 6.5
        assert 6.0 <= rows["BU"].lifetime_improvement <= 12.0

    def test_closed_form(self, table1_result):
        for row in table1_result.rows:
            assert row.lifetime_improvement == pytest.approx(
                row.baseline_worst / row.proposed_worst, rel=1e-9
            )

    def test_worst_utilizations_and_size_trends(self, table1_result):
        for row in table1_result.rows:
            assert row.baseline_worst >= 0.90
            # The proposed worst FU approaches the fabric mean from above.
            assert row.proposed_worst >= row.avg_utilization * 0.95
            assert row.proposed_worst <= row.avg_utilization * 1.5
        be, bp, bu = ({r.scenario: r for r in table1_result.rows}[k]
                      for k in ("BE", "BP", "BU"))
        assert (
            be.lifetime_improvement
            < bp.lifetime_improvement
            < bu.lifetime_improvement
        )
        assert be.avg_utilization > bp.avg_utilization > bu.avg_utilization

    def test_render_contains_scenarios(self, table1_result):
        rendered = table1.render(table1_result)
        for name in ("BE", "BP", "BU"):
            assert name in rendered


class TestTable2:
    def test_overheads_under_ten_percent(self):
        result = table2.run()
        assert result.area_overhead < 0.10
        assert result.cell_overhead < 0.10
        assert result.latency_unchanged

    def test_render(self):
        rendered = table2.render(table2.run())
        assert "um^2" in rendered
        assert "120 ps" in rendered


class TestSuiteRunHelpers:
    def test_memoisation_returns_same_object(self):
        first = run_suite(2, 16, policy="baseline")
        second = run_suite(2, 16, policy="baseline")
        assert first is second

    def test_weighting_merges(self):
        from repro.core.utilization import Weighting

        run = run_suite(2, 16, policy="baseline")
        for weighting in Weighting:
            util = run.utilization(weighting)
            assert util.shape == (2, 16)
            assert util.min() >= 0.0
            assert util.max() <= 1.0

    def test_speedup_and_energy_aggregate(self):
        run = run_suite(2, 16, policy="baseline")
        assert run.geomean_speedup() > 1.0
        assert 0.3 < run.energy_ratio() < 1.5


@pytest.fixture(scope="module")
def mapping_result():
    return mapping_ablation.run()


class TestMappingAblation:
    """Acceptance criteria of the pluggable mapping subsystem."""

    def test_four_arms(self, mapping_result):
        assert [arm for arm, *_ in mapping_result.arm_rows] == [
            "neither",
            "mapper-level",
            "allocation-level",
            "combined",
        ]

    def test_cycle_overhead_within_budget(self, mapping_result):
        # The annealing mapper is bounded to the greedy width, so the
        # execution-cycle overhead must stay within 5% (it is 0 by
        # construction; the bound catches timing-model regressions).
        for arm, _, _, overhead in mapping_result.arm_rows:
            assert overhead <= 0.05, arm

    def test_combined_beats_allocation_only_suitewide(self, mapping_result):
        worst = {arm: peak for arm, peak, _, _ in mapping_result.arm_rows}
        assert worst["combined"] <= worst["allocation-level"]
        assert worst["allocation-level"] < worst["neither"]

    def test_combined_wins_on_at_least_two_workloads(self, mapping_result):
        wins = [
            name
            for name, arms in mapping_result.per_workload.items()
            if arms["combined"][0] <= arms["allocation-level"][0]
        ]
        assert len(wins) >= 2, mapping_result.per_workload

    def test_render_has_both_tables(self, mapping_result):
        text = mapping_ablation.render(mapping_result)
        assert "Mapping ablation" in text
        assert "Peak-cell stress per workload" in text


@pytest.fixture(scope="module")
def routing_result():
    from repro.experiments import routing_ablation

    return routing_ablation.run()


class TestRoutingAblation:
    """Acceptance criteria of the context-line router model."""

    def test_three_arms(self, routing_result):
        assert [arm for arm, *_ in routing_result.arm_rows] == [
            "unconstrained",
            "hard-limit",
            "cost-shaped",
        ]

    def test_hard_limit_respects_declared_budget(self, routing_result):
        from repro.experiments.routing_ablation import LINE_BUDGET

        pressures = {
            arm: pressure
            for arm, pressure, _, _ in routing_result.arm_rows
        }
        assert pressures["hard-limit"] <= LINE_BUDGET
        # The unconstrained annealer really does overflow the sizing —
        # otherwise this ablation would be vacuous.
        assert pressures["unconstrained"] > LINE_BUDGET

    def test_cost_term_reduces_pressure_on_two_workloads(
        self, routing_result
    ):
        wins = [
            name
            for name, arms in routing_result.per_workload.items()
            if arms["cost-shaped"][0] < arms["unconstrained"][0]
        ]
        assert len(wins) >= 2, routing_result.per_workload

    def test_cost_term_costs_zero_cycles(self, routing_result):
        overhead = {
            arm: overhead
            for arm, _, _, overhead in routing_result.arm_rows
        }
        # Same unit discovery, same greedy width cap: the congestion
        # term may only re-shuffle within the bounding box.
        assert overhead["cost-shaped"] <= 0.0
        # The hard-limit arm re-shapes units; keep its price visible
        # and bounded.
        assert abs(overhead["hard-limit"]) <= 0.05

    def test_render_has_both_tables(self, routing_result):
        from repro.experiments import routing_ablation

        text = routing_ablation.render(routing_result)
        assert "Routing ablation" in text
        assert "Peak context-line pressure per workload" in text
