"""Tests for the run-report renderer."""

import pytest

from repro.analysis.report import run_report
from repro.cgra.fabric import FabricGeometry
from repro.system.params import SystemParams
from repro.system.transrec import TransRecSystem
from repro.workloads.suite import run_workload


@pytest.fixture(scope="module")
def result():
    params = SystemParams(
        geometry=FabricGeometry(rows=2, cols=16), policy="baseline"
    )
    return TransRecSystem(params).run_trace(run_workload("bitcount"))


class TestRunReport:
    def test_contains_key_sections(self, result):
        report = run_report(result)
        for keyword in (
            "performance", "energy", "fabric", "utilization",
            "aging projection", "speedup", "bitcount",
        ):
            assert keyword in report

    def test_heatmap_optional(self, result):
        with_map = run_report(result, include_heatmap=True)
        without = run_report(result, include_heatmap=False)
        assert len(with_map) > len(without)
        assert "C16" in with_map
        assert "C16" not in without

    def test_numbers_render(self, result):
        report = run_report(result)
        assert f"{result.instructions:,}" in report
