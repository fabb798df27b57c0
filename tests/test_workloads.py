"""Tests for the workload suite: correctness, determinism, diversity."""

import pytest

from repro.errors import ConfigurationError
from repro.isa.instructions import InstrClass
from repro.workloads.__main__ import main
from repro.workloads.suite import (
    all_workloads,
    get_workload,
    run_workload,
    workload_names,
)


class TestSuiteIntegrity:
    def test_ten_workloads(self):
        assert len(workload_names()) == 10

    def test_expected_members(self):
        names = workload_names()
        for expected in (
            "bitcount", "crc32", "dijkstra", "qsort", "rijndael", "sha",
            "stringsearch", "susan_smoothing", "susan_edges",
            "susan_corners",
        ):
            assert expected in names

    def test_unknown_workload(self):
        with pytest.raises(ConfigurationError):
            get_workload("linpack")

    def test_all_have_descriptions_and_categories(self):
        for workload in all_workloads():
            assert workload.description
            assert workload.category in (
                "automotive", "network", "security", "office", "telecomm"
            )

    def test_build_is_deterministic(self):
        for name in workload_names():
            first = get_workload(name)
            second = get_workload(name)
            assert first.source == second.source
            assert first.expected_checksum == second.expected_checksum


@pytest.mark.parametrize("name", workload_names())
class TestEachWorkload:
    def test_checksum_verifies(self, name):
        # run_workload raises on reference mismatch.
        trace = run_workload(name)
        assert len(trace) > 1000

    def test_assembles_cleanly(self, name):
        program = get_workload(name).program()
        assert len(program) > 10
        assert program.name == name

    def test_trace_has_control_flow_and_alu(self, name):
        trace = run_workload(name)
        counts = trace.class_counts()
        assert counts.get(InstrClass.ALU, 0) > 0
        assert counts.get(InstrClass.BRANCH, 0) > 0

    def test_trace_named(self, name):
        assert run_workload(name).name == name


class TestSuiteDiversity:
    """The suite must exercise different micro-architectural behaviour,
    like the MiBench categories do."""

    def test_memory_intensity_varies(self):
        fractions = {
            name: run_workload(name).memory_fraction()
            for name in workload_names()
        }
        assert max(fractions.values()) > 2.5 * min(fractions.values())

    def test_some_workload_uses_multiplier(self):
        assert any(
            run_workload(name).class_counts().get(InstrClass.MUL, 0) > 0
            for name in workload_names()
        )

    def test_some_workload_uses_division(self):
        assert any(
            run_workload(name).class_counts().get(InstrClass.DIV, 0) > 0
            for name in workload_names()
        )

    def test_total_suite_size(self):
        total = sum(len(run_workload(name)) for name in workload_names())
        assert 50_000 < total < 500_000  # paper-scale small inputs


class TestWorkloadsCLI:
    def test_verify_one(self, capsys):
        assert main(["bitcount"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_unknown_rejected(self, capsys):
        assert main(["linpack"]) == 1
        assert "unknown" in capsys.readouterr().out

    def test_report(self, capsys):
        """``--report`` appends the BE system report after the
        verification line."""
        assert main(["bitcount", "--report"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "verified" in lines[0]
        assert "=== run report: bitcount ===" in lines
        for section in (
            "performance", "utilization", "aging projection (Eq. 1)",
        ):
            assert section in lines
