"""Tests for the energy model."""

import pytest

from repro.cgra.fu import FUKind
from repro.hw.energy import EnergyModel, EnergyParams, SystemActivity
from repro.isa.instructions import InstrClass


def activity(**overrides):
    base = dict(
        cycles=1000,
        gpp_class_counts={InstrClass.ALU: 500, InstrClass.LOAD: 100},
        cache_misses=10,
        cgra_op_counts={FUKind.ALU: 300, FUKind.LOAD: 50},
        launches=40,
        active_column_launches=400,
        cold_config_bits=2000,
        config_cache_accesses=80,
        fabric_cells=32,
    )
    base.update(overrides)
    return SystemActivity(**base)


class TestEnergyModel:
    def test_report_total_is_sum_of_parts(self):
        report = EnergyModel().report(activity())
        assert report.total_pj == pytest.approx(
            report.gpp_dynamic_pj
            + report.cache_miss_pj
            + report.gpp_background_pj
            + report.cgra_dynamic_pj
            + report.fabric_background_pj
        )

    def test_gpp_only_run_has_no_fabric_terms(self):
        report = EnergyModel().report(
            activity(
                cgra_op_counts={}, launches=0, active_column_launches=0,
                cold_config_bits=0, config_cache_accesses=0, fabric_cells=0,
            )
        )
        assert report.cgra_dynamic_pj == 0.0
        assert report.fabric_background_pj == 0.0
        assert report.gpp_dynamic_pj > 0.0

    def test_energy_monotonic_in_cycles(self):
        model = EnergyModel()
        slow = model.report(activity(cycles=2000))
        fast = model.report(activity(cycles=500))
        assert slow.total_pj > fast.total_pj

    def test_fabric_background_sublinear_in_cells(self):
        model = EnergyModel()
        small = model.report(activity(fabric_cells=32)).fabric_background_pj
        large = model.report(activity(fabric_cells=256)).fabric_background_pj
        assert large > small
        assert large < small * 8  # sublinear: 8x cells < 8x power

    def test_class_energies_all_covered(self):
        params = EnergyParams()
        for cls in InstrClass:
            assert cls in params.gpp_class_pj
        for kind in FUKind:
            assert kind in params.cgra_op_pj

    def test_loads_cost_more_than_alu(self):
        params = EnergyParams()
        assert params.gpp_class_pj[InstrClass.LOAD] > params.gpp_class_pj[
            InstrClass.ALU
        ]
        assert params.cgra_op_pj[FUKind.LOAD] > params.cgra_op_pj[FUKind.ALU]

    def test_cgra_ops_cheaper_than_gpp_ops(self):
        """The fabric skips fetch/decode, so per-op energy must be
        lower than the GPP's — the root of the BE energy win."""
        params = EnergyParams()
        assert params.cgra_op_pj[FUKind.ALU] < params.gpp_class_pj[
            InstrClass.ALU
        ]

