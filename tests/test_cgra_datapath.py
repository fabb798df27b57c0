"""Tests for configuration execution timing."""

from repro.cgra.configuration import PlacedOp, VirtualConfiguration
from repro.cgra.datapath import (
    DatapathParams,
    configuration_cycles,
    execution_cycles,
    reconfiguration_cycles,
)
from repro.cgra.fabric import FabricGeometry
from repro.cgra.fu import FUKind


def config_with_depth(used_cols, rows=2, cols=32):
    ops = [
        PlacedOp(op="add", kind=FUKind.ALU, row=0, col=c, width=1,
                 trace_offset=c)
        for c in range(used_cols)
    ]
    return VirtualConfiguration(
        start_pc=0x1000,
        pc_path=tuple(0x1000 + 4 * i for i in range(used_cols)),
        ops=tuple(ops),
        n_instructions=used_cols,
        geometry_rows=rows,
        geometry_cols=cols,
    )


class TestExecutionCycles:
    def test_two_columns_per_cycle(self):
        params = DatapathParams()
        assert execution_cycles(params, config_with_depth(1)) == 1
        assert execution_cycles(params, config_with_depth(2)) == 1
        assert execution_cycles(params, config_with_depth(3)) == 2
        assert execution_cycles(params, config_with_depth(8)) == 4

    def test_reconfiguration_bandwidth(self):
        geometry = FabricGeometry(rows=2, cols=32, n_config_lines=4)
        assert reconfiguration_cycles(geometry, config_with_depth(4)) == 1
        assert reconfiguration_cycles(geometry, config_with_depth(5)) == 2
        assert reconfiguration_cycles(geometry, config_with_depth(32)) == 8


class TestTotalCycles:
    def test_warm_launch_hides_reconfig(self):
        geometry = FabricGeometry(rows=2, cols=32)
        params = DatapathParams()
        config = config_with_depth(8)
        warm = configuration_cycles(geometry, params, config)
        # 1 input ctx + 4 exec + 1 writeback
        assert warm == 6

    def test_cold_launch_pays_reconfig(self):
        geometry = FabricGeometry(rows=2, cols=32, n_config_lines=4)
        params = DatapathParams()
        config = config_with_depth(8)
        cold = configuration_cycles(geometry, params, config, cold=True)
        warm = configuration_cycles(geometry, params, config)
        assert cold == warm + 2  # ceil(8/4)

    def test_no_reconfig_overlap_pays_even_when_chained(self):
        geometry = FabricGeometry(rows=2, cols=32, n_config_lines=4)
        params = DatapathParams(overlap_reconfig=False)
        config = config_with_depth(8)
        chained_cold = configuration_cycles(
            geometry, params, config, cold=True, back_to_back=True
        )
        chained_warm = configuration_cycles(
            geometry, params, config, cold=False, back_to_back=True
        )
        assert chained_cold == chained_warm + 2  # ceil(8/4) streamed

    def test_chained_warm_launch_is_pure_execution(self):
        geometry = FabricGeometry(rows=2, cols=32)
        params = DatapathParams()
        config = config_with_depth(8)
        chained = configuration_cycles(
            geometry, params, config, cold=False, back_to_back=True
        )
        assert chained == 4  # ceil(8 cols / 2 per cycle), no I/O charge

    def test_longer_config_takes_longer(self):
        geometry = FabricGeometry(rows=2, cols=32)
        params = DatapathParams()
        short = configuration_cycles(geometry, params, config_with_depth(2))
        long = configuration_cycles(geometry, params, config_with_depth(20))
        assert long > short

    def test_cgra_beats_gpp_on_parallel_work(self):
        """A 2x8 block of ALU ops runs in far fewer cycles than 16 on
        the single-issue GPP -- the premise of the whole system."""
        ops = [
            PlacedOp(op="add", kind=FUKind.ALU, row=r, col=c, width=1,
                     trace_offset=r * 8 + c)
            for r in range(2) for c in range(8)
        ]
        config = VirtualConfiguration(
            start_pc=0x1000,
            pc_path=tuple(0x1000 + 4 * i for i in range(16)),
            ops=tuple(ops),
            n_instructions=16,
            geometry_rows=2,
            geometry_cols=32,
        )
        geometry = FabricGeometry(rows=2, cols=32)
        cycles = configuration_cycles(geometry, DatapathParams(), config)
        assert cycles < 16
