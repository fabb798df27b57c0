"""Tests for fabric geometry, FU latencies and configurations."""

import pytest

from repro.cgra.configuration import PlacedOp, VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.cgra.fu import (
    COLUMNS_PER_CYCLE,
    FUKind,
    fu_kind_for,
    is_mappable,
    latency_columns,
)
from repro.errors import ConfigurationError
from repro.isa.instructions import InstrClass


class TestGeometry:
    def test_basic_properties(self):
        geometry = FabricGeometry(rows=2, cols=16)
        assert geometry.n_cells == 32
        assert str(geometry) == "L16xW2"

    def test_default_ctx_lines(self):
        assert FabricGeometry(rows=4, cols=8).ctx_lines == 8

    def test_cells_iteration_raster_order(self):
        geometry = FabricGeometry(rows=2, cols=3)
        assert list(geometry.cells()) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)
        ]

    def test_contains(self):
        geometry = FabricGeometry(rows=2, cols=4)
        assert geometry.contains(1, 3)
        assert not geometry.contains(2, 0)
        assert not geometry.contains(0, 4)
        assert not geometry.contains(-1, 0)

    def test_wrap(self):
        geometry = FabricGeometry(rows=2, cols=4)
        assert geometry.wrap(2, 4) == (0, 0)
        assert geometry.wrap(3, 5) == (1, 1)
        assert geometry.wrap(-1, -1) == (1, 3)

    def test_cell_index(self):
        geometry = FabricGeometry(rows=2, cols=4)
        assert geometry.cell_index(0, 0) == 0
        assert geometry.cell_index(1, 3) == 7
        with pytest.raises(ConfigurationError):
            geometry.cell_index(2, 0)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            FabricGeometry(rows=0, cols=8)
        with pytest.raises(ConfigurationError):
            FabricGeometry(rows=64, cols=8)
        with pytest.raises(ConfigurationError):
            FabricGeometry(rows=2, cols=1)
        with pytest.raises(ConfigurationError):
            FabricGeometry(rows=2, cols=8, n_config_lines=0)
        with pytest.raises(ConfigurationError):
            FabricGeometry(rows=4, cols=8, ctx_lines=2)


class TestFUKinds:
    def test_latencies_match_paper(self):
        assert latency_columns(FUKind.ALU) == 1
        assert latency_columns(FUKind.LOAD) == 4
        assert latency_columns(FUKind.STORE) == 4
        assert COLUMNS_PER_CYCLE == 2  # ALU = half processor cycle

    def test_class_mapping(self):
        assert fu_kind_for(InstrClass.ALU) is FUKind.ALU
        assert fu_kind_for(InstrClass.MUL) is FUKind.MUL
        assert fu_kind_for(InstrClass.LOAD) is FUKind.LOAD
        assert fu_kind_for(InstrClass.STORE) is FUKind.STORE
        assert fu_kind_for(InstrClass.BRANCH) is FUKind.ALU

    def test_unmappable_classes(self):
        assert fu_kind_for(InstrClass.DIV) is None
        assert fu_kind_for(InstrClass.SYSTEM) is None
        assert fu_kind_for(InstrClass.JUMP) is None
        assert not is_mappable(InstrClass.DIV)


def make_config(ops, rows=2, cols=8, start_pc=0x1000):
    return VirtualConfiguration(
        start_pc=start_pc,
        pc_path=tuple(start_pc + 4 * i for i in range(len(ops))),
        ops=tuple(ops),
        n_instructions=len(ops),
        geometry_rows=rows,
        geometry_cols=cols,
    )


def alu_op(row, col, offset=0, op="add"):
    return PlacedOp(op=op, kind=FUKind.ALU, row=row, col=col, width=1,
                    trace_offset=offset)


class TestVirtualConfiguration:
    def test_bounding_box(self):
        config = make_config([alu_op(0, 0), alu_op(1, 2)])
        assert config.used_rows == 2
        assert config.used_cols == 3
        assert config.n_ops == 2

    def test_cells_cover_op_width(self):
        load = PlacedOp(op="lw", kind=FUKind.LOAD, row=0, col=2, width=4,
                        trace_offset=0)
        config = make_config([load])
        assert config.cells == ((0, 2), (0, 3), (0, 4), (0, 5))

    def test_occupancy(self):
        config = make_config([alu_op(0, 0), alu_op(0, 1)], rows=2, cols=8)
        assert config.occupancy == pytest.approx(2 / 16)

    def test_overlap_rejected(self):
        with pytest.raises(ConfigurationError, match="overlap"):
            make_config([alu_op(0, 0), alu_op(0, 0, offset=1)])

    def test_out_of_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            make_config([alu_op(5, 0)], rows=2)
        with pytest.raises(ConfigurationError):
            make_config([alu_op(0, 9)], cols=8)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            make_config([])

    def test_zero_width_op_rejected(self):
        empty = PlacedOp(op="add", kind=FUKind.ALU, row=0, col=1, width=0,
                         trace_offset=1)
        with pytest.raises(ConfigurationError, match="at least one"):
            make_config([empty])
        with pytest.raises(ConfigurationError, match="at least one"):
            make_config([alu_op(0, 0), empty])

    def test_branch_count(self):
        branch = PlacedOp(op="beq", kind=FUKind.ALU, row=0, col=1, width=1,
                          trace_offset=1, is_branch=True)
        config = make_config([alu_op(0, 0), branch])
        assert config.n_branches == 1
