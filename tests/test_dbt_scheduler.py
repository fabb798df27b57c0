"""Tests for the greedy first-fit scheduler."""

import pytest

from repro.cgra.fabric import FabricGeometry
from repro.dbt.scheduler import SchedulerState

from tests.support import place_record, rec, reset_rec_pcs


def setup_function(_):
    reset_rec_pcs()


def state(rows=2, cols=8):
    return SchedulerState(FabricGeometry(rows=rows, cols=cols))


class TestPlacement:
    def test_independent_ops_fill_rows_first(self):
        s = state(rows=2, cols=8)
        first = place_record(s, rec("add", rd=5, rs1=1, rs2=2), 0)
        second = place_record(s, rec("add", rd=6, rs1=3, rs2=4), 1)
        assert (first.row, first.col) == (0, 0)
        assert (second.row, second.col) == (1, 0)

    def test_dependent_op_waits_for_producer(self):
        s = state()
        producer = place_record(s, rec("add", rd=5, rs1=1, rs2=2), 0)
        consumer = place_record(s, rec("add", rd=6, rs1=5, rs2=5), 1)
        assert consumer.col == producer.end_col
        assert consumer.row == 0  # row 0 free again at that column

    def test_chain_extends_left_to_right(self):
        s = state(rows=2, cols=8)
        cols = []
        for i in range(4):
            op = place_record(s, rec("addi", rd=5, rs1=5, imm=1), i)
            cols.append(op.col)
        assert cols == [0, 1, 2, 3]

    def test_top_left_bias(self):
        """Independent work concentrates on row 0 and early columns --
        the phenomenon behind Fig. 1."""
        s = state(rows=4, cols=8)
        placements = [
            place_record(s, rec("add", rd=0, rs1=1, rs2=2), i) for i in range(3)
        ]
        assert [p.col for p in placements] == [0, 0, 0]
        assert [p.row for p in placements] == [0, 1, 2]

    def test_fabric_full_returns_none(self):
        s = state(rows=1, cols=2)
        assert place_record(s, rec("add", rd=0, rs1=1, rs2=2), 0) is not None
        assert place_record(s, rec("add", rd=0, rs1=1, rs2=2), 1) is not None
        assert place_record(s, rec("add", rd=0, rs1=1, rs2=2), 2) is None

    def test_failed_placement_leaves_state_clean(self):
        s = state(rows=1, cols=2)
        place_record(s, rec("add", rd=0, rs1=1, rs2=2), 0)
        before = s.placed_cells
        assert place_record(s, rec("lw", rd=5, rs1=1, mem_addr=0x100), 1) is None
        assert s.placed_cells == before

    def test_unmappable_class_returns_none(self):
        s = state()
        assert place_record(s, rec("div", rd=5, rs1=1, rs2=2), 0) is None
        assert place_record(s, rec("ecall"), 0) is None


class TestMemoryOps:
    def test_load_spans_four_columns(self):
        s = state(rows=2, cols=8)
        load = place_record(s, rec("lw", rd=5, rs1=1, mem_addr=0x100), 0)
        assert load.width == 4
        assert load.cells() == ((0, 0), (0, 1), (0, 2), (0, 3))

    def test_load_port_pipelined_one_issue_per_cycle(self):
        s = state(rows=2, cols=16)
        first = place_record(s, rec("lw", rd=5, rs1=1, mem_addr=0x100), 0)
        second = place_record(s, rec("lw", rd=6, rs1=1, mem_addr=0x200), 1)
        third = place_record(s, rec("lw", rd=7, rs1=1, mem_addr=0x300), 2)
        # One read port, pipelined: a new load can issue every cycle
        # (= 2 columns), overlapping the previous load's latency.
        assert second.col == first.col + 2
        assert third.col == second.col + 2

    def test_load_and_store_ports_are_independent(self):
        s = state(rows=2, cols=16)
        load = place_record(s, rec("lw", rd=5, rs1=1, mem_addr=0x100), 0)
        store = place_record(s, rec("sw", rs1=2, rs2=3, mem_addr=0x200), 1)
        # Different ports and different addresses: may overlap in columns.
        assert store.col < load.end_col

    def test_raw_through_memory_serialises(self):
        s = state(rows=2, cols=16)
        store = place_record(s, rec("sw", rs1=1, rs2=2, mem_addr=0x100), 0)
        load = place_record(s, rec("lw", rd=5, rs1=1, mem_addr=0x100), 1)
        assert load.col >= store.end_col

    def test_war_through_memory_serialises(self):
        s = state(rows=2, cols=16)
        load = place_record(s, rec("lw", rd=5, rs1=1, mem_addr=0x100), 0)
        store = place_record(s, rec("sw", rs1=1, rs2=2, mem_addr=0x100), 1)
        assert store.col >= load.end_col

    def test_loads_to_same_word_may_overlap(self):
        s = state(rows=2, cols=16)
        first = place_record(s, rec("lw", rd=5, rs1=1, mem_addr=0x100), 0)
        second = place_record(s, rec("lw", rd=6, rs1=1, mem_addr=0x100), 1)
        # Ordered only by the pipelined read port, not by dependence.
        assert second.col == first.col + 2

    def test_byte_accesses_same_word_conflict(self):
        s = state(rows=2, cols=16)
        store = place_record(s, rec("sb", rs1=1, rs2=2, mem_addr=0x101), 0)
        load = place_record(s, rec("lb", rd=5, rs1=1, mem_addr=0x102), 1)
        assert load.col >= store.end_col


class TestRowPolicies:
    def test_round_robin_spreads_rows(self):
        s = SchedulerState(
            FabricGeometry(rows=4, cols=8), row_policy="round_robin"
        )
        rows = [
            place_record(s, rec("add", rd=0, rs1=1, rs2=2), i).row
            for i in range(4)
        ]
        assert sorted(rows) == [0, 1, 2, 3]

    def test_round_robin_cannot_spread_columns(self):
        """A dependence chain stays column-anchored whatever the row
        order — the structural limit of scheduler-level balancing."""
        s = SchedulerState(
            FabricGeometry(rows=4, cols=8), row_policy="round_robin"
        )
        cols = [
            place_record(s, rec("addi", rd=5, rs1=5, imm=1), i).col
            for i in range(4)
        ]
        assert cols == [0, 1, 2, 3]

    def test_unknown_row_policy_rejected(self):
        with pytest.raises(ValueError):
            SchedulerState(FabricGeometry(rows=2, cols=8), row_policy="zigzag")


class TestConstants:
    def test_constant_generator_placement(self):
        s = state()
        op = s.try_place_constant("jal", rd=1, trace_offset=0)
        assert (op.row, op.col, op.width) == (0, 0, 1)
        consumer = place_record(s, rec("add", rd=5, rs1=1, rs2=1), 1)
        assert consumer.col >= op.end_col

    def test_constant_full_fabric(self):
        s = state(rows=1, cols=2)
        place_record(s, rec("add", rd=0, rs1=1, rs2=2), 0)
        place_record(s, rec("add", rd=0, rs1=1, rs2=2), 1)
        assert s.try_place_constant("jal", rd=1, trace_offset=2) is None
