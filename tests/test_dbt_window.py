"""Tests for translation-unit discovery."""

from repro.cgra.fabric import FabricGeometry
from repro.dbt.window import UnitLimits, build_unit

from tests.support import trace_of


def geometry(rows=2, cols=16):
    return FabricGeometry(rows=rows, cols=cols)


def straight_line_trace(n_alu=8):
    source = "\n".join(f"addi t{i % 3}, t{i % 3}, 1" for i in range(n_alu))
    return trace_of(source + "\nli a7, 93\necall")


class TestBasicUnits:
    def test_builds_unit_from_straight_line(self):
        trace = straight_line_trace(8)
        unit = build_unit(trace, 0, geometry())
        assert unit is not None
        assert unit.start_pc == trace[0].pc
        assert unit.n_instructions >= 3
        assert unit.pc_path[0] == trace[0].pc

    def test_unit_stops_at_system_instruction(self):
        trace = straight_line_trace(8)
        unit = build_unit(trace, 0, geometry())
        # ecall and the preceding li a7 are at the end; the li a7 is
        # mappable but ecall is not, so the path must stop before ecall.
        ecall_pc = trace[len(trace) - 1].pc
        assert ecall_pc not in unit.pc_path

    def test_too_short_unit_rejected(self):
        trace = trace_of("li a0, 1\nli a7, 93\necall")
        assert build_unit(trace, 0, geometry()) is None

    def test_min_instructions_respected(self):
        trace = straight_line_trace(8)
        limits = UnitLimits(min_instructions=100)
        assert build_unit(trace, 0, geometry(), limits) is None

    def test_max_instructions_cap(self):
        trace = straight_line_trace(20)
        limits = UnitLimits(max_instructions=5)
        unit = build_unit(trace, 0, geometry(), limits)
        assert unit.n_instructions == 5

    def test_unit_ends_when_fabric_full(self):
        trace = straight_line_trace(40)
        unit = build_unit(trace, 0, geometry(rows=1, cols=4))
        # Three chained t0 adds can fit at most... each chain per reg.
        assert unit is not None
        assert unit.used_cols <= 4

    def test_div_ends_unit(self):
        trace = trace_of(
            """
            li t0, 8
            li t1, 2
            add t2, t0, t1
            div t3, t0, t1
            add t4, t0, t1
            li a7, 93
            ecall
            """
        )
        unit = build_unit(trace, 0, geometry())
        div_pc = next(r.pc for r in trace if r.op == "div")
        assert div_pc not in unit.pc_path
        assert unit.n_instructions == 3


class TestBranchesAndJumps:
    def test_branches_included_and_counted(self):
        trace = trace_of(
            """
            li t0, 4
            loop:
              addi t0, t0, -1
              bnez t0, loop
            li a7, 93
            ecall
            """
        )
        # Unit starting at loop head spans iterations (branch is taken,
        # path continues at the recorded target).
        loop_start = 1
        unit = build_unit(trace, loop_start, geometry())
        assert unit is not None
        assert unit.n_branches >= 1

    def test_branch_budget_ends_unit(self):
        trace = trace_of(
            """
            li t0, 10
            loop:
              addi t0, t0, -1
              bnez t0, loop
            li a7, 93
            ecall
            """
        )
        limits = UnitLimits(max_branches=2)
        unit = build_unit(trace, 1, geometry(rows=2, cols=64))
        capped = build_unit(trace, 1, geometry(rows=2, cols=64), limits)
        assert capped.n_branches <= 2
        assert capped.n_instructions <= unit.n_instructions

    def test_jal_x0_is_transparent(self):
        trace = trace_of(
            """
            li t0, 1
            j skip
            skip:
            addi t0, t0, 1
            addi t0, t0, 1
            li a7, 93
            ecall
            """
        )
        unit = build_unit(trace, 0, geometry())
        j_record = next(r for r in trace if r.op == "jal")
        assert j_record.pc in set(unit.pc_path)  # on the path
        assert unit.n_instructions > unit.n_ops  # but no fabric op for it

    def test_jalr_ends_unit(self):
        trace = trace_of(
            """
            main:
              li t0, 1
              li t1, 2
              add t2, t0, t1
              call helper
              li a7, 93
              ecall
            helper:
              addi t3, t2, 1
              ret
            """
        )
        unit = build_unit(trace, 0, geometry())
        ret_pc = next(r.pc for r in trace if r.op == "jalr")
        assert ret_pc not in unit.pc_path

    def test_call_link_register_materialised(self):
        trace = trace_of(
            """
            main:
              li t0, 1
              li t1, 2
              call helper
              li a7, 93
              ecall
            helper:
              add t2, t0, t1
              ret
            """
        )
        unit = build_unit(trace, 0, geometry())
        call_record = next(r for r in trace if r.op == "jal")
        assert call_record.pc in unit.pc_path
        jal_ops = [op for op in unit.ops if op.op == "jal"]
        assert len(jal_ops) == 1  # constant generator for ra


class TestPathConsistency:
    def test_pc_path_matches_trace(self):
        trace = straight_line_trace(10)
        unit = build_unit(trace, 0, geometry())
        for offset, pc in enumerate(unit.pc_path):
            assert trace[offset].pc == pc

    def test_ops_reference_valid_offsets(self):
        trace = straight_line_trace(10)
        unit = build_unit(trace, 0, geometry())
        for op in unit.ops:
            assert 0 <= op.trace_offset < unit.n_instructions
