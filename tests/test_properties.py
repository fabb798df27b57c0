"""Cross-cutting property-based tests.

These fuzz whole pipelines rather than single functions: randomly
generated instruction windows are scheduled and then re-validated by
the independent dataflow checker; random allocation sequences must
conserve stress exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgra.executor import validate_unit
from repro.cgra.fabric import FabricGeometry
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import make_policy
from repro.dbt.dfg import build_dfg
from repro.dbt.scheduler import SchedulerState
from repro.isa.assembler import assemble

from tests.support import place_record, rec, reset_rec_pcs
from tests.test_core_allocator import config

# ----------------------------------------------------------------------
# Random instruction-window generator (register-only, x1..x7 pool).
# ----------------------------------------------------------------------

_OPS_R = ("add", "sub", "xor", "and", "or", "sll", "srl", "mul")
_OPS_I = ("addi", "xori", "andi", "slli")

window_entries = st.lists(
    st.tuples(
        st.sampled_from(_OPS_R + _OPS_I),
        st.integers(min_value=1, max_value=7),   # rd
        st.integers(min_value=1, max_value=7),   # rs1
        st.integers(min_value=1, max_value=7),   # rs2 (or ignored)
        st.integers(min_value=0, max_value=15),  # imm (shift-safe)
    ),
    min_size=1,
    max_size=24,
)


def build_window(entries):
    """Materialise (op, rd, rs1, rs2, imm) tuples as TraceRecords with
    consistent committed values (evaluated with a tiny interpreter)."""
    reset_rec_pcs()
    regs = {i: i * 0x1111 for i in range(8)}
    records = []
    from repro.sim.cpu import _ALU_OPS, _MUL_OPS, to_unsigned

    for op, rd, rs1, rs2, imm in entries:
        rs1_val = regs[rs1]
        rs2_val = regs[rs2]
        if op in _OPS_I:
            value = to_unsigned(_ALU_OPS[op](rs1_val, 0, imm, 0))
            record = rec(op, rd=rd, rs1=rs1, imm=imm)
        elif op == "mul":
            value = to_unsigned(_MUL_OPS[op](rs1_val, rs2_val))
            record = rec(op, rd=rd, rs1=rs1, rs2=rs2)
        else:
            value = to_unsigned(_ALU_OPS[op](rs1_val, rs2_val, 0, 0))
            record = rec(op, rd=rd, rs1=rs1, rs2=rs2)
        object.__setattr__(record, "rd_value", value)
        regs[rd] = value
        records.append(record)
    return records


class TestSchedulerFuzzing:
    @given(entries=window_entries)
    @settings(max_examples=60, deadline=None)
    def test_schedule_respects_dfg_and_values(self, entries):
        """Any schedulable window passes the independent validator:
        every DFG edge is honoured and every recomputable value
        matches the committed one."""
        window = build_window(entries)
        state = SchedulerState(FabricGeometry(rows=8, cols=64))
        ops = []
        for offset, record in enumerate(window):
            placed = place_record(state, record, offset)
            if placed is None:
                return  # window exceeded the fabric: nothing to check
            ops.append(placed)
        from repro.cgra.configuration import VirtualConfiguration

        unit = VirtualConfiguration(
            start_pc=window[0].pc,
            pc_path=tuple(r.pc for r in window),
            ops=tuple(ops),
            n_instructions=len(window),
            geometry_rows=8,
            geometry_cols=64,
        )
        report = validate_unit(unit, window)
        assert report.ok, (report.ordering_violations,
                           report.value_mismatches)

    @given(entries=window_entries)
    @settings(max_examples=40, deadline=None)
    def test_schedule_matches_explicit_dfg(self, entries):
        """Scheduler placement order agrees with the networkx DFG."""
        window = build_window(entries)
        state = SchedulerState(FabricGeometry(rows=8, cols=64))
        placements = {}
        for offset, record in enumerate(window):
            placed = place_record(state, record, offset)
            if placed is None:
                return
            placements[offset] = placed
        for producer, consumer in build_dfg(window).edges:
            assert (
                placements[consumer].col >= placements[producer].end_col
            )


class TestAllocationConservation:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        launches=st.integers(min_value=1, max_value=100),
        policy=st.sampled_from(
            ["baseline", "rotation", "random", "stress_aware",
             "static_remap"]
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_total_stress_equals_cells_times_launches(
        self, seed, launches, policy
    ):
        geometry = FabricGeometry(rows=2, cols=8)
        kwargs = {"seed": seed} if policy == "random" else {}
        allocator = ConfigurationAllocator(
            geometry, make_policy(policy, **kwargs)
        )
        c = config([(0, 0), (1, 2), (0, 5)], rows=2, cols=8)
        for _ in range(launches):
            allocator.allocate(c)
        counts = allocator.tracker.execution_counts
        assert counts.sum() == 3 * launches
        assert allocator.tracker.total_executions == launches

    @given(
        rows=st.integers(min_value=1, max_value=4),
        cols=st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=30, deadline=None)
    def test_rotation_full_sweep_is_uniform(self, rows, cols):
        geometry = FabricGeometry(rows=rows, cols=cols)
        allocator = ConfigurationAllocator(
            geometry, make_policy("rotation")
        )
        c = config([(0, 0)], rows=rows, cols=cols)
        for _ in range(rows * cols):
            allocator.allocate(c)
        assert (allocator.tracker.execution_counts == 1).all()


class TestAssemblerRoundTrip:
    @given(
        rd=st.integers(min_value=0, max_value=31),
        rs1=st.integers(min_value=0, max_value=31),
        rs2=st.integers(min_value=0, max_value=31),
        op=st.sampled_from(_OPS_R),
    )
    def test_r_format_disassembles_and_reassembles(self, rd, rs1, rs2, op):
        from repro.isa.disasm import format_instruction
        from repro.isa.instructions import Instruction

        ins = Instruction(op, rd=rd, rs1=rs1, rs2=rs2)
        text = format_instruction(ins)
        reassembled = assemble(text).instructions[0]
        assert reassembled == ins


class TestRoutingPressureProperties:
    """Scheduler output is routable by construction.

    The incremental line-pressure bookkeeping inside
    :class:`SchedulerState` and the whole-unit profile of
    :mod:`repro.mapping.routing` must be the same arithmetic, and any
    placement emitted under a declared ``ctx_lines`` budget must fit
    it — for every random window, geometry and budget, including the
    minimal ``ctx_lines == rows``.
    """

    @given(
        entries=window_entries,
        rows=st.integers(min_value=1, max_value=4),
        extra_lines=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_budgeted_schedule_fits_budget(self, entries, rows, extra_lines):
        from repro.cgra.configuration import VirtualConfiguration
        from repro.mapping.routing import routing_profile

        window = build_window(entries)
        geometry = FabricGeometry(
            rows=rows, cols=32, ctx_lines=rows + extra_lines
        )
        state = SchedulerState(geometry)
        ops = []
        for offset, record in enumerate(window):
            placed = place_record(state, record, offset)
            if placed is None:
                break  # overflow or full: discovery would close here
            ops.append(placed)
        if not ops:
            return
        unit = VirtualConfiguration(
            start_pc=window[0].pc,
            pc_path=tuple(r.pc for r in window[: len(ops)]),
            ops=tuple(ops),
            n_instructions=len(ops),
            geometry_rows=geometry.rows,
            geometry_cols=geometry.cols,
        )
        profile = routing_profile(unit, window, geometry)
        assert profile.peak_pressure <= geometry.ctx_lines
        assert profile.ok
        # The scheduler's incremental tracker saw the same pressure.
        assert state.peak_line_pressure == profile.peak_pressure
