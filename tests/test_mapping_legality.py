"""Property tests: any mapper's output passes the DFG-oracle check.

Random instruction windows (register ops plus loads/stores, so the
memory-port and memory-ordering rules are exercised) are placed by
every registered mapper: greedily, record by record as discovery
places them, and by the annealer refining that greedy placement. The
resulting configuration must satisfy the independent legality checker
— dependence order, geometry bounds, FU latency spans and pipelined
port exclusivity. A corrupted placement must be rejected, proving the
oracle has teeth.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgra.fabric import FabricGeometry
from repro.errors import MappingError
from repro.mapping import SimulatedAnnealingMapper
from repro.mapping.legality import assert_legal, check_unit

from tests.support import greedy_unit, rec, reset_rec_pcs


def annealed_unit(window, geometry, stress_hint=None, seed=11):
    """The annealer's refinement of the window's greedy placement
    (``None`` when the window does not fit)."""
    greedy = greedy_unit(window, geometry)
    if greedy is None:
        return None
    return SimulatedAnnealingMapper(seed=seed).map_unit(
        window, geometry, stress_hint=stress_hint, seed=greedy
    )


#: Each registered mapper's placement of a window, by mapper class.
PLACERS = {
    "GreedyMapper": greedy_unit,
    "SimulatedAnnealingMapper": annealed_unit,
}

_OPS_R = ("add", "sub", "xor", "and", "or", "mul")

window_entries = st.lists(
    st.tuples(
        st.sampled_from(_OPS_R + ("lw", "sw")),
        st.integers(min_value=1, max_value=7),   # rd
        st.integers(min_value=1, max_value=7),   # rs1
        st.integers(min_value=1, max_value=7),   # rs2
        st.integers(min_value=0, max_value=7),   # memory word index
    ),
    min_size=1,
    max_size=20,
)


def build_window(entries):
    """Materialise entry tuples as TraceRecords (values not needed —
    legality is purely structural)."""
    reset_rec_pcs()
    records = []
    for op, rd, rs1, rs2, word in entries:
        if op == "lw":
            records.append(
                rec("lw", rd=rd, rs1=rs1, mem_addr=0x100 + 4 * word)
            )
        elif op == "sw":
            records.append(
                rec("sw", rs1=rs1, rs2=rs2, mem_addr=0x100 + 4 * word)
            )
        else:
            records.append(rec(op, rd=rd, rs1=rs1, rs2=rs2))
    return records


class TestMapperLegality:
    @pytest.mark.parametrize("mapper", sorted(PLACERS))
    @given(entries=window_entries)
    @settings(max_examples=40, deadline=None)
    def test_mapped_window_is_legal(self, mapper, entries):
        window = build_window(entries)
        geometry = FabricGeometry(rows=4, cols=64)
        unit = PLACERS[mapper](window, geometry)
        if unit is None:
            return  # window did not fit: nothing to check
        report = check_unit(unit, window)
        assert report.ok, report.violations
        assert_legal(unit, window)  # must not raise

    @given(entries=window_entries, stress_seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_annealing_with_stress_hint_is_legal(self, entries, stress_seed):
        import numpy as np

        window = build_window(entries)
        geometry = FabricGeometry(rows=4, cols=64)
        hint = np.random.default_rng(stress_seed).integers(
            0, 1000, size=(geometry.rows, geometry.cols)
        )
        unit = annealed_unit(window, geometry, stress_hint=hint, seed=3)
        if unit is None:
            return
        report = check_unit(unit, window)
        assert report.ok, report.violations


class TestOracleHasTeeth:
    """The checker must reject placements that break each rule."""

    def _unit_and_window(self):
        reset_rec_pcs()
        window = [
            rec("add", rd=5, rs1=1, rs2=2),
            rec("add", rd=6, rs1=5, rs2=5),  # RAW on x5
            rec("lw", rd=7, rs1=1, mem_addr=0x100),
            rec("lw", rd=3, rs1=1, mem_addr=0x200),
        ]
        unit = greedy_unit(window, FabricGeometry(rows=4, cols=16))
        assert unit is not None and check_unit(unit, window).ok
        return unit, window

    def _with_op(self, unit, index, **changes):
        ops = list(unit.ops)
        ops[index] = dataclasses.replace(ops[index], **changes)
        return dataclasses.replace(unit, ops=tuple(ops))

    @staticmethod
    def _forged(unit, index, **changes):
        """Corrupt an op bypassing VirtualConfiguration's own guards
        (so the checker's overlap/bounds branches are what trips)."""
        from repro.cgra.configuration import VirtualConfiguration

        ops = list(unit.ops)
        ops[index] = dataclasses.replace(ops[index], **changes)
        bad = object.__new__(VirtualConfiguration)
        for field in dataclasses.fields(unit):
            object.__setattr__(bad, field.name, getattr(unit, field.name))
        object.__setattr__(bad, "ops", tuple(ops))
        return bad

    def test_backwards_dependence_rejected(self):
        unit, window = self._unit_and_window()
        # Move the consumer (offset 1) onto column 0, before its
        # producer finishes: the RAW edge is now placed backwards.
        bad = self._with_op(unit, 1, row=3, col=0)
        report = check_unit(bad, window)
        assert any("dependence" in v for v in report.violations)
        with pytest.raises(MappingError):
            assert_legal(bad, window)

    def test_port_clash_rejected(self):
        unit, window = self._unit_and_window()
        loads = [
            i for i, op in enumerate(unit.ops) if op.trace_offset in (2, 3)
        ]
        first = unit.ops[loads[0]]
        # Both loads issue at the same column (different rows).
        bad = self._with_op(
            unit, loads[1], row=first.row + 1, col=first.col
        )
        report = check_unit(bad, window)
        assert any("port" in v for v in report.violations)

    def test_wrong_span_rejected(self):
        unit, window = self._unit_and_window()
        bad = self._forged(unit, 0, width=2)
        report = check_unit(bad, window)
        assert any("latency span" in v for v in report.violations)

    def test_overlap_rejected(self):
        unit, window = self._unit_and_window()
        other = unit.ops[1]
        bad = self._forged(unit, 0, row=other.row, col=other.col)
        report = check_unit(bad, window)
        assert any("overlap" in v for v in report.violations)

    def test_misaligned_window_rejected(self):
        unit, window = self._unit_and_window()
        reset_rec_pcs(0x9000)  # same shape, different PCs
        shifted = [
            rec("add", rd=5, rs1=1, rs2=2),
            rec("add", rd=6, rs1=5, rs2=5),
            rec("lw", rd=7, rs1=1, mem_addr=0x100),
            rec("lw", rd=3, rs1=1, mem_addr=0x200),
        ]
        report = check_unit(unit, shifted)
        assert any("misaligned" in v for v in report.violations)

    def test_out_of_grid_rejected(self):
        unit, window = self._unit_and_window()
        bad = self._forged(unit, 0, row=unit.geometry_rows + 1)
        report = check_unit(bad, window)
        assert any("grid" in v for v in report.violations)
