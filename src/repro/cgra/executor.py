"""Dataflow validation of scheduled configurations.

The scheduler claims a placement is dependence-correct; this module
*checks* that claim against the committed trace: operands are resolved
to their in-window producers, placement ordering is verified for every
resolved dependence, and — for ALU/MUL operations whose operands were
all produced inside the window — the value the fabric would compute is
re-evaluated and compared with the value the CPU actually committed.
This is the repository's semantic cross-check that a configuration
really computes what the instruction stream did.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cgra.configuration import VirtualConfiguration
from repro.isa.instructions import OPCODES, InstrClass
from repro.sim.cpu import _ALU_OPS, _DIV_OPS, _MUL_OPS, to_unsigned
from repro.sim.trace import TraceRecord


@dataclass
class ValidationReport:
    """Outcome of validating one unit against its trace window.

    Attributes:
        ordering_violations: dependences placed backwards (producer not
            strictly before consumer); empty for a correct scheduler.
        value_mismatches: ops whose recomputed result differed from the
            committed value; empty for a correct datapath model.
        values_checked: ops whose results were recomputed.
        operands_resolved: operand references resolved to producers.
    """

    ordering_violations: list[tuple[int, int]] = field(default_factory=list)
    value_mismatches: list[int] = field(default_factory=list)
    values_checked: int = 0
    operands_resolved: int = 0

    @property
    def ok(self) -> bool:
        return not self.ordering_violations and not self.value_mismatches


def _compute(record: TraceRecord, rs1_val: int, rs2_val: int) -> int | None:
    """Re-evaluate an instruction the way a fabric ALU/MUL cell would."""
    imm = record.imm if record.imm is not None else 0
    if record.cls is InstrClass.ALU:
        return to_unsigned(
            _ALU_OPS[record.op](rs1_val, rs2_val, imm, record.pc)
        )
    if record.cls is InstrClass.MUL:
        return to_unsigned(_MUL_OPS[record.op](rs1_val, rs2_val))
    if record.cls is InstrClass.DIV:
        return to_unsigned(_DIV_OPS[record.op](rs1_val, rs2_val))
    return None


def validate_unit(
    unit: VirtualConfiguration, window: list[TraceRecord]
) -> ValidationReport:
    """Validate ``unit`` against the instruction window it was built
    from (``window[i]`` is the instruction at ``pc_path[i]``)."""
    report = ValidationReport()
    ops_by_offset = {op.trace_offset: op for op in unit.ops}
    # Last in-window writer of each architectural register.
    last_writer: dict[int, int] = {}
    # Committed values by window offset (the oracle).
    values: dict[int, int] = {}

    for offset in range(unit.n_instructions):
        record = window[offset]
        placed = ops_by_offset.get(offset)
        operand_values: list[int | None] = []
        spec = OPCODES[record.op]
        for reads, reg in ((spec.reads_rs1, record.rs1),
                           (spec.reads_rs2, record.rs2)):
            if not reads or not reg:
                operand_values.append(None if not reads else 0)
                continue
            producer = last_writer.get(reg)
            if producer is None:
                operand_values.append(None)  # live-in: value unknown here
                continue
            report.operands_resolved += 1
            if placed is not None and producer in ops_by_offset:
                producer_op = ops_by_offset[producer]
                if producer_op.end_col > placed.col:
                    report.ordering_violations.append((producer, offset))
            operand_values.append(values.get(producer))
        if (
            placed is not None
            and record.rd is not None
            and record.cls in (InstrClass.ALU, InstrClass.MUL)
            and all(v is not None for v in operand_values)
        ):
            rs1_val = operand_values[0] if operand_values[0] is not None else 0
            rs2_val = operand_values[1] if len(operand_values) > 1 and (
                operand_values[1] is not None
            ) else 0
            computed = _compute(record, rs1_val, rs2_val)
            if computed is not None:
                report.values_checked += 1
                if computed != record.rd_value:
                    report.value_mismatches.append(offset)
        if record.rd is not None:
            last_writer[record.rd] = offset
            if record.rd_value is not None:
                values[offset] = record.rd_value
    return report
