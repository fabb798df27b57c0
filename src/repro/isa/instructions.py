"""Opcode metadata and the :class:`Instruction` container for RV32IM.

Only the subset needed by the workloads and the DBT is modelled: the
full RV32I base integer ISA plus the M extension. Encodings (bit
patterns) are deliberately not modelled — every consumer in this
repository works on the symbolic form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class InstrClass(enum.Enum):
    """Coarse functional class of an instruction.

    The class determines which CGRA functional unit executes the
    operation and how many fabric columns it occupies (see
    :mod:`repro.cgra.fu`), as well as the GPP timing class.
    """

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    SYSTEM = "system"


class OperandFormat(enum.Enum):
    """Assembly operand layout of an opcode."""

    R = "r"            # op rd, rs1, rs2
    I = "i"            # op rd, rs1, imm
    LOAD = "load"      # op rd, imm(rs1)
    STORE = "store"    # op rs2, imm(rs1)
    BRANCH = "branch"  # op rs1, rs2, label
    U = "u"            # op rd, imm20
    J = "j"            # op rd, label
    JR = "jr"          # op rd, rs1, imm
    SYS = "sys"        # op (no operands)


@dataclass(frozen=True)
class OpSpec:
    """Static description of one opcode.

    Attributes:
        name: mnemonic, e.g. ``"add"``.
        cls: functional class used for timing/placement.
        fmt: operand layout used by the assembler/disassembler.
        reads_rs1: whether the instruction reads ``rs1``.
        reads_rs2: whether the instruction reads ``rs2``.
        writes_rd: whether the instruction writes ``rd``.
        mem_bytes: access width in bytes for loads/stores, else 0.
    """

    name: str
    cls: InstrClass
    fmt: OperandFormat
    reads_rs1: bool
    reads_rs2: bool
    writes_rd: bool
    mem_bytes: int = 0


def _r(name: str, cls: InstrClass = InstrClass.ALU) -> OpSpec:
    return OpSpec(name, cls, OperandFormat.R, True, True, True)


def _i(name: str) -> OpSpec:
    return OpSpec(name, InstrClass.ALU, OperandFormat.I, True, False, True)


def _load(name: str, width: int) -> OpSpec:
    return OpSpec(
        name, InstrClass.LOAD, OperandFormat.LOAD, True, False, True, width
    )


def _store(name: str, width: int) -> OpSpec:
    return OpSpec(
        name, InstrClass.STORE, OperandFormat.STORE, True, True, False, width
    )


def _branch(name: str) -> OpSpec:
    return OpSpec(name, InstrClass.BRANCH, OperandFormat.BRANCH, True, True, False)


#: All supported opcodes, keyed by mnemonic.
OPCODES: dict[str, OpSpec] = {
    spec.name: spec
    for spec in (
        # RV32I register-register.
        _r("add"), _r("sub"), _r("sll"), _r("slt"), _r("sltu"),
        _r("xor"), _r("srl"), _r("sra"), _r("or"), _r("and"),
        # RV32M.
        _r("mul", InstrClass.MUL), _r("mulh", InstrClass.MUL),
        _r("mulhsu", InstrClass.MUL), _r("mulhu", InstrClass.MUL),
        _r("div", InstrClass.DIV), _r("divu", InstrClass.DIV),
        _r("rem", InstrClass.DIV), _r("remu", InstrClass.DIV),
        # RV32I register-immediate.
        _i("addi"), _i("slti"), _i("sltiu"), _i("xori"), _i("ori"),
        _i("andi"), _i("slli"), _i("srli"), _i("srai"),
        # Upper-immediate.
        OpSpec("lui", InstrClass.ALU, OperandFormat.U, False, False, True),
        OpSpec("auipc", InstrClass.ALU, OperandFormat.U, False, False, True),
        # Loads / stores.
        _load("lw", 4), _load("lh", 2), _load("lhu", 2),
        _load("lb", 1), _load("lbu", 1),
        _store("sw", 4), _store("sh", 2), _store("sb", 1),
        # Branches.
        _branch("beq"), _branch("bne"), _branch("blt"),
        _branch("bge"), _branch("bltu"), _branch("bgeu"),
        # Jumps.
        OpSpec("jal", InstrClass.JUMP, OperandFormat.J, False, False, True),
        OpSpec("jalr", InstrClass.JUMP, OperandFormat.JR, True, False, True),
        # System.
        OpSpec("ecall", InstrClass.SYSTEM, OperandFormat.SYS, False, False, False),
        OpSpec("ebreak", InstrClass.SYSTEM, OperandFormat.SYS, False, False, False),
    )
}


@dataclass(frozen=True, slots=True)
class Instruction:
    """One assembled instruction in symbolic form.

    ``imm`` holds the fully resolved immediate. For branches and ``jal``
    it is the byte offset from the instruction's own address (as in real
    RISC-V); ``label`` optionally keeps the original symbol for
    human-readable disassembly.
    """

    op: str
    rd: int | None = None
    rs1: int | None = None
    rs2: int | None = None
    imm: int | None = None
    label: str | None = None

    @property
    def spec(self) -> OpSpec:
        """The :class:`OpSpec` for this instruction's mnemonic."""
        return OPCODES[self.op]

    @property
    def cls(self) -> InstrClass:
        """Functional class (shortcut for ``self.spec.cls``)."""
        return OPCODES[self.op].cls

    def source_registers(self) -> tuple[int, ...]:
        """Indices of architectural registers this instruction reads."""
        spec = OPCODES[self.op]
        sources = []
        if spec.reads_rs1 and self.rs1 is not None:
            sources.append(self.rs1)
        if spec.reads_rs2 and self.rs2 is not None:
            sources.append(self.rs2)
        return tuple(sources)
