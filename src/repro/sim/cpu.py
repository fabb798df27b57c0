"""Functional RV32IM interpreter with committed-trace capture.

The CPU executes an assembled :class:`~repro.isa.program.Program` to
architectural completion and records every committed instruction into
the columns of a :class:`~repro.sim.trace.Trace`: the program's static
instructions are decoded once into the trace's
:class:`~repro.sim.trace.InstructionTable`, and each step appends only
ints (the static index, plus the memory address, written value or
branch outcome where the instruction produces one). The trace — not the
CPU — is what the timing models consume, so this interpreter aims for
correctness and clarity rather than cycle accuracy.

Halting conventions (both supported):

* ``ecall`` with ``a7 == 93`` (Linux exit) or ``a7 == 10`` (spike-style),
  exit code taken from ``a0``;
* returning from the entry function: ``ra`` starts at 0 and a jump to
  address 0 halts, with the exit code in ``a0``.

A small console is provided through ``ecall``: ``a7 == 1`` prints ``a0``
as a signed integer, ``a7 == 11`` prints ``a0`` as one character.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.isa.instructions import OPCODES, InstrClass
from repro.isa.program import STACK_TOP, Program
from repro.sim.memory import Memory
from repro.sim.trace import ABSENT, InstructionTable, Trace

_MASK32 = 0xFFFFFFFF
_SIGN_BIT = 0x80000000
_INT32_MIN = -(1 << 31)

#: Default upper bound on committed instructions, to catch runaway loops.
DEFAULT_MAX_STEPS = 4_000_000

_SYSCALL_EXIT = (93, 10)
_SYSCALL_PRINT_INT = 1
_SYSCALL_PRINT_CHAR = 11


def to_signed(value: int) -> int:
    """Interpret a 32-bit unsigned value as two's-complement signed."""
    return value - 0x100000000 if value & _SIGN_BIT else value


def to_unsigned(value: int) -> int:
    """Truncate a Python int to its 32-bit unsigned representation."""
    return value & _MASK32


@dataclass
class ExecutionResult:
    """Outcome of a completed functional run."""

    trace: Trace
    exit_code: int
    registers: list[int]
    console: str
    steps: int
    memory: Memory = field(repr=False, default_factory=Memory)


class CPU:
    """Single-hart functional RV32IM interpreter."""

    def __init__(
        self,
        program: Program,
        memory: Memory | None = None,
        max_steps: int = DEFAULT_MAX_STEPS,
    ) -> None:
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.max_steps = max_steps
        self.registers = [0] * 32
        self.registers[2] = STACK_TOP  # sp
        self.registers[1] = 0          # ra -> return-to-zero halts
        self.pc = program.entry
        self.console_chunks: list[str] = []
        self._halted = False
        self._exit_code = 0
        for address, data in program.data_segments:
            self.memory.load_bytes(address, data)

    # ------------------------------------------------------------------

    def run(self) -> ExecutionResult:
        """Execute until halt; return the trace and final state.

        Every static instruction is decoded once up front; the loop then
        dispatches on the decoded class and appends the static index of
        each committed instruction, plus its memory address, written
        value or branch outcome where it produces one.
        :func:`_trace_columns` spreads those appends into the trace's
        per-record columns once the program halts.

        Raises:
            SimulationError: on illegal instructions, runaway execution
                or control transfer outside the text segment.
        """
        program = self.program
        table, decoded = _predecode(program)
        text_base = program.text_base
        text_bytes = 4 * len(decoded)
        regs = self.registers
        memory = self.memory
        max_steps = self.max_steps
        indices = array("i")
        addresses = array("q")
        values = array("q")
        outcomes = array("b")
        add_index = indices.append
        add_address = addresses.append
        add_value = values.append
        add_outcome = outcomes.append
        pc = self.pc
        # Every later pc is checked when control transfers to it; the
        # entry is checked here, raising like a fetch from a bad address.
        if max_steps > 0:
            program.index_of(pc)
        steps = 0
        while not self._halted:
            if steps >= max_steps:
                raise SimulationError(
                    f"exceeded max_steps={max_steps} "
                    f"(program {program.name!r}, pc={pc:#x})"
                )
            index = (pc - text_base) >> 2
            cls, op, rd, src1, src2, imm0, fn = decoded[index]
            add_index(index)
            next_pc = pc + 4
            if cls is _ALU:
                value = fn(regs[src1], regs[src2], imm0, pc)
            elif cls is _LOAD:
                address = (regs[src1] + imm0) & _MASK32
                add_address(address)
                value = fn(memory, address)
            elif cls is _BRANCH:
                taken = fn(regs[src1], regs[src2])
                add_outcome(taken)
                if taken:
                    next_pc = (pc + imm0) & _MASK32
            elif cls is _STORE:
                address = (regs[src1] + imm0) & _MASK32
                add_address(address)
                fn(memory, address, regs[src2])
            elif cls is _JUMP:
                value = pc + 4
                if op == "jal":
                    next_pc = (pc + imm0) & _MASK32
                else:  # jalr
                    next_pc = ((regs[src1] + imm0) & _MASK32) & ~1
            elif cls is _SYSTEM:
                self.pc = pc
                self._system(op)
            else:  # MUL / DIV
                value = fn(regs[src1], regs[src2])
            # ``rd`` is decoded as None for x0 and for classes that
            # write no register, so no value is recorded there.
            if rd is not None:
                value &= _MASK32
                regs[rd] = value
                add_value(value)
            steps += 1
            pc = next_pc
            if pc == 0:
                self._halted = True
                self._exit_code = to_signed(regs[10])
            elif not self._halted and (
                not 0 <= pc - text_base < text_bytes or (pc - text_base) & 3
            ):
                raise SimulationError(
                    f"control transfer to {pc:#x}, outside text segment"
                )
        self.pc = pc
        return ExecutionResult(
            trace=Trace(
                table,
                *_trace_columns(table, indices, addresses, values, outcomes, pc),
                name=program.name,
            ),
            exit_code=self._exit_code,
            registers=list(self.registers),
            console="".join(self.console_chunks),
            steps=steps,
            memory=self.memory,
        )

    # ------------------------------------------------------------------

    def _system(self, op: str) -> None:
        if op == "ebreak":
            raise SimulationError(f"ebreak at pc={self.pc:#x}")
        service = self.registers[17]  # a7
        arg = self.registers[10]      # a0
        if service in _SYSCALL_EXIT:
            self._halted = True
            self._exit_code = to_signed(arg)
        elif service == _SYSCALL_PRINT_INT:
            self.console_chunks.append(str(to_signed(arg)))
        elif service == _SYSCALL_PRINT_CHAR:
            self.console_chunks.append(chr(arg & 0xFF))
        else:
            raise SimulationError(
                f"unsupported ecall service {service} at pc={self.pc:#x}"
            )


# ----------------------------------------------------------------------
# Pure operator implementations.
# ----------------------------------------------------------------------


def _div(a: int, b: int) -> int:
    """RV32M ``div``, including the divide-by-zero and overflow cases."""
    if b == 0:
        return _MASK32
    sa, sb = to_signed(a), to_signed(b)
    if sa == _INT32_MIN and sb == -1:
        return _SIGN_BIT  # overflow: result is INT32_MIN
    return int(sa / sb) & _MASK32  # truncate toward zero


def _rem(a: int, b: int) -> int:
    """RV32M ``rem``, including the divide-by-zero and overflow cases."""
    if b == 0:
        return a
    sa, sb = to_signed(a), to_signed(b)
    if sa == _INT32_MIN and sb == -1:
        return 0
    return (sa - int(sa / sb) * sb) & _MASK32


def _load_half(memory: Memory, address: int) -> int:
    value = memory.read_u16(address)
    return value - 0x10000 if value & 0x8000 else value


def _load_byte(memory: Memory, address: int) -> int:
    value = memory.read_u8(address)
    return value - 0x100 if value & 0x80 else value


_ALU_OPS = {
    "add": lambda a, b, imm, pc: a + b,
    "sub": lambda a, b, imm, pc: a - b,
    "sll": lambda a, b, imm, pc: a << (b & 31),
    "slt": lambda a, b, imm, pc: int(to_signed(a) < to_signed(b)),
    "sltu": lambda a, b, imm, pc: int(a < b),
    "xor": lambda a, b, imm, pc: a ^ b,
    "srl": lambda a, b, imm, pc: a >> (b & 31),
    "sra": lambda a, b, imm, pc: to_signed(a) >> (b & 31),
    "or": lambda a, b, imm, pc: a | b,
    "and": lambda a, b, imm, pc: a & b,
    "addi": lambda a, b, imm, pc: a + imm,
    "slti": lambda a, b, imm, pc: int(to_signed(a) < imm),
    "sltiu": lambda a, b, imm, pc: int(a < to_unsigned(imm)),
    "xori": lambda a, b, imm, pc: a ^ to_unsigned(imm),
    "ori": lambda a, b, imm, pc: a | to_unsigned(imm),
    "andi": lambda a, b, imm, pc: a & to_unsigned(imm),
    "slli": lambda a, b, imm, pc: a << (imm & 31),
    "srli": lambda a, b, imm, pc: a >> (imm & 31),
    "srai": lambda a, b, imm, pc: to_signed(a) >> (imm & 31),
    "lui": lambda a, b, imm, pc: imm << 12,
    "auipc": lambda a, b, imm, pc: pc + (imm << 12),
}

_MUL_OPS = {
    "mul": lambda a, b: (a * b) & _MASK32,
    "mulh": lambda a, b: (to_signed(a) * to_signed(b)) >> 32,
    "mulhsu": lambda a, b: (to_signed(a) * b) >> 32,
    "mulhu": lambda a, b: (a * b) >> 32,
}

_DIV_OPS = {
    "div": _div,
    "divu": lambda a, b: _MASK32 if b == 0 else a // b,
    "rem": _rem,
    "remu": lambda a, b: a if b == 0 else a % b,
}

_BRANCH_OPS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: to_signed(a) < to_signed(b),
    "bge": lambda a, b: to_signed(a) >= to_signed(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}

_LOAD_OPS = {
    "lw": Memory.read_u32,
    "lh": _load_half,
    "lhu": Memory.read_u16,
    "lb": _load_byte,
    "lbu": Memory.read_u8,
}

_STORE_OPS = {
    "sw": Memory.write_u32,
    "sh": Memory.write_u16,
    "sb": Memory.write_u8,
}

_ALU = InstrClass.ALU
_LOAD = InstrClass.LOAD
_STORE = InstrClass.STORE
_BRANCH = InstrClass.BRANCH
_JUMP = InstrClass.JUMP
_SYSTEM = InstrClass.SYSTEM

#: Per-class operation tables; classes absent here (JUMP, SYSTEM) are
#: handled inline by :meth:`CPU.run`.
_CLASS_OPS = {
    _ALU: _ALU_OPS,
    InstrClass.MUL: _MUL_OPS,
    InstrClass.DIV: _DIV_OPS,
    _LOAD: _LOAD_OPS,
    _STORE: _STORE_OPS,
    _BRANCH: _BRANCH_OPS,
}

#: Classes whose instructions produce a value for ``rd``.
_WRITES_RD = (_ALU, InstrClass.MUL, InstrClass.DIV, _LOAD, _JUMP)


def _predecode(program: Program) -> tuple[InstructionTable, list[tuple]]:
    """Decode every static instruction once.

    Returns the trace's :class:`~repro.sim.trace.InstructionTable` and,
    per static index, the dispatch entry ``(cls, op, rd, src1, src2,
    imm0, fn)``: ``rd`` is the written register or ``None`` (x0 and
    classes that write nothing), ``src1``/``src2``/``imm0`` the operands
    the datapath reads (an absent register reads x0, which is never
    written, and an absent immediate reads 0), and ``fn`` the class's
    operation for ``op``.
    """
    rows = []
    decoded = []
    for position, ins in enumerate(program.instructions):
        spec = OPCODES[ins.op]
        cls = spec.cls
        table = _CLASS_OPS.get(cls)
        rd = ins.rd if ins.rd and cls in _WRITES_RD else None
        rows.append(
            (
                program.pc_of(position),
                ins.op,
                cls,
                rd,
                ins.rs1,
                ins.rs2,
                ins.imm,
                spec.mem_bytes,
            )
        )
        decoded.append(
            (
                cls,
                ins.op,
                rd,
                ins.rs1 or 0,
                ins.rs2 or 0,
                ins.imm or 0,
                table[ins.op] if table is not None else None,
            )
        )
    return InstructionTable.from_rows(rows), decoded


def _trace_columns(
    table: InstructionTable,
    indices: array,
    addresses: array,
    values: array,
    outcomes: array,
    final_pc: int,
) -> tuple[np.ndarray, ...]:
    """Per-record trace columns from the ISS's appends.

    ``addresses``, ``values`` and ``outcomes`` hold one entry per
    load/store, per record that writes ``rd`` and per branch, in commit
    order; every other record gets :data:`~repro.sim.trace.ABSENT`.
    Jumps are always taken. A committed stream's ``next_pc`` is the pc
    of the record after it, and the halting pc after the last one.

    Returns ``(static_index, mem_addr, rd_value, taken, next_pc)``.
    """
    index = np.array(indices, dtype=np.int32)
    n_records = len(index)

    def records_where(static_flags) -> np.ndarray:
        return np.array(list(static_flags), dtype=bool)[index]

    mem_addr = np.full(n_records, ABSENT, dtype=np.int64)
    mem_addr[records_where(cls in (_LOAD, _STORE) for cls in table.cls)] = (
        addresses
    )
    rd_value = np.full(n_records, ABSENT, dtype=np.int64)
    rd_value[records_where(rd is not None for rd in table.rd)] = values
    taken = np.full(n_records, ABSENT, dtype=np.int8)
    taken[records_where(cls is _JUMP for cls in table.cls)] = 1
    taken[records_where(cls is _BRANCH for cls in table.cls)] = outcomes
    next_pc = np.empty(n_records, dtype=np.int64)
    next_pc[:-1] = table.pc_array[index[1:]]
    next_pc[-1:] = final_pc
    return index, mem_addr, rd_value, taken, next_pc
