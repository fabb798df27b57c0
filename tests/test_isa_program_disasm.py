"""Tests for the Program container and the disassembler."""

import pytest

from repro.isa.assembler import assemble
from repro.isa.disasm import disassemble, format_instruction
from repro.isa.instructions import Instruction
from repro.isa.program import TEXT_BASE, Program
from repro.sim.cpu import CPU
from repro.workloads.suite import get_workload, workload_names


@pytest.fixture
def program():
    return assemble(
        """
        main:
          li a0, 1
          beqz a0, done
          addi a0, a0, 1
        done:
          ret
        .data
        value: .word 42
        """,
        name="demo",
    )


class TestProgram:
    def test_pc_index_round_trip(self, program):
        for index in range(len(program)):
            assert program.index_of(program.pc_of(index)) == index

    def test_contains_pc(self, program):
        assert program.contains_pc(TEXT_BASE)
        assert not program.contains_pc(TEXT_BASE - 4)
        assert not program.contains_pc(TEXT_BASE + 4 * len(program))
        assert not program.contains_pc(TEXT_BASE + 2)  # misaligned

    def test_index_of_invalid(self, program):
        with pytest.raises(KeyError):
            program.index_of(TEXT_BASE + 2)
        with pytest.raises(KeyError):
            program.index_of(0)

    def test_instruction_at(self, program):
        assert program.instruction_at(TEXT_BASE).op == "addi"  # li

    def test_entry_defaults_to_main(self, program):
        assert program.entry == program.symbols["main"]

    def test_entry_falls_back_to_text_base(self):
        anonymous = assemble("nop\nret")
        assert anonymous.entry == TEXT_BASE

    def test_len_and_name(self, program):
        assert len(program) == 4
        assert program.name == "demo"


class TestFormatInstruction:
    def test_r_format(self):
        text = format_instruction(Instruction("add", rd=10, rs1=11, rs2=12))
        assert text == "add a0, a1, a2"

    def test_load_store(self):
        assert format_instruction(
            Instruction("lw", rd=5, rs1=2, imm=8)
        ) == "lw t0, 8(sp)"
        assert format_instruction(
            Instruction("sw", rs1=2, rs2=5, imm=-4)
        ) == "sw t0, -4(sp)"

    def test_branch_with_label(self):
        ins = Instruction("beq", rs1=5, rs2=6, imm=-8, label="loop")
        assert format_instruction(ins) == "beq t0, t1, loop"

    def test_branch_without_label_uses_pc(self):
        ins = Instruction("beq", rs1=5, rs2=6, imm=-8)
        assert format_instruction(ins, pc=0x1010) == "beq t0, t1, 0x1008"

    def test_branch_without_pc_shows_offset(self):
        ins = Instruction("bne", rs1=5, rs2=6, imm=12)
        assert format_instruction(ins) == "bne t0, t1, .+12"

    def test_u_and_j_formats(self):
        assert format_instruction(
            Instruction("lui", rd=10, imm=0x12345)
        ) == "lui a0, 0x12345"
        assert format_instruction(
            Instruction("jal", rd=0, imm=16), pc=0x1000
        ) == "jal zero, 0x1010"

    def test_system(self):
        assert format_instruction(Instruction("ecall")) == "ecall"


class TestDisassemble:
    def test_labels_and_addresses(self, program):
        listing = disassemble(program)
        assert "main:" in listing
        assert "done:" in listing
        assert f"{TEXT_BASE:#08x}" in listing

    def test_every_instruction_listed(self, program):
        listing = disassemble(program)
        instruction_lines = [
            line for line in listing.splitlines() if line.startswith("  0x")
        ]
        assert len(instruction_lines) == len(program)

    def test_round_trip_simple_block(self):
        source = "add a0, a1, a2\nxor t0, t1, t2\nsub s0, s1, s2"
        program = assemble(source)
        lines = [
            line.split(": ", 1)[1]
            for line in disassemble(program).splitlines()
            if ": " in line
        ]
        reassembled = assemble("\n".join(lines))
        assert reassembled.instructions == program.instructions

    @pytest.mark.parametrize("name", workload_names())
    def test_suite_kernel_round_trip_executes(self, name):
        """Every suite kernel's listing re-assembles to the same
        operations and runs exactly like the original. Only ``la``'s
        symbol note is lost: the listing shows its resolved halves."""
        program = get_workload(name).program()
        source = "\n".join(
            line.split(": ", 1)[1] if ": " in line else line
            for line in disassemble(program).splitlines()
        )
        restored = Program(
            instructions=assemble(source).instructions,
            text_base=program.text_base,
            data_segments=program.data_segments,
            symbols=program.symbols,
            name=program.name,
        )

        def operations(prog):
            return [
                (ins.op, ins.rd, ins.rs1, ins.rs2, ins.imm)
                for ins in prog.instructions
            ]

        assert operations(restored) == operations(program)
        original = CPU(program).run()
        reassembled = CPU(restored).run()
        assert reassembled.exit_code == original.exit_code
        assert reassembled.steps == original.steps
        assert reassembled.registers == original.registers
        assert reassembled.console == original.console


class TestCLI:
    def test_experiments_cli_rejects_unknown(self):
        from repro.experiments.__main__ import main

        assert main(["figZZZ"]) == 1

    def test_experiments_cli_runs_table2(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table2"]) == 0
        output = capsys.readouterr().out
        assert "Table II" in output
        assert "120 ps" in output
