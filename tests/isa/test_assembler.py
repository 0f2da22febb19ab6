"""Assembler + disassembler tests."""

import pytest

from repro import memmap
from repro.isa.assembler import AssemblyError, assemble
from repro.isa.disasm import disassemble_program
from repro.isa.encode import decode


def decode_at(program, address):
    return decode(program.slice_from(address), address)


class TestBasics:
    def test_figure8_left_listing(self):
        """The paper's Figure 8 unprotected loop assembles verbatim."""
        program = assemble(
            """
            .task main untrusted
                nop
                mov #100, r10
            loop:
                nop
                nop
                dec r10
                jnz loop
                jmp 0
            """
        )
        image = program.words()
        first = decode_at(program, 0)
        assert first.render() == "mov r3, r3"  # nop
        second = decode_at(program, 1)
        assert second.mnemonic == "mov"
        assert second.src.ext == 100
        dec = decode_at(program, 5)
        assert dec.mnemonic == "sub" and dec.src.ext == 1
        jnz = decode_at(program, 7)
        assert jnz.mnemonic == "jnz" and jnz.jump_target == 3
        jmp = decode_at(program, 8)
        assert jmp.mnemonic == "jmp" and jmp.jump_target == 0

    def test_labels_and_forward_references(self):
        program = assemble(
            """
                jmp end
                nop
            end:
                halt
            """
        )
        jump = decode_at(program, 0)
        assert jump.jump_target == program.labels["end"] == 2
        halt = decode_at(program, 2)
        assert halt.is_self_loop

    def test_peripheral_symbols(self):
        program = assemble("mov #0x5a03, &WDTCTL")
        instruction = decode_at(program, 0)
        assert instruction.dst.is_absolute
        assert instruction.dst.ext == memmap.WDTCTL

    def test_equ_and_expressions(self):
        program = assemble(
            """
            .equ BASE 0x400
                mov #BASE+4, r5
                mov #BASE-1, r6
                mov #-1, r7
            """
        )
        assert decode_at(program, 0).src.ext == 0x404
        assert decode_at(program, 2).src.ext == 0x3FF
        assert decode_at(program, 4).src.ext == 0xFFFF

    def test_dollar_is_current_address(self):
        program = assemble(
            """
                nop
                jmp $
            """
        )
        jump = decode_at(program, 1)
        assert jump.is_self_loop

    def test_org(self):
        program = assemble(
            """
            .org 0x10
                nop
            """
        )
        assert 0x10 in program.code
        assert 0 not in program.code

    def test_addressing_modes(self):
        program = assemble(
            """
                mov @r15, r14
                mov @r15+, r14
                mov 2(r15), r14
                mov r14, 4(r13)
                mov &0x200, r5
            """
        )
        modes = [decode_at(program, a) for a in (0, 1, 2, 4, 6)]
        assert modes[0].src.render() == "@r15"
        assert modes[1].src.render() == "@r15+"
        assert modes[2].src.ext == 2
        assert modes[3].dst.ext == 4
        assert modes[4].src.is_absolute


class TestPseudoInstructions:
    def test_ret_pop_push(self):
        program = assemble(
            """
                push r10
                pop r10
                ret
            """
        )
        push = decode_at(program, 0)
        assert push.mnemonic == "push"
        pop = decode_at(program, 1)
        assert pop.mnemonic == "mov" and pop.src.render() == "@r1+"
        ret = decode_at(program, 2)
        assert ret.mnemonic == "mov" and ret.dst.reg == 0

    def test_br(self):
        program = assemble("br #0x40")
        branch = decode_at(program, 0)
        assert branch.writes_pc
        assert branch.src.ext == 0x40

    def test_arith_pseudos(self):
        program = assemble(
            """
                clr r4
                inc r4
                dec r4
                tst r4
                inv r4
                rla r4
                adc r4
            """
        )
        mnemonics = []
        address = 0
        while address < program.code_size:
            instruction = decode_at(program, address)
            mnemonics.append(instruction.mnemonic)
            address += instruction.length
        assert mnemonics == ["mov", "add", "sub", "cmp", "xor", "add", "addc"]


class TestDataAndTasks:
    def test_data_section(self):
        program = assemble(
            """
                nop
            .data 0x400
            table:
                .word 1, 2, 3
                .space 2
            value:
                .word 0xBEEF
            """
        )
        assert program.labels["table"] == 0x400
        assert program.labels["value"] == 0x405
        assert program.data[0x400] == 1
        assert program.data[0x402] == 3
        assert program.data[0x403] == 0
        assert program.data[0x405] == 0xBEEF

    def test_task_partitions(self):
        program = assemble(
            """
            .task sys trusted
                nop
                nop
            .task app untrusted
                nop
                halt
            """
        )
        assert len(program.tasks) == 2
        sys_task = program.task_named("sys")
        app_task = program.task_named("app")
        assert sys_task.trusted and not app_task.trusted
        assert sys_task.start == 0 and sys_task.end == 2
        assert app_task.start == 2 and app_task.end == 4
        assert program.task_of(1).name == "sys"
        assert program.task_of(3).name == "app"
        assert program.untrusted_tasks() == [app_task]

    def test_line_debug_info(self):
        program = assemble(
            """
            .task main trusted
                mov #1, r4
                mov #2, r5
            """
        )
        line = program.line_at(2)
        assert line is not None
        assert "mov" in line.text and "#2" in line.text
        assert line.task == "main"

    def test_text_after_data(self):
        program = assemble(
            """
                nop
            .data 0x400
                .word 5
            .text
                nop
            """
        )
        assert 1 in program.code


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError, match="unknown mnemonic"):
            assemble("frobnicate r4")

    @pytest.mark.parametrize("source", ["mov.b r4, r5", "add.b #1, r4"])
    def test_byte_suffix_is_rejected(self, source):
        """The LP430 ISA is word-only: ``.b`` byte forms are refused,
        not silently assembled as word operations (DESIGN.md §10)."""
        with pytest.raises(AssemblyError, match="unknown mnemonic"):
            assemble(source)

    def test_bad_operand_count(self):
        with pytest.raises(AssemblyError, match="takes 2"):
            assemble("mov r4")

    def test_undefined_symbol(self):
        with pytest.raises(AssemblyError, match="undefined symbol"):
            assemble("mov #nothere, r4")

    def test_duplicate_label(self):
        with pytest.raises(AssemblyError, match="duplicate"):
            assemble("x:\nx:\n nop")

    def test_jump_out_of_range(self):
        source = "jmp far\n" + ".org 0x600\nfar: nop"
        with pytest.raises(AssemblyError, match="out of range"):
            assemble(source)

    def test_instruction_in_data_section(self):
        with pytest.raises(AssemblyError, match="data section"):
            assemble(".data 0x400\n nop")

    def test_error_carries_line_number(self):
        with pytest.raises(AssemblyError) as info:
            assemble("nop\nbogus r1\n")
        assert info.value.line_no == 2


class TestRoundTripThroughDisassembler:
    def test_listing_contains_everything(self):
        program = assemble(
            """
            .task sys trusted
            start:
                mov #0x5a03, &WDTCTL
                mov @r15+, r14
                jnz start
                halt
            """,
            name="demo",
        )
        listing = disassemble_program(program)
        assert "start:" in listing
        assert "mov" in listing
        assert "jnz 0x0000" in listing
        assert "; sys (trusted)" in listing

    def test_reassembly_fixpoint(self):
        """Disassembling and hand-reassembling preserves the image."""
        source = """
            .task t untrusted
                mov #100, r10
            loop:
                dec r10
                jnz loop
                halt
        """
        program = assemble(source)
        # every word decodes; total size is consistent
        image = program.words()
        address = 0
        count = 0
        while address < len(image):
            instruction = decode(image[address:] + [0, 0], address)
            address += instruction.length
            count += 1
        assert count == 4
