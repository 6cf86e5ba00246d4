"""Tests for the assembler (programmatic API and text syntax)."""

import pytest

from repro.isa.instructions import Opcode
from repro.program.asm import Assembler, AssemblyError, assemble
from repro.program.disasm import disassemble_image
from repro.program.image import DEFAULT_DATA_BASE, DEFAULT_TEXT_BASE
from repro.program.linker import ObjectModule
from tests.decoded import rows_of


def decode(image):
    return list(rows_of(image.text))


class TestProgrammaticApi:
    def test_simple_routine(self):
        asm = Assembler()
        asm.routine("main").op("addq", "t0", "t1", "t2").halt()
        image = asm.build()
        instructions = decode(image)
        assert instructions[0].opcode is Opcode.ADDQ
        assert instructions[1].opcode is Opcode.HALT
        assert image.symbol_by_name("main").size == 8

    def test_branch_resolution_forward_and_backward(self):
        asm = Assembler()
        asm.routine("main")
        asm.label("top")
        asm.op("subq", "t0", 1, "t0")
        asm.branch("bgt", "t0", "top")      # backward
        asm.branch("beq", "t0", "done")     # forward
        asm.op("addq", "t0", 1, "t0")
        asm.label("done")
        asm.halt()
        instructions = decode(asm.build())
        assert instructions[1].displacement == -2
        assert instructions[2].displacement == 1

    def test_bsr_targets_routine(self):
        asm = Assembler()
        asm.routine("main").bsr("callee").halt()
        asm.routine("callee").ret()
        instructions = decode(asm.build())
        # bsr at index 0, callee at index 2 -> displacement 1
        assert instructions[0].opcode is Opcode.BSR
        assert instructions[0].displacement == 1

    def test_li_small_constant_single_lda(self):
        asm = Assembler()
        asm.routine("main").li("t0", 41).halt()
        instructions = decode(asm.build())
        assert instructions[0].opcode is Opcode.LDA
        assert instructions[0].displacement == 41
        assert len(instructions) == 2

    def test_li_large_constant_pair(self):
        asm = Assembler()
        asm.routine("main").li("t0", 0x12345).halt()
        instructions = decode(asm.build())
        assert instructions[0].opcode is Opcode.LDAH
        assert instructions[1].opcode is Opcode.LDA
        high, low = instructions[0].displacement, instructions[1].displacement
        assert (high << 16) + low == 0x12345

    def test_li_symbol_resolves_to_routine_address(self):
        asm = Assembler()
        asm.routine("main").li("pv", "&callee").jsr("pv").halt()
        asm.routine("callee").ret()
        image = asm.build()
        instructions = decode(image)
        high, low = instructions[0].displacement, instructions[1].displacement
        assert (high << 16) + low == image.symbol_by_name("callee").address

    def test_li_negative_low_split(self):
        value = 0x1FFFF  # low part sign-extends negative
        asm = Assembler()
        asm.routine("main").li("t0", value).halt()
        instructions = decode(asm.build())
        high, low = instructions[0].displacement, instructions[1].displacement
        assert (high << 16) + low == value
        assert low < 0

    def test_jump_table(self):
        asm = Assembler()
        asm.routine("main")
        asm.jump_table("T", ["a", "b"])
        asm.jmp("t0", table="T")
        asm.label("a").op("addq", "t0", 1, "t0").halt()
        asm.label("b").halt()
        image = asm.build()
        assert len(image.jump_tables) == 1
        info = image.jump_tables[0]
        targets = image.read_jump_table(info)
        assert targets == (
            image.text_base + 4,  # label a
            image.text_base + 12,  # label b
        )

    def test_data_quads(self):
        asm = Assembler()
        asm.data_quads("tbl", [1, 2, 3])
        asm.routine("main").li("t0", "@tbl").halt()
        image = asm.build()
        assert image.data[:8] == (1).to_bytes(8, "little")
        instructions = decode(image)
        high, low = instructions[0].displacement, instructions[1].displacement
        assert (high << 16) + low == DEFAULT_DATA_BASE

    def test_data_code_pointers_resolve_and_relocate(self):
        asm = Assembler()
        asm.data_code_pointers("fns", ["callee"])
        asm.routine("main").halt()
        asm.routine("callee").ret()
        image = asm.build()
        pointer = int.from_bytes(image.data[:8], "little")
        assert pointer == image.symbol_by_name("callee").address
        assert image.data_relocations == [DEFAULT_DATA_BASE]

    def test_exported_routine(self):
        asm = Assembler()
        asm.routine("main", exported=True).halt()
        assert asm.build().symbol_by_name("main").exported


class TestFarCalls:
    def test_out_of_range_bsr_gets_a_veneer(self):
        """A call beyond ±2^20 instructions becomes li pv + jsr."""
        asm = Assembler()
        asm.routine("main")
        asm.bsr("far")
        asm.halt()
        asm.routine("pad")
        # Over a million filler instructions between caller and callee.
        for _ in range((1 << 20) + 8):
            asm.op("bis", "zero", "zero", "zero")
        asm.ret()
        asm.routine("far")
        asm.op("addq", "a0", 1, "v0")
        asm.ret()
        image = asm.build()
        instructions = decode(image)
        # The bsr became ldah/lda/jsr.
        assert instructions[0].opcode is Opcode.LDAH
        assert instructions[1].opcode is Opcode.LDA
        assert instructions[2].opcode is Opcode.JSR
        # And the veneer targets the right routine.
        from repro.program.disasm import disassemble_image
        from repro.cfg.build import build_cfg

        program = disassemble_image(image)
        cfg = build_cfg(program, program.routine("main"))
        assert cfg.call_sites[0].callee == "far"

    def test_near_calls_unchanged(self):
        asm = Assembler()
        asm.routine("main")
        asm.bsr("near")
        asm.halt()
        asm.routine("near")
        asm.ret()
        instructions = decode(asm.build())
        assert instructions[0].opcode is Opcode.BSR


class TestProgrammaticErrors:
    def test_instruction_before_routine(self):
        with pytest.raises(AssemblyError):
            Assembler().halt()

    def test_duplicate_routine(self):
        asm = Assembler().routine("f")
        asm.halt()
        with pytest.raises(AssemblyError):
            asm.routine("f")

    def test_duplicate_of_an_earlier_routine(self):
        asm = Assembler()
        for name in ("f", "g", "h"):
            asm.routine(name).halt()
        with pytest.raises(AssemblyError, match="duplicate routine 'g'"):
            asm.routine("g")
        module = ObjectModule("m")
        module.routine("f").halt()
        module.routine("g").halt()
        with pytest.raises(AssemblyError, match="duplicate routine 'f'"):
            module.routine("f")
        with pytest.raises(AssemblyError, match="line 3: duplicate routine 'f'"):
            assemble(".routine f\n halt\n.routine f\n halt\n")

    def test_duplicate_label(self):
        asm = Assembler().routine("f").label("x")
        with pytest.raises(AssemblyError):
            asm.label("x")

    def test_unknown_label(self):
        asm = Assembler().routine("f")
        asm.br("nowhere")
        asm.halt()
        with pytest.raises(AssemblyError, match="unknown label"):
            asm.build()

    def test_call_to_unknown_routine(self):
        asm = Assembler().routine("f")
        asm.bsr("ghost")
        asm.halt()
        with pytest.raises(AssemblyError, match="unknown routine"):
            asm.build()

    def test_empty_routine(self):
        asm = Assembler().routine("a")
        asm.routine("b")
        asm.halt()
        with pytest.raises(AssemblyError, match="empty"):
            asm.build()

    def test_empty_program(self):
        with pytest.raises(AssemblyError):
            Assembler().build()

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError):
            Assembler().routine("f").op("frobnicate", "t0", "t1", "t2")

    def test_wrong_format_via_op(self):
        with pytest.raises(AssemblyError):
            Assembler().routine("f").op("ldq", "t0", "t1", "t2")

    def test_unknown_entry(self):
        asm = Assembler().routine("f")
        asm.halt()
        with pytest.raises(AssemblyError, match="entry"):
            asm.build(entry="ghost")

    def test_empty_jump_table(self):
        with pytest.raises(AssemblyError):
            Assembler().routine("f").jump_table("T", [])


class TestTextSyntax:
    def test_full_program(self, quick_program):
        assert quick_program.routine_count == 2
        assert quick_program.entry == "main"

    def test_comments_and_blank_lines(self):
        image = assemble(
            """
            ; leading comment
            .routine main export

                halt      ; trailing comment
            # hash comment
            """
        )
        assert decode(image)[0].opcode is Opcode.HALT

    def test_label_with_instruction_on_same_line(self):
        image = assemble(
            """
            .routine main
            top: subq t0, #1, t0
                bgt t0, top
                halt
            """
        )
        assert decode(image)[1].displacement == -2

    def test_literal_operand(self):
        image = assemble(".routine m\n addq t0, #200, t1\n halt\n")
        assert decode(image)[0].literal == 200

    def test_memory_operands(self):
        image = assemble(".routine m\n ldq t0, -8(sp)\n stq t0, 16(sp)\n halt\n")
        instructions = decode(image)
        assert instructions[0].displacement == -8
        assert instructions[1].displacement == 16

    def test_memory_operand_without_displacement(self):
        image = assemble(".routine m\n ldq t0, (sp)\n halt\n")
        assert decode(image)[0].displacement == 0

    def test_jsr_and_ret_forms(self):
        image = assemble(
            """
            .routine m
                jsr (pv)
                jsr ra, (pv)
                ret (ra)
            """
        )
        instructions = decode(image)
        assert instructions[0].opcode is Opcode.JSR
        assert instructions[1].opcode is Opcode.JSR
        assert instructions[2].opcode is Opcode.RET

    def test_jmp_with_table(self):
        image = assemble(
            """
            .routine m
                jmp t0, [T]
            a:  halt
            b:  halt
            .jumptable T: a, b
            """
        )
        assert len(image.jump_tables) == 1
        assert image.read_jump_table(image.jump_tables[0]) == (
            image.text_base + 4,
            image.text_base + 8,
        )

    def test_jmp_unknown_target(self):
        image = assemble(".routine m\n jmp (t0)\n halt\n")
        assert image.jump_tables == []

    def test_data_directive(self):
        image = assemble(
            """
            .data vals: 1, 0x10, 3
            .routine m
                li t0, @vals
                ldq t1, 8(t0)
                halt
            """
        )
        assert image.data[8:16] == (0x10).to_bytes(8, "little")

    def test_entry_directive(self):
        image = assemble(
            """
            .entry start
            .routine other
                halt
            .routine start
                halt
            """
        )
        assert image.entry_point == image.symbol_by_name("start").address

    def test_error_reports_line_number(self):
        with pytest.raises(AssemblyError, match="line 3"):
            assemble(".routine m\n halt\n bogus t0\n")

    def test_li_ampersand_and_at(self):
        program = disassemble_image(
            assemble(
                """
                .data d: 7
                .routine m
                    li t0, &m
                    li t1, @d
                    halt
                """
            )
        )
        assert program.routine_count == 1
