"""Tests for the binary rewriter: deletions, renames, relocation fix-ups."""

import pytest

from repro.isa.encoding import encode, words_code
from repro.isa.instructions import ControlKind, Opcode
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image
from repro.program.model import Program, Routine
from repro.program.rewrite import (
    RewriteError,
    apply_edits,
    program_to_image,
)
from repro.sim.interpreter import run_program
from tests.decoded import rows_of


def program_of(source, entry=None):
    return disassemble_image(assemble(source, entry=entry))


class TestDeletion:
    SOURCE = """
        .routine main
            li  t9, 999         ; dead: deleted by the edit below
            li  t0, 5
        top:
            subq t0, #1, t0
            bgt  t0, top
            bis  zero, t0, a0
            output
            halt
    """

    def test_delete_preserves_behaviour(self):
        program = program_of(self.SOURCE)
        before = run_program(program)
        edited = apply_edits(program, {"main": {0: None}})
        after = run_program(edited)
        assert before.observable == after.observable
        assert edited.instruction_count == program.instruction_count - 1

    def test_branch_displacements_fixed(self):
        program = program_of(self.SOURCE)
        edited = apply_edits(program, {"main": {0: None}})
        # The loop still branches back one instruction.
        branch = rows_of(edited.routine("main").code)[2]
        assert branch.opcode is Opcode.BGT
        assert branch.displacement == -2

    def test_delete_control_instruction_rejected(self):
        program = program_of(self.SOURCE)
        # Index 3 is the bgt.
        with pytest.raises(RewriteError, match="control"):
            apply_edits(program, {"main": {3: None}})

    def test_delete_everything_rejected(self):
        program = program_of(".routine main\n halt\n")
        with pytest.raises(RewriteError):
            apply_edits(program, {"main": {0: None}})

    def test_unknown_routine_rejected(self):
        program = program_of(".routine main\n halt\n")
        with pytest.raises(RewriteError, match="unknown routine"):
            apply_edits(program, {"ghost": {0: None}})


class TestReplacement:
    def test_register_rename(self):
        program = program_of(
            ".routine main\n li t0, 7\n bis zero, t0, a0\n output\n halt\n"
        )
        renamed = apply_edits(
            program,
            {
                "main": {
                    0: encode(Opcode.LDA, ra=8, rb=31, displacement=7),
                    1: encode(Opcode.BIS, ra=31, rb=8, rc=16),
                }
            },
        )
        assert run_program(renamed).outputs == [7]

    def test_control_kind_change_rejected(self):
        program = program_of(".routine main\n li t0, 7\n halt\n")
        with pytest.raises(RewriteError, match="control"):
            apply_edits(
                program,
                {"main": {0: encode(Opcode.RET, rb=26)}},
            )


class TestCrossRoutineFixups:
    SOURCE = """
        .routine main
            li  t9, 1           ; filler to delete (shifts everything)
            li  t9, 2
            li  a0, 4
            bsr ra, callee
            bis zero, v0, a0
            output
            halt
        .routine callee
            addq a0, #1, v0
            ret (ra)
    """

    def test_bsr_retargeted_after_shift(self):
        program = program_of(self.SOURCE)
        edited = apply_edits(program, {"main": {0: None, 1: None}})
        assert run_program(edited).outputs == [5]
        # Callee moved down by 8 bytes.
        assert edited.routine("callee").address == (
            program.routine("callee").address - 8
        )

    def test_ldah_lda_chain_repaired(self):
        source = """
            .routine main
                li  t9, 1       ; deleted
                li  a0, 4
                li  pv, &callee
                jsr ra, (pv)
                bis zero, v0, a0
                output
                halt
            .routine callee
                addq a0, #3, v0
                ret (ra)
        """
        program = program_of(source)
        edited = apply_edits(program, {"main": {0: None}})
        assert run_program(edited).outputs == [7]

    def test_ldah_lda_chain_pushed_out_of_range_rejected(self):
        # The lowest address an ldah/lda pair reaches is -0x80008000;
        # deleting one word moves ``callee`` (and the pair's value)
        # below it.
        callee_address = -0x8000_8000
        main = [
            encode(Opcode.LDA, ra=1, rb=31, displacement=1),  # deleted
            encode(Opcode.LDAH, ra=27, rb=31, displacement=-0x8000),
            encode(Opcode.LDA, ra=27, rb=27, displacement=-0x8000),
            encode(Opcode.JSR, ra=26, rb=27),
            encode(Opcode.HALT),
        ]
        program = Program(
            routines=[
                Routine("main", callee_address - 4 * len(main), words_code(main)),
                Routine(
                    "callee", callee_address,
                    words_code([encode(Opcode.RET, rb=26)]),
                ),
            ],
            entry="main",
        )
        with pytest.raises(RewriteError, match="out of range"):
            apply_edits(program, {"main": {0: None}})
        apply_edits(program, {})  # the chain itself relinks in place

    def test_jump_table_patched(self):
        source = """
            .routine main
                li   t9, 1      ; deleted
                li   t0, 1
                li   t2, &T
                sll  t0, #3, t1
                addq t2, t1, t2
                ldq  t2, 0(t2)
                jmp  t2, [T]
            c0: li a0, 100
                output
                halt
            c1: li a0, 200
                output
                halt
            .jumptable T: c0, c1
        """
        program = program_of(source)
        edited = apply_edits(program, {"main": {0: None}})
        assert run_program(edited).outputs == [200]
        # The table's data location did not move; its contents did.
        jump_address = next(iter(edited.jump_targets))
        assert edited.jump_table_locations[jump_address] == next(
            iter(program.jump_table_locations.values())
        )

    def test_data_relocations_patched(self):
        from repro.program.asm import Assembler

        asm = Assembler()
        asm.data_code_pointers("fns", ["callee"])
        asm.routine("main")
        asm.li("t9", 1)  # deleted
        asm.li("a0", 30)
        asm.li("t0", "@fns")
        asm.memory("ldq", "pv", 0, "t0")
        asm.jsr("pv")
        asm.op("bis", "zero", "v0", "a0")
        asm.output()
        asm.halt()
        asm.routine("callee")
        asm.op("addq", "a0", 3, "v0")
        asm.ret()
        program = disassemble_image(asm.build())
        edited = apply_edits(program, {"main": {0: None}})
        assert run_program(edited).outputs == [33]


class TestProgramToImage:
    def test_roundtrip(self, quick_program):
        image = program_to_image(quick_program)
        reloaded = disassemble_image(image)
        assert reloaded.routine_names() == quick_program.routine_names()
        assert (
            run_program(reloaded).observable
            == run_program(quick_program).observable
        )

    def test_rewritten_program_serializes(self):
        program = program_of(TestCrossRoutineFixups.SOURCE)
        edited = apply_edits(program, {"main": {0: None}})
        image = program_to_image(edited)
        reloaded = disassemble_image(image)
        assert run_program(reloaded).outputs == [5]

    def test_generated_benchmark_roundtrips(self, small_benchmark):
        image = program_to_image(small_benchmark)
        reloaded = disassemble_image(image)
        assert (
            run_program(reloaded).observable
            == run_program(small_benchmark).observable
        )


class TestNoOpEdit:
    def test_empty_edits_identity(self, quick_program):
        edited = apply_edits(quick_program, {})
        assert edited.instruction_count == quick_program.instruction_count
        assert (
            run_program(edited).observable
            == run_program(quick_program).observable
        )

    def test_empty_edits_keep_code_bytes_and_rows(self, small_benchmark):
        edited = apply_edits(small_benchmark, {})
        for routine in small_benchmark:
            kept = edited.routine(routine.name)
            assert kept.code is routine.code
            assert kept.rows is routine.rows


class TestWordsAndRows:
    """The rewriter edits words and hands each routine rows that are
    its words' decode."""

    def test_relinked_rows_are_the_decode_of_the_new_code(self, small_benchmark):
        from repro.isa.encoding import decode_rows

        # Each routine's first fall-through word: every later branch,
        # call and address chain in the program moves.
        victims = {
            routine.name: {
                next(
                    index for index, row in enumerate(routine.rows)
                    if row[0] is ControlKind.FALLTHROUGH
                ): None
            }
            for routine in small_benchmark
        }
        edited = apply_edits(small_benchmark, victims)
        assert edited.instruction_count < small_benchmark.instruction_count
        for routine in edited:
            assert routine.rows == decode_rows(routine.code)
        image = program_to_image(edited)
        assert image.text == b"".join(routine.code for routine in edited)
