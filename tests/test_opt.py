"""Tests for the Figure-1 optimizations: DCE, spill removal, realloc."""

import pytest

from repro.cfg.build import build_cfg
from tests.facade import analyze_program
from repro.isa.instructions import Opcode
from repro.opt.dce import eliminate_dead_code
from tests.facade import optimize_program
from repro.opt.realloc import reallocate_callee_saved
from repro.opt.spill import remove_call_spills
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image
from repro.program.rewrite import apply_edits
from repro.sim.interpreter import run_program
from tests.decoded import rows_of


def program_of(source, entry=None):
    return disassemble_image(assemble(source, entry=entry))


class TestDceFigure1a:
    """Figure 1(a): a def of a register not used on return is dead."""

    SOURCE = """
        .routine main
            li a0, 1
            bsr ra, f
            output              ; note: uses a0, not v0
            li v0, 0            ; exit status (halt reads v0)
            halt
        .routine f
            lda v0, 42(zero)    ; dead: no caller reads v0
            ret (ra)
    """

    def test_dead_return_value_deleted(self):
        program = program_of(self.SOURCE)
        analysis = analyze_program(program)
        cfg = analysis.cfgs["f"]
        edits = eliminate_dead_code(cfg, analysis.summary("f"))
        dead = rows_of(program.routine("f").code)[0]
        assert dead.opcode is Opcode.LDA
        assert 0 in edits

    def test_live_return_value_kept(self):
        source = self.SOURCE.replace("output", "bis zero, v0, a0\n    output")
        program = program_of(source)
        analysis = analyze_program(program)
        edits = eliminate_dead_code(analysis.cfgs["f"], analysis.summary("f"))
        assert 0 not in edits


class TestDceFigure1b:
    """Figure 1(b): an argument the callee never reads is dead."""

    SOURCE = """
        .routine main
            li a1, 10           ; dead: f only uses a0
            li a0, 20
            bsr ra, f
            bis zero, v0, a0
            output
            halt
        .routine f
            addq a0, #1, v0
            ret (ra)
    """

    def test_unused_argument_setup_deleted(self):
        program = program_of(self.SOURCE)
        analysis = analyze_program(program)
        edits = eliminate_dead_code(analysis.cfgs["main"], analysis.summary("main"))
        assert 0 in edits       # li a1 is dead
        assert 1 not in edits   # li a0 feeds the call

    def test_iterative_chains(self):
        """Dead uses cascade: deleting a consumer kills its producer."""
        program = program_of(
            """
            .routine main
                li   t0, 1
                addq t0, #1, t1     ; only consumer of t0
                addq t1, #1, t9     ; t9 never used
                halt
            """
        )
        analysis = analyze_program(program)
        edits = eliminate_dead_code(analysis.cfgs["main"], analysis.summary("main"))
        assert set(edits) >= {0, 1, 2}

    def test_stores_and_output_never_deleted(self):
        program = program_of(
            """
            .routine main
                li  t0, 7
                stq t0, -8(sp)
                bis zero, t0, a0
                output
                halt
            """
        )
        analysis = analyze_program(program)
        edits = eliminate_dead_code(analysis.cfgs["main"], analysis.summary("main"))
        assert edits == {}


class TestSpillRemovalFigure1c:
    SOURCE = """
        .routine main
            lda sp, -32(sp)
            stq ra, 0(sp)
            li  t5, 123
            stq t5, 16(sp)      ; spill around the call
            li  a0, 1
            bsr ra, leaf
            ldq t5, 16(sp)      ; reload
            addq t5, v0, a0
            output
            ldq ra, 0(sp)
            lda sp, 32(sp)
            halt
        .routine leaf
            addq a0, #1, v0     ; leaf does not touch t5
            ret (ra)
    """

    def _edits(self, source):
        program = program_of(source)
        analysis = analyze_program(program)
        return (
            program,
            remove_call_spills(analysis.cfgs["main"], analysis.summary("main")),
        )

    def test_spill_pair_deleted(self):
        program, edits = self._edits(self.SOURCE)
        assert len(edits) == 2
        assert all(v is None for v in edits.values())
        optimized = apply_edits(program, {"main": edits})
        assert (
            run_program(optimized).observable
            == run_program(program).observable
        )

    def test_killed_register_not_unspilled(self):
        source = self.SOURCE.replace(
            "addq a0, #1, v0     ; leaf does not touch t5",
            "addq a0, #1, v0\n    lda t5, 0(zero)",
        )
        _program, edits = self._edits(source)
        assert edits == {}

    def test_slot_with_other_access_kept(self):
        source = self.SOURCE.replace(
            "addq t5, v0, a0",
            "addq t5, v0, a0\n    ldq t6, 16(sp)",
        )
        _program, edits = self._edits(source)
        assert edits == {}

    def test_link_register_spill_kept(self):
        """The call itself writes ra, so an ra spill must survive."""
        program = program_of(
            """
            .routine main
                lda sp, -16(sp)
                stq ra, 0(sp)
                bsr ra, leaf
                ldq ra, 0(sp)
                lda sp, 16(sp)
                halt
            .routine leaf
                ret (ra)
            """
        )
        analysis = analyze_program(program)
        edits = remove_call_spills(analysis.cfgs["main"], analysis.summary("main"))
        assert edits == {}


class TestReallocFigure1d:
    SOURCE = """
        .routine main
            li a0, 5
            bsr ra, work
            bis zero, v0, a0
            output
            halt
        .routine work
            lda sp, -16(sp)
            stq ra, 0(sp)
            stq s0, 8(sp)       ; save
            bis zero, a0, s0    ; value lives across the call
            li  a0, 1
            bsr ra, leaf
            addq s0, v0, v0     ; use after the call
            ldq s0, 8(sp)       ; restore
            ldq ra, 0(sp)
            lda sp, 16(sp)
            ret (ra)
        .routine leaf
            addq a0, #1, v0
            ret (ra)
    """

    def _realloc(self, source):
        program = program_of(source)
        analysis = analyze_program(program)
        edits = reallocate_callee_saved(
            analysis.call_graph, analysis.result, analysis.config.convention
        )
        return program, edits

    def test_save_restore_deleted_and_renamed(self):
        program, edits = self._realloc(self.SOURCE)
        assert "work" in edits
        deletions = [i for i, v in edits["work"].items() if v is None]
        assert len(deletions) == 2  # the stq/ldq of s0
        optimized = apply_edits(program, edits)
        assert (
            run_program(optimized).observable
            == run_program(program).observable
        )
        # s0 no longer occurs in work.
        from repro.isa.registers import Register

        s0 = Register.parse("s0").index
        for instruction in rows_of(optimized.routine("work").code):
            assert not (instruction.use_mask | instruction.def_mask) >> s0 & 1

    def test_unknown_call_blocks_realloc(self):
        source = self.SOURCE.replace(
            "bsr ra, leaf",
            "li t0, @fp\n    ldq pv, 0(t0)\n    jsr ra, (pv)",
        )
        source = ".data fp: 0\n" + source
        _program, edits = self._realloc(source)
        assert "work" not in edits

    def test_self_recursive_routine_not_renamed(self):
        program, edits = self._realloc(
            """
            .routine main
                li a0, 5
                bsr ra, work
                halt
            .routine work
                lda sp, -16(sp)
                stq ra, 0(sp)
                stq s0, 8(sp)
                bis zero, a0, s0
                ble s0, done
                subq s0, #1, a0
                bsr ra, work
            done:
                ldq s0, 8(sp)
                ldq ra, 0(sp)
                lda sp, 16(sp)
                ret (ra)
            """
        )
        assert "work" not in edits


class TestPipeline:
    def test_all_passes_on_benchmark(self, small_benchmark):
        result = optimize_program(small_benchmark, verify=True)
        assert result.behaviour_preserved()
        assert result.instructions_removed > 0
        assert result.dynamic_improvement > 0
        assert [r.name for r in result.reports] == ["realloc", "spill", "dce", "deadstore"]

    def test_unknown_pass_rejected(self, quick_program):
        with pytest.raises(ValueError, match="unknown pass"):
            optimize_program(quick_program, passes=("nonsense",))

    def test_pipeline_idempotent_second_round(self, small_benchmark):
        first = optimize_program(small_benchmark, verify=False)
        second = optimize_program(first.optimized, verify=False)
        # A second full round finds almost nothing new.
        assert second.instructions_removed <= max(
            5, first.instructions_removed // 10
        )

    def test_switchy_benchmark(self, switchy_benchmark):
        result = optimize_program(switchy_benchmark, verify=True)
        assert result.behaviour_preserved()
