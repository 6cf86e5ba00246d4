"""Assorted edge cases across modules."""

import pytest

from tests.facade import analyze_program
from repro.interproc.baseline import analyze_program_baseline
from repro.program.asm import Assembler, AssemblyError, assemble
from repro.program.disasm import disassemble_image
from repro.sim.interpreter import run_program


def program_of(source, entry=None):
    return disassemble_image(assemble(source, entry=entry))


class TestAssemblerEdges:
    def test_empty_hint_targets_rejected(self):
        asm = Assembler().routine("f")
        with pytest.raises(AssemblyError, match="hint_targets"):
            asm.jsr("pv", hint_targets=[])

    def test_hint_to_unknown_routine_rejected(self):
        asm = Assembler()
        asm.routine("f")
        asm.jsr("pv", hint_targets=["ghost"])
        asm.halt()
        with pytest.raises(AssemblyError, match="unknown routine"):
            asm.build()

    def test_pointer_to_unknown_routine_rejected(self):
        asm = Assembler()
        asm.data_code_pointers("t", ["ghost"])
        asm.routine("f")
        asm.halt()
        with pytest.raises(AssemblyError, match="unknown routine"):
            asm.build()

    def test_duplicate_data_label_rejected(self):
        asm = Assembler()
        asm.data_quads("d", [1])
        with pytest.raises(AssemblyError, match="duplicate"):
            asm.data_quads("d", [2])

    def test_li_address_out_of_range(self):
        asm = Assembler().routine("f")
        with pytest.raises(AssemblyError, match="range"):
            asm.li("t0", 1 << 40)


class TestSingleRoutinePrograms:
    def test_minimal_halt_program(self):
        program = program_of(".routine main\n halt\n")
        analysis = analyze_program(program)
        baseline = analyze_program_baseline(program)
        assert analysis.result.equal_summaries(baseline.result)
        run_program(program)  # raises ExecutionError unless it halts

    def test_routine_that_only_returns(self):
        program = program_of(".routine f export\n ret (ra)\n", entry="f")
        analysis = analyze_program(program)
        summary = analysis.summary("f")
        assert "ra" in summary.call_used.names()
        assert summary.call_defined.names() == set()

    def test_self_loop_single_block(self):
        program = program_of(
            """
            .routine main
            top:
                subq t0, #1, t0
                bgt t0, top
                halt
            """
        )
        analysis = analyze_program(program)
        baseline = analyze_program_baseline(program)
        assert analysis.result.equal_summaries(baseline.result)


class TestConditionalStructures:
    def test_deeply_nested_diamonds(self):
        parts = [".routine main"]
        for i in range(12):
            parts.append(f"    beq t{i % 8}, L{i}")
            parts.append(f"    addq t0, #{i + 1}, t0")
            parts.append(f"L{i}:")
        parts.append("    bis zero, t0, a0")
        parts.append("    output")
        parts.append("    halt")
        program = program_of("\n".join(parts))
        analysis = analyze_program(program)
        baseline = analyze_program_baseline(program)
        assert analysis.result.equal_summaries(baseline.result)
        run_program(program)  # raises ExecutionError unless it halts

    def test_long_call_chain(self):
        """A 30-deep call chain exercises the callee-first ordering."""
        parts = []
        parts.append(".routine main")
        parts.append("    li a0, 1")
        parts.append("    bsr ra, f0")
        parts.append("    bis zero, v0, a0")
        parts.append("    output")
        parts.append("    halt")
        depth = 30
        for i in range(depth):
            parts.append(f".routine f{i}")
            parts.append("    lda sp, -16(sp)")
            parts.append("    stq ra, 0(sp)")
            if i + 1 < depth:
                parts.append("    addq a0, #1, a0")
                parts.append(f"    bsr ra, f{i + 1}")
            else:
                parts.append("    bis zero, a0, v0")
            parts.append("    ldq ra, 0(sp)")
            parts.append("    lda sp, 16(sp)")
            parts.append("    ret (ra)")
        program = program_of("\n".join(parts))
        analysis = analyze_program(program)
        baseline = analyze_program_baseline(program)
        assert analysis.result.equal_summaries(baseline.result)
        result = run_program(program)
        assert result.outputs == [depth]  # 1 + 29 increments

    def test_call_in_both_diamond_arms(self):
        program = program_of(
            """
            .routine main
                lda sp, -16(sp)
                stq ra, 0(sp)
                beq a0, other
                bsr ra, left
                br join
            other:
                bsr ra, right
            join:
                bis zero, v0, a0
                output
                ldq ra, 0(sp)
                lda sp, 16(sp)
                li v0, 0
                halt
            .routine left
                li v0, 1
                ret (ra)
            .routine right
                li v0, 2
                ret (ra)
            """
        )
        analysis = analyze_program(program)
        baseline = analyze_program_baseline(program)
        assert analysis.result.equal_summaries(baseline.result)
        # Both callees see v0 live at exit (the join uses it).
        for callee in ("left", "right"):
            assert "v0" in analysis.summary(callee).live_at_exit(
                next(iter(analysis.summary(callee).exit_live_masks))
            ).names()


class TestMultipleEntrances:
    def test_two_independent_entry_points(self):
        """Exported routines act as extra entrances to the program."""
        program = program_of(
            """
            .routine main export
                li v0, 0
                halt
            .routine api export
                addq a0, #1, v0
                ret (ra)
            """
        )
        analysis = analyze_program(program)
        summary = analysis.summary("api")
        # Unknown external callers: conservative exit liveness.
        assert "v0" in summary.live_at_exit(
            next(iter(summary.exit_live_masks))
        ).names()
