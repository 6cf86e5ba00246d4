"""Tests for dead frame-store elimination and the cycle cost model."""

import pytest

from repro.cfg.build import build_cfg
from tests.facade import analyze_program
from repro.opt.deadstore import eliminate_dead_stores
from tests.facade import optimize_program
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image
from repro.program.rewrite import apply_edits
from repro.sim.cost_model import ALPHA_21164, CostModel, cycle_improvement
from repro.sim.interpreter import run_program
from tests.decoded import rows_of


def edits_of(source, routine="main"):
    program = disassemble_image(assemble(source))
    analysis = analyze_program(program)
    return (
        program,
        eliminate_dead_stores(
            analysis.cfgs[routine], analysis.summary(routine)
        ),
    )


class TestDeadStores:
    def test_store_without_load_removed(self):
        program, edits = edits_of(
            """
            .routine main
                lda sp, -16(sp)
                li  t0, 7
                stq t0, 0(sp)       ; never loaded
                bis zero, t0, a0
                output
                lda sp, 16(sp)
                halt
            """
        )
        assert list(edits.values()) == [None]
        optimized = apply_edits(program, {"main": edits})
        assert run_program(optimized).observable == run_program(program).observable

    def test_store_with_load_kept(self):
        _program, edits = edits_of(
            """
            .routine main
                lda sp, -16(sp)
                li  t0, 7
                stq t0, 0(sp)
                ldq a0, 0(sp)
                output
                lda sp, 16(sp)
                halt
            """
        )
        assert edits == {}

    def test_overwritten_store_removed(self):
        _program, edits = edits_of(
            """
            .routine main
                lda sp, -16(sp)
                li  t0, 1
                stq t0, 0(sp)       ; dead: overwritten before any load
                li  t0, 2
                stq t0, 0(sp)
                ldq a0, 0(sp)
                output
                lda sp, 16(sp)
                halt
            """
        )
        assert len(edits) == 1
        assert 2 in edits  # the first store (index 2)

    def test_store_live_through_branch_kept(self):
        _program, edits = edits_of(
            """
            .routine main
                lda sp, -16(sp)
                li  t0, 7
                stq t0, 0(sp)
                beq t0, skip
                ldq a0, 0(sp)       ; load on one path only
                output
            skip:
                lda sp, 16(sp)
                halt
            """
        )
        assert edits == {}

    def test_non_sp_memory_access_bails(self):
        _program, edits = edits_of(
            """
            .routine main
                lda sp, -16(sp)
                li  t0, 7
                stq t0, 0(sp)
                li  t1, 0x400000
                ldq t2, 0(t1)       ; non-sp access: no frame privacy proof
                lda sp, 16(sp)
                halt
            """
        )
        assert edits == {}

    def test_mid_routine_sp_adjustment_bails(self):
        _program, edits = edits_of(
            """
            .routine main
                lda sp, -16(sp)
                stq t0, 0(sp)       ; removing this would be wrong: the
                beq t0, done        ; inner frame's 0(sp) is a different slot
                lda sp, -16(sp)
                ldq t1, 0(sp)
                lda sp, 16(sp)
            done:
                lda sp, 16(sp)
                halt
            """
        )
        assert edits == {}

    def test_unknown_jump_exit_bails(self):
        _program, edits = edits_of(
            """
            .routine main
                lda sp, -16(sp)
                stq t0, 0(sp)
                beq t0, wild
                lda sp, 16(sp)
                halt
            wild:
                jmp (t7)
            """
        )
        assert edits == {}

    def test_save_orphaned_by_dce_removed_by_pipeline(self):
        """An internal routine whose callers never need s0 preserved:
        DCE kills the restore, deadstore kills the save."""
        program = disassemble_image(
            assemble(
                """
                .routine main
                    li a0, 1
                    bsr ra, f
                    bis zero, v0, a0
                    output
                    halt
                .routine f
                    lda sp, -16(sp)
                    stq s0, 0(sp)
                    bis zero, a0, s0
                    addq s0, #1, v0
                    ldq s0, 0(sp)
                    lda sp, 16(sp)
                    ret (ra)
                """
            )
        )
        result = optimize_program(
            program, passes=("dce", "deadstore"), verify=True
        )
        assert result.behaviour_preserved()
        code = result.optimized.routine("f").code
        names = [i.opcode.mnemonic for i in rows_of(code)]
        assert "stq" not in names
        assert "ldq" not in names

    def test_frame_slots_are_per_activation(self):
        """Recursive activations have distinct frames; a store read only
        by the same activation's load must be kept."""
        program = disassemble_image(
            assemble(
                """
                .routine main
                    li a0, 3
                    bsr ra, fact
                    bis zero, v0, a0
                    output
                    halt
                .routine fact
                    lda sp, -16(sp)
                    stq ra, 0(sp)
                    stq a0, 8(sp)
                    li v0, 1
                    ble a0, done
                    subq a0, #1, a0
                    bsr ra, fact
                    ldq t0, 8(sp)
                    mulq v0, t0, v0
                done:
                    ldq ra, 0(sp)
                    lda sp, 16(sp)
                    ret (ra)
                """
            )
        )
        analysis = analyze_program(program)
        edits = eliminate_dead_stores(
            analysis.cfgs["fact"], analysis.summary("fact")
        )
        assert edits == {}
        assert run_program(program).outputs == [6]


class TestCostModel:
    def test_default_weights(self):
        assert ALPHA_21164.cost_of("ldq") == 3
        assert ALPHA_21164.cost_of("stq") == 2
        assert ALPHA_21164.cost_of("mulq") == 8
        assert ALPHA_21164.cost_of("addq") == 1
        assert ALPHA_21164.cost_of("bsr") == 2
        assert ALPHA_21164.cost_of("nonsense") == 1

    def test_estimate_cycles(self):
        program = disassemble_image(
            assemble(
                ".routine main\n li t0, 1\n stq t0, -8(sp)\n "
                "ldq t1, -8(sp)\n halt\n"
            )
        )
        result = run_program(program)
        # lda(1) + stq(2) + ldq(3) + halt(2) = 8
        assert ALPHA_21164.estimate_cycles(result) == 8

    def test_cycle_improvement_weighs_memory_ops(self):
        source = ".routine main\n li t0, 1\n {body} halt\n"
        with_spill = disassemble_image(
            assemble(source.format(body="stq t0, -8(sp)\n ldq t0, -8(sp)\n"))
        )
        without = disassemble_image(assemble(source.format(body="")))
        before = run_program(with_spill)
        after = run_program(without)
        instr_gain = (before.steps - after.steps) / before.steps
        cycles_gain = cycle_improvement(before, after)
        assert cycles_gain > instr_gain  # memory ops weigh more

    def test_custom_model(self):
        model = CostModel(weights={"halt": 10}, default=0)
        program = disassemble_image(assemble(".routine main\n halt\n"))
        assert model.estimate_cycles(run_program(program)) == 10
