"""Tests for CFG construction: leaders, call blocks, exits, jump tables."""

from bisect import bisect_right

import pytest

from repro.cfg.build import build_all_cfgs, build_cfg, resolve_register_constant
from repro.cfg.cfg import CfgError, ExitKind, TerminatorKind
from repro.isa.encoding import code_words, encode, words_code
from repro.isa.instructions import Opcode
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image
from repro.program.model import Routine


def _rows(words):
    """The instruction rows the resolver reads."""
    return Routine("r", 0, words_code(words)).rows


def cfg_of(source: str, routine: str = "main", entry=None):
    program = disassemble_image(assemble(source, entry=entry))
    return build_cfg(program, program.routine(routine)), program


class TestBlockSplitting:
    def test_straight_line_is_one_block(self):
        cfg, _ = cfg_of(".routine main\n addq t0, #1, t1\n subq t1, #1, t2\n halt\n")
        assert cfg.block_count == 1
        assert cfg.terminators[0] == TerminatorKind.HALT

    def test_blocks_end_at_calls(self):
        # The paper's convention: a call ends its basic block.
        cfg, _ = cfg_of(
            """
            .routine main
                addq t0, #1, t1
                bsr  ra, f
                addq t0, #2, t1
                halt
            .routine f
                ret (ra)
            """
        )
        assert cfg.block_count == 2
        assert cfg.terminators[0] == TerminatorKind.CALL
        assert cfg.successors[0] == (1,)
        assert [b for b, succ in enumerate(cfg.successors) if 1 in succ] == [0]

    def test_conditional_branch_successors(self):
        cfg, _ = cfg_of(
            """
            .routine main
                beq t0, skip
                addq t0, #1, t1
            skip:
                halt
            """
        )
        assert cfg.block_count == 3
        assert sorted(cfg.successors[0]) == [1, 2]

    def test_branch_to_fallthrough_deduplicated(self):
        cfg, _ = cfg_of(
            """
            .routine main
                beq t0, next
            next:
                halt
            """
        )
        assert cfg.successors[0] == (1,)

    def test_unconditional_branch(self):
        cfg, _ = cfg_of(
            """
            .routine main
                br over
                addq t0, #1, t1   ; unreachable
            over:
                halt
            """
        )
        assert cfg.terminators[0] == TerminatorKind.UNCOND_BRANCH
        assert cfg.successors[0] == (2,)
        assert not any(1 in succ for succ in cfg.successors)

    def test_loop_back_edge(self):
        cfg, _ = cfg_of(
            """
            .routine main
            top:
                subq t0, #1, t0
                bgt t0, top
                halt
            """
        )
        assert 0 in cfg.successors[0]  # self loop

    def test_entry_block_is_index_zero(self, quick_program):
        cfg = build_cfg(quick_program, quick_program.routine("main"))
        assert cfg.entry_index == 0 and cfg.starts[0] == 0
        cfg.check()


class TestExits:
    def test_return_exit(self):
        cfg, _ = cfg_of(".routine main\n ret (ra)\n")
        assert cfg.exits == [(0, ExitKind.RETURN)]
        assert cfg.return_exits() == [0]

    def test_halt_exit(self):
        cfg, _ = cfg_of(".routine main\n halt\n")
        assert cfg.exits == [(0, ExitKind.HALT)]

    def test_unknown_jump_exit(self):
        cfg, _ = cfg_of(".routine main\n jmp (t0)\n")
        assert cfg.exits == [(0, ExitKind.UNKNOWN_JUMP)]

    def test_multiple_exits(self):
        cfg, _ = cfg_of(
            """
            .routine main
                beq t0, other
                ret (ra)
            other:
                ret (ra)
            """
        )
        assert len(cfg.return_exits()) == 2

    def test_fall_off_end_rejected(self):
        program = disassemble_image(
            assemble(".routine main\n addq t0, #1, t1\n halt\n")
        )
        # Manufacture a routine whose last instruction falls through.
        main = program.routine("main")
        bad = Routine(
            main.name,
            main.address,
            words_code(
                [*code_words(main.code)[:-1], encode(Opcode.ADDQ, ra=1, rb=2, rc=3)]
            ),
        )
        with pytest.raises(CfgError, match="falls off"):
            build_cfg(program, bad)

    def test_call_as_last_instruction_rejected(self):
        program = disassemble_image(
            assemble(
                ".routine main\n bsr ra, f\n halt\n.routine f\n ret (ra)\n"
            )
        )
        main = program.routine("main")
        # Drop the halt; the call is now last.
        routine = Routine(main.name, main.address, main.code[:-4])
        with pytest.raises(CfgError, match="return point"):
            build_cfg(program, routine)


class TestMultiway:
    SOURCE = """
        .routine main
            and  t0, #3, t1
            li   t2, &T
            sll  t1, #3, t1
            addq t2, t1, t2
            ldq  t2, 0(t2)
            jmp  t2, [T]
        c0: halt
        c1: halt
        c2: halt
        c3: halt
        .jumptable T: c0, c1, c2, c3
    """

    def test_table_targets_become_successors(self):
        cfg, _ = cfg_of(self.SOURCE)
        assert cfg.terminators[0] == TerminatorKind.MULTIWAY
        assert len(cfg.successors[0]) == 4

    def test_multiway_is_not_an_exit(self):
        cfg, _ = cfg_of(self.SOURCE)
        assert all(kind == ExitKind.HALT for _b, kind in cfg.exits)


class TestCallSites:
    def test_direct_call_resolved(self, quick_program):
        cfg = build_cfg(quick_program, quick_program.routine("main"))
        assert len(cfg.call_sites) == 1
        site = cfg.call_sites[0]
        assert site.callee == "helper"
        assert not site.indirect

    def test_indirect_call_resolved_through_li(self):
        cfg, _ = cfg_of(
            """
            .routine main
                li  pv, &f
                jsr ra, (pv)
                halt
            .routine f
                ret (ra)
            """
        )
        site = cfg.call_sites[0]
        assert site.callee == "f"
        assert site.indirect

    def test_indirect_call_through_move(self):
        cfg, _ = cfg_of(
            """
            .routine main
                li  t0, &f
                bis zero, t0, pv
                jsr ra, (pv)
                halt
            .routine f
                ret (ra)
            """
        )
        assert cfg.call_sites[0].callee == "f"

    def test_opaque_call_unresolved(self):
        cfg, _ = cfg_of(
            """
            .data p: 0
            .routine main
                li  t0, @p
                ldq pv, 0(t0)
                jsr ra, (pv)
                halt
            """
        )
        site = cfg.call_sites[0]
        assert site.callee is None
        assert site.is_unknown

    def test_resolver_gives_up_on_arithmetic(self):
        words = [
            encode(Opcode.ADDQ, ra=1, rb=2, rc=27),
            encode(Opcode.JSR, ra=26, rb=27),
        ]
        assert resolve_register_constant(_rows(words), 1, 27) is None

    def test_resolver_follows_lda_chain(self):
        words = [
            encode(Opcode.LDAH, ra=27, rb=31, displacement=1),
            encode(Opcode.LDA, ra=27, rb=27, displacement=0x24),
            encode(Opcode.JSR, ra=26, rb=27),
        ]
        assert resolve_register_constant(_rows(words), 2, 27) == 0x10024

    def test_resolver_sees_through_clobber(self):
        words = [
            encode(Opcode.LDA, ra=27, rb=31, displacement=100),
            encode(Opcode.LDA, ra=27, rb=31, displacement=200),
        ]
        assert resolve_register_constant(_rows(words), 2, 27) == 200


class TestWholeProgram:
    def test_build_all(self, small_benchmark):
        cfgs = build_all_cfgs(small_benchmark)
        assert set(cfgs) == set(small_benchmark.routine_names())
        for cfg in cfgs.values():
            cfg.check()

    def test_block_of_instruction(self, quick_program):
        """Bisecting ``starts`` finds the block whose bounds hold an
        instruction (how the annotated listing finds a block)."""
        cfg = build_cfg(quick_program, quick_program.routine("main"))
        for block in range(cfg.block_count):
            start, stop = cfg.bounds(block)
            for index in range(start, stop):
                assert bisect_right(cfg.starts, index) - 1 == block

    def test_arc_count(self):
        cfg, _ = cfg_of(
            """
            .routine main
                beq t0, a
                halt
            a:  halt
            """
        )
        assert cfg.arc_count == 2
