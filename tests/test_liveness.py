"""Tests for client-side liveness with call summaries (§2): the one
row-level solve the optimizer's passes share."""

from repro.cfg.build import build_cfg
from repro.dataflow.liveness import exit_seeds, live_after, solve, summary_masks
from repro.dataflow.regset import RegisterSet, TRACKED_MASK, mask_of
from repro.interproc.summaries import CallSiteSummary, RoutineSummary
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image


def names(mask):
    return RegisterSet.from_mask(mask).names()


def cfg_of(source, routine="main"):
    program = disassemble_image(assemble(source))
    return build_cfg(program, program.routine(routine))


def summary_of(cfg, exit_live=None, used=0, defined=0, killed=0):
    """A summary of ``cfg``'s routine whose calls all use ``used``,
    define ``defined`` and kill ``killed``."""
    exit_live = exit_live or {}
    return RoutineSummary(
        name=cfg.name,
        call_used_mask=0,
        call_defined_mask=0,
        call_killed_mask=0,
        live_at_entry_mask=0,
        exit_live_masks={block: exit_live.get(block, 0) for block, _ in cfg.exits},
        exit_kinds=dict(cfg.exits),
        call_sites=[
            CallSiteSummary(site, used, defined, killed, 0, 0)
            for site in cfg.call_sites
        ],
    )


def solve_registers(cfg, summary):
    uses, defs = summary_masks(cfg, summary)
    return solve(cfg, uses, defs, exit_seeds(cfg, summary))


CALLER = """
    .routine main
        lda t5, 1(zero)
        bsr ra, f
        halt
    .routine f
        ret (ra)
"""


class TestEffectiveGenKill:
    """An instruction's masks, a call's replaced by its call-summary
    instruction (:func:`summary_masks`)."""

    def test_plain_instruction(self):
        cfg = cfg_of(".routine main\n addq t0, t1, t2\n halt\n")
        uses, defs = summary_masks(cfg, summary_of(cfg))
        assert names(uses[0]) == {"t0", "t1"}
        assert names(defs[0]) == {"t2"}

    def test_call_with_site_effect(self):
        cfg = cfg_of(CALLER)
        summary = summary_of(
            cfg,
            used=mask_of(["a0"]),
            defined=mask_of(["v0"]),
            killed=mask_of(["v0", "t0"]),
        )
        uses, defs = summary_masks(cfg, summary)
        call = cfg.call_sites[0].instruction_index
        assert names(uses[call]) == {"a0"}  # call-used
        # call-defined + link register; call-killed (MAY-DEF) kills nothing
        assert names(defs[call]) == {"v0", "ra"}

    def test_jsr_reads_target_register(self):
        cfg = cfg_of(
            """
            .routine main
                jsr ra, (pv)
                halt
            """
        )
        uses, _defs = summary_masks(cfg, summary_of(cfg))
        assert "pv" in names(uses[0])


class TestSolveLiveness:
    def test_exit_live_seeds_liveness(self):
        cfg = cfg_of(
            """
            .routine main
                lda t0, 1(zero)
                ret (ra)
            """
        )
        exit_block = cfg.return_exits()[0]
        summary = summary_of(cfg, exit_live={exit_block: mask_of(["t0"])})
        assert exit_seeds(cfg, summary) == {exit_block: mask_of(["t0"])}
        live_in, live_out = solve_registers(cfg, summary)
        # t0 defined inside, so not live at entry; ra is (the ret reads it).
        assert "t0" not in names(live_in[0])
        assert "ra" in names(live_in[0])
        assert "t0" in names(live_out[exit_block])

    def test_halt_exit_has_nothing_live(self):
        cfg = cfg_of(".routine main\n halt\n")
        summary = summary_of(cfg, exit_live={0: mask_of(["t0"])})
        assert exit_seeds(cfg, summary) == {0: 0}
        assert solve_registers(cfg, summary)[1][0] == 0

    def test_unknown_jump_exit_everything_live(self):
        cfg = cfg_of(".routine main\n jmp (t0)\n")
        summary = summary_of(cfg)
        assert exit_seeds(cfg, summary) == {0: TRACKED_MASK}
        assert solve_registers(cfg, summary)[1][0] == TRACKED_MASK

    def test_call_summary_gen_kill(self):
        cfg = cfg_of(CALLER)
        # Callee uses a0 and defines v0; it may also kill t5.
        summary = summary_of(
            cfg,
            used=mask_of(["a0"]),
            defined=mask_of(["v0"]),
            killed=mask_of(["v0", "t5"]),
        )
        live_in, _live_out = solve_registers(cfg, summary)
        assert "a0" in names(live_in[0])
        # t5's def is dead (nothing uses it) but the def itself doesn't
        # make t5 live-in.
        assert "t5" not in names(live_in[0])
        # v0 is call-defined, so the call ends its liveness; t5 is only
        # call-killed, so liveness flows through the call.
        uses, defs = summary_masks(cfg, summary)
        site = cfg.call_sites[0]
        walk = dict(live_after(cfg, site.block, mask_of(["v0", "t5"]), uses, defs))
        assert names(walk[site.instruction_index - 1]) == {"a0", "t5"}

    def test_branch_join_unions_liveness(self):
        cfg = cfg_of(
            """
            .routine main
                beq t0, other
                bis zero, t1, a0
                halt
            other:
                bis zero, t2, a0
                halt
            """
        )
        live_entry = names(solve_registers(cfg, summary_of(cfg))[0][0])
        assert {"t0", "t1", "t2"} <= live_entry

    def test_skipped_instructions_contribute_nothing(self):
        cfg = cfg_of(
            """
            .routine main
                lda t0, 1(zero)
                bis zero, t0, a0
                output
                halt
            """
        )
        summary = summary_of(cfg)
        uses, defs = summary_masks(cfg, summary)
        seeds = exit_seeds(cfg, summary)
        assert "t0" not in names(solve(cfg, uses, defs, seeds)[0][0])
        # Without the definition, the read reaches the entry.
        assert "t0" in names(solve(cfg, uses, defs, seeds, {0})[0][0])


class TestInstructionLiveness:
    def test_per_instruction_walk(self):
        cfg = cfg_of(
            """
            .routine main
                lda t0, 1(zero)
                addq t0, #1, t1
                bis zero, t1, a0
                output
                halt
            """
        )
        summary = summary_of(cfg)
        uses, defs = summary_masks(cfg, summary)
        _live_in, live_out = solve(cfg, uses, defs, exit_seeds(cfg, summary))
        walk = list(live_after(cfg, 0, live_out[0], uses, defs))
        assert [index for index, _mask in walk] == [4, 3, 2, 1, 0]
        live = dict(walk)
        assert "t0" in names(live[0])   # t0 still needed by addq
        assert "t0" not in names(live[1])
        assert "a0" in names(live[2])   # output reads a0
        assert live[4] == 0             # after halt

    def test_skip_added_while_walking(self):
        """An instruction the caller skips when it is yielded (a dead
        one, for DCE) contributes nothing to the masks before it."""
        cfg = cfg_of(
            """
            .routine main
                lda t0, 1(zero)
                addq t0, #1, t1
                halt
            """
        )
        summary = summary_of(cfg)
        uses, defs = summary_masks(cfg, summary)
        skip = set()
        live = {}
        for index, mask in live_after(cfg, 0, 0, uses, defs, skip):
            live[index] = mask
            if index == 1:
                skip.add(index)
        assert "t0" not in names(live[0])
