"""Tests for §3.5 call-target hints (multi-target indirect calls).

The paper's last paragraph of §3.5: "dataflow accuracy can be improved
if additional information is provided to Spike by the compiler or
linker ... about the registers assumed to be call-used, call-killed,
and call-defined by each indirect call."  We implement the natural form
of that information — a linker-provided *target set* per indirect call
— and combine the candidate callees' summaries (MAY by union, MUST by
intersection) instead of assuming the calling-standard worst case.
"""

import pytest

from repro.cfg.build import build_cfg
from repro.dataflow.regset import RegisterSet, mask_of
from tests.facade import analyze_program
from repro.interproc.baseline import analyze_program_baseline
from repro.program.asm import Assembler
from repro.program.disasm import disassemble_image
from repro.program.image import CallTargetHint, ExecutableImage, ImageFormatError
from repro.program.rewrite import apply_edits, program_to_image
from repro.sim.interpreter import run_program


def _dispatch_program(with_dead_prefix: bool = False):
    """main dispatches between two callees through a hinted jsr.

    ``alpha`` uses a0 and defines v0; ``beta`` uses a1 and defines both
    v0 and t2.  The hint lets the analysis prove the dispatch uses
    {a0, a1}, must-defines {v0} (the intersection) and may-kill
    {v0, t2} (the union).  ``with_dead_prefix`` plants a dead
    definition at main's index 0 so rewrite tests have something safe
    to delete.
    """
    asm = Assembler()
    asm.data_code_pointers("vt", ["alpha", "beta"])
    asm.routine("main", exported=True)
    if with_dead_prefix:
        asm.li("t9", 7)
    asm.li("a0", 3)
    asm.li("a1", 4)
    asm.op("and", "a0", 1, "t10")
    asm.op("sll", "t10", 3, "t10")
    asm.li("t11", "@vt")
    asm.op("addq", "t11", "t10", "t11")
    asm.memory("ldq", "pv", 0, "t11")
    asm.jsr("pv", hint_targets=["alpha", "beta"])
    asm.op("bis", "zero", "v0", "a0")
    asm.output()
    asm.halt()
    asm.routine("alpha")
    asm.op("addq", "a0", 1, "v0")
    asm.ret()
    asm.routine("beta")
    asm.op("addq", "a1", 2, "v0")
    asm.op("addq", "v0", 1, "t2")
    asm.ret()
    return disassemble_image(asm.build())


class TestImageFormat:
    def test_hint_roundtrip(self):
        program = _dispatch_program()
        image = program_to_image(program)
        restored = ExecutableImage.from_bytes(image.to_bytes())
        assert restored.call_target_hints == image.call_target_hints
        assert len(restored.call_target_hints) == 1
        assert len(restored.call_target_hints[0].targets) == 2

    def test_empty_hint_rejected(self):
        image = program_to_image(_dispatch_program())
        call_address = image.call_target_hints[0].call_address
        image.call_target_hints.append(CallTargetHint(call_address, ()))
        message = f"call-target hint at {call_address:#x} has no targets"
        with pytest.raises(ImageFormatError, match=message):
            image.validate()

    def test_hint_to_non_routine_rejected(self):
        program = _dispatch_program()
        image = program_to_image(program)
        bad = CallTargetHint(
            image.symbols[0].address, (image.symbols[0].address + 4,)
        )
        image.call_target_hints.append(bad)
        with pytest.raises(ImageFormatError, match="not a routine entry"):
            image.validate()


class TestCfg:
    def test_hinted_site_has_target_set(self):
        program = _dispatch_program()
        cfg = build_cfg(program, program.routine("main"))
        site = cfg.call_sites[0]
        assert site.indirect
        assert set(site.targets) == {"alpha", "beta"}
        assert site.callee is None          # no *unique* target
        assert not site.is_unknown          # but not unknown either


class TestDataflow:
    def test_summaries_combine_candidates(self):
        program = _dispatch_program()
        analysis = analyze_program(program)
        site = analysis.summary("main").call_sites[0]
        # MAY-USE: union of {a0, ra} and {a1, ra}.
        assert {"a0", "a1", "ra"} <= site.used.names()
        # MUST-DEF: intersection -> just v0.
        assert site.defined.names() == {"v0"}
        # MAY-DEF: union -> v0 and beta's t2.
        assert {"v0", "t2"} <= site.killed.names()
        # Crucially more precise than the unknown-call assumption: the
        # dispatch does NOT kill, say, t5.
        t5 = mask_of(["t5"])
        assert site.killed_mask & t5 == 0

    def test_hint_more_precise_than_unknown(self):
        """Dropping the hint degrades the very facts §3.5 promises."""
        program = _dispatch_program()
        stripped = disassemble_image(program_to_image(program))
        stripped.call_target_hints.clear()
        with_hint = analyze_program(program)
        without = analyze_program(stripped)
        hinted_site = with_hint.summary("main").call_sites[0]
        unknown_site = without.summary("main").call_sites[0]
        assert hinted_site.killed_mask & ~unknown_site.killed_mask == 0
        assert bin(unknown_site.killed_mask).count("1") > bin(
            hinted_site.killed_mask
        ).count("1")

    def test_liveness_flows_to_both_callees(self):
        """main's post-call use of v0 makes v0 live at BOTH candidates'
        exits (phase 2's return copies follow the hint)."""
        program = _dispatch_program()
        analysis = analyze_program(program)
        for callee in ("alpha", "beta"):
            summary = analysis.summary(callee)
            assert "v0" in RegisterSet.from_mask(
                summary.live_at_any_exit_mask
            ).names()

    def test_engines_agree_on_hinted_programs(self):
        program = _dispatch_program()
        psg = analyze_program(program)
        baseline = analyze_program_baseline(program)
        assert psg.result.equal_summaries(baseline.result), (
            baseline.result.diff(psg.result)[:5]
        )


class TestExecutionAndRewrite:
    def test_dispatch_runs(self):
        program = _dispatch_program()
        result = run_program(program)
        # a0=3 -> index 1 -> beta: v0 = a1 + 2 = 6.
        assert result.outputs == [6]

    def test_hints_survive_rewriting(self):
        program = _dispatch_program(with_dead_prefix=True)
        cfg_site = build_cfg(program, program.routine("main")).call_sites[0]
        # Shift everything by deleting the dead prefix instruction.
        edited = apply_edits(program, {"main": {0: None}})
        new_site = build_cfg(edited, edited.routine("main")).call_sites[0]
        assert set(new_site.targets) == set(cfg_site.targets)
        assert run_program(edited).observable == run_program(program).observable
        assert edited.call_target_hints != program.call_target_hints  # moved

    def test_hints_survive_image_roundtrip(self):
        program = _dispatch_program()
        reloaded = disassemble_image(program_to_image(program))
        assert reloaded.call_target_hints == program.call_target_hints


class TestGeneratorHints:
    def test_generated_hinted_calls_analyzed_and_run(self):
        from repro.workloads.generator import GeneratorConfig, generate_benchmark

        program, _shape = generate_benchmark(
            "go", scale=0.1,
            config=GeneratorConfig(seed=9, hinted_call_fraction=0.25),
        )
        assert program.call_target_hints
        psg = analyze_program(program)
        baseline = analyze_program_baseline(program)
        assert psg.result.equal_summaries(baseline.result)
        run_program(program)  # raises ExecutionError unless it halts
