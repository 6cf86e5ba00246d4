"""Tests for what the front end shares instead of re-deriving.

* ``decode_stream`` decodes each distinct word once and shares the
  (immutable) instruction — and must be indistinguishable from decoding
  every word;
* ``routine_fingerprint`` hashes a lifted routine's image bytes and
  covers every per-routine analysis input: code, exported flag,
  jump-table targets, call-site targets;
* a :class:`Frontend` fingerprints its routines once however many
  solves consume it.
"""

import dataclasses
import struct

import pytest
from hypothesis import given, strategies as st

from repro.api import AnalysisConfig, AnalysisSession
from repro.cfg.build import build_all_cfgs
from repro.interproc import dump_summaries, routine_fingerprint
from repro.interproc import frontend as frontend_module
from repro.interproc.baseline import analyze_program_baseline
from repro.interproc.frontend import build_frontend
from repro.interproc.store import (
    SummaryStore,
    config_digest,
    deep_fingerprints,
)
from repro.isa.encoding import (
    EncodingError,
    decode_instruction,
    decode_stream,
    encode_stream,
)
from repro.isa.instructions import ControlKind, Instruction, Opcode
from repro.program.asm import Assembler
from repro.program.disasm import disassemble_image
from repro.program.model import Program, Routine
from repro.program.rewrite import program_to_image
from repro.workloads.mutate import first_editable_routine, perturb_routine
from tests.facade import analyze_incremental, analyze_program

#: A word no format claims (major opcode 0x01).
BAD_WORD = 0x0400_0000


# ----------------------------------------------------------------------
# The decoded-word table
# ----------------------------------------------------------------------

_VALID_WORDS = [
    struct.unpack("<I", encode_stream([instruction]))[0]
    for instruction in (
        Instruction(Opcode.ADDQ, ra=1, rb=2, rc=3),
        Instruction(Opcode.ADDQ, ra=1, literal=9, rc=3),
        Instruction(Opcode.LDQ, ra=4, rb=30, displacement=-8),
        Instruction(Opcode.BNE, ra=5, displacement=-3),
        Instruction(Opcode.BSR, ra=26, displacement=12),
        Instruction(Opcode.JMP, ra=31, rb=7),
        Instruction(Opcode.RET, ra=31, rb=26),
        Instruction(Opcode.ADDT, ra=33, rb=34, rc=35),
        Instruction(Opcode.HALT),
    )
]

#: Few distinct values, so streams repeat words (the memo's hit path),
#: with undecodable ones mixed in.
_words = st.lists(
    st.sampled_from(_VALID_WORDS + [BAD_WORD, 0x0800_0000, 0x0000_0001]),
    max_size=40,
)


def _decode_each(words):
    return [decode_instruction(word) for word in words]


class TestDecodedWordTable:
    @given(_words)
    def test_equals_decoding_every_word(self, words):
        code = struct.pack(f"<{len(words)}I", *words)
        try:
            expected = _decode_each(words)
        except EncodingError as error:
            with pytest.raises(EncodingError) as excinfo:
                decode_stream(code)
            # Same first bad word, same message.
            assert str(excinfo.value) == str(error)
            first_bad = next(
                index for index, word in enumerate(words)
                if _fails(word)
            )
            assert excinfo.value.offset == 4 * first_bad
        else:
            assert decode_stream(code) == expected

    def test_repeated_words_share_one_object(self):
        word = _VALID_WORDS[0]
        first, other, again = decode_stream(
            struct.pack("<3I", word, _VALID_WORDS[1], word)
        )
        assert first is again
        assert first is not other

    def test_instruction_carries_control_and_masks(self):
        for instruction in _decode_each(_VALID_WORDS):
            assert instruction.control is instruction.opcode.control
            assert instruction.use_mask == sum(
                1 << register for register in instruction.uses()
            )
            assert instruction.def_mask == sum(
                1 << register for register in instruction.defs()
            )
        assert decode_instruction(_VALID_WORDS[4]).control is (
            ControlKind.CALL_DIRECT
        )


def _fails(word):
    try:
        decode_instruction(word)
    except EncodingError:
        return True
    return False


# ----------------------------------------------------------------------
# What the fingerprint covers
# ----------------------------------------------------------------------


def _dispatch_program() -> Program:
    """``main`` holds one of everything the fingerprint must cover: a
    jump table, a direct call and a hinted indirect call.  No
    instruction materializes a code address, so the text can move
    without its bytes changing."""
    asm = Assembler()
    asm.data_code_pointers("vt", ["alpha", "beta"])
    asm.routine("main", exported=True)
    asm.op("and", "a0", 1, "t1")
    asm.op("sll", "t1", 3, "t1")
    asm.li("t2", "&T")
    asm.op("addq", "t2", "t1", "t2")
    asm.memory("ldq", "t2", 0, "t2")
    asm.jmp("t2", table="T")
    asm.label("c0")
    asm.bsr("alpha")
    asm.label("c1")
    asm.li("t11", "@vt")
    asm.memory("ldq", "pv", 0, "t11")
    asm.jsr("pv", hint_targets=["alpha", "beta"])
    asm.halt()
    asm.jump_table("T", ["c0", "c1"])
    asm.routine("alpha")
    asm.op("addq", "a0", 1, "v0")
    asm.ret()
    asm.routine("beta")
    asm.op("addq", "a1", 2, "v0")
    asm.ret()
    return disassemble_image(asm.build())


def _fingerprints(program: Program):
    return build_frontend(program).fingerprints


def _with_routine(program: Program, replacement: Routine, old_name=None):
    old_name = old_name or replacement.name
    return dataclasses.replace(
        program,
        routines=[
            replacement if routine.name == old_name else routine
            for routine in program.routines
        ],
    )


def _code_word_edited(program):
    main = program.routine("main")
    body = list(main.instructions)
    body[0] = dataclasses.replace(body[0], literal=3)
    return _with_routine(
        program, Routine("main", main.address, body, main.exported)
    )


def _export_flag_flipped(program):
    main = program.routine("main")
    return _with_routine(
        program, Routine("main", main.address, main.instructions, False)
    )


def _direct_callee_renamed(program):
    alpha = program.routine("alpha")
    return _with_routine(
        program,
        Routine("alpha2", alpha.address, alpha.instructions),
        old_name="alpha",
    )


def _hint_retargeted(program):
    ((address, targets),) = program.call_target_hints.items()
    return dataclasses.replace(
        program, call_target_hints={address: targets[:1]}
    )


def _jump_table_retargeted(program):
    ((address, targets),) = program.jump_targets.items()
    return dataclasses.replace(
        program, jump_targets={address: (targets[0],) * len(targets)}
    )


def _relocated(program, delta=0x4000):
    def moved(mapping):
        return {
            address + delta: tuple(target + delta for target in targets)
            for address, targets in mapping.items()
        }

    return dataclasses.replace(
        program,
        routines=[
            Routine(r.name, r.address + delta, r.instructions, r.exported)
            for r in program.routines
        ],
        jump_targets=moved(program.jump_targets),
        call_target_hints=moved(program.call_target_hints),
        jump_table_locations={
            address + delta: location
            for address, location in program.jump_table_locations.items()
        },
    )


class TestFingerprintSensitivity:
    @pytest.mark.parametrize(
        "edit",
        [
            _code_word_edited,
            _export_flag_flipped,
            _direct_callee_renamed,
            _hint_retargeted,
            _jump_table_retargeted,
        ],
    )
    def test_every_analysis_input_flips_it(self, edit):
        program = _dispatch_program()
        before = _fingerprints(program)
        after = _fingerprints(edit(program))
        assert after["main"] != before["main"]
        # ... and only main's: beta is not touched by any of the edits.
        assert after["beta"] == before["beta"]

    def test_relocation_alone_does_not(self):
        program = _dispatch_program()
        assert _fingerprints(_relocated(program)) == _fingerprints(program)

    def test_data_only_table_edit_keeps_the_code_bytes(self):
        program = _dispatch_program()
        edited = _jump_table_retargeted(program)
        assert edited.routine("main").code == program.routine("main").code


class TestCarriedBytes:
    def test_lifted_routines_carry_their_text_slice(self):
        program = _dispatch_program()
        for routine in program:
            assert routine.code == encode_stream(routine.instructions)

    def test_bytes_and_encoding_hash_alike(self):
        program = _dispatch_program()
        cfgs = build_all_cfgs(program)
        for routine in program:
            rebuilt = Routine(
                routine.name, routine.address, routine.instructions,
                routine.exported,
            )
            assert rebuilt.code is None
            assert rebuilt == routine  # equality ignores the bytes
            assert routine_fingerprint(
                rebuilt, cfgs[routine.name]
            ) == routine_fingerprint(routine, cfgs[routine.name])

    def test_an_edited_routine_never_inherits_them(self, small_benchmark):
        lifted = disassemble_image(program_to_image(small_benchmark))
        victim = first_editable_routine(lifted)
        assert lifted.routine(victim).code is not None
        edited = perturb_routine(lifted, victim)
        assert edited.routine(victim).code is None
        assert dataclasses.replace(lifted.routine(victim)).code is None
        # The edit shows, and the value is the encode-based one.
        before = _fingerprints(lifted)
        after = _fingerprints(edited)
        assert after[victim] != before[victim]
        relifted = disassemble_image(program_to_image(edited))
        assert _fingerprints(relifted) == after

    def test_routine_instructions_are_immutable(self):
        routine = _dispatch_program().routine("alpha")
        with pytest.raises(TypeError):
            routine.instructions[0] = Instruction(Opcode.HALT)


# ----------------------------------------------------------------------
# Regression: a data-only jump-table retarget must dirty its routine
# ----------------------------------------------------------------------


class TestJumpTableRetarget:
    def test_warm_equals_cold_after_a_table_only_edit(self, switchy_benchmark):
        program = disassemble_image(program_to_image(switchy_benchmark))
        base = analyze_incremental(program)
        base_bytes = dump_summaries(base.result)
        checked = 0
        for address, targets in sorted(program.jump_targets.items()):
            if len(set(targets)) < 2:
                continue
            edited = dataclasses.replace(
                program,
                jump_targets={
                    **program.jump_targets,
                    address: (targets[0],) * len(targets),
                },
            )
            cold = analyze_program(edited)
            if dump_summaries(cold.result) == base_bytes:
                continue  # this retarget happens not to move any answer
            owner = program.routine_containing(address).name
            warm = analyze_incremental(edited, cache=base.cache)
            assert warm.metrics.dirty_routines == [owner]
            assert dump_summaries(warm.result) == dump_summaries(cold.result)
            baseline = analyze_program_baseline(edited)
            assert warm.result.equal_summaries(baseline.result)
            assert _deep(edited)[owner] != _deep(program)[owner]
            checked += 1
            if checked == 3:
                break
        assert checked == 3


def _deep(program):
    frontend = build_frontend(program)
    return deep_fingerprints(
        frontend.fingerprints,
        frontend.condensation,
        frontend.call_graph,
        config_digest(AnalysisConfig()),
    )


# ----------------------------------------------------------------------
# Fingerprint once per front end
# ----------------------------------------------------------------------


@pytest.fixture()
def fingerprint_calls(monkeypatch):
    """Names of the routines fingerprinted, in call order (``_fingerprint``
    is the one hash both ``routine_fingerprint`` and
    ``Frontend.fingerprints`` go through)."""
    calls = []
    real = frontend_module._fingerprint

    def counting(routine, multiway, sites):
        calls.append(routine.name)
        return real(routine, multiway, sites)

    monkeypatch.setattr(frontend_module, "_fingerprint", counting)
    return calls


class TestFingerprintOnce:
    def test_two_queries_one_fingerprint_pass(
        self, small_benchmark, fingerprint_calls
    ):
        session = AnalysisSession.from_program(
            small_benchmark, AnalysisConfig(store="off")
        )
        name = small_benchmark.routine_names()[-1]
        first = session.query(name)
        second = session.query(name)
        assert sorted(fingerprint_calls) == sorted(
            small_benchmark.routine_names()
        )
        assert second.frontend is first.frontend
        assert second.metrics.phase2_solved == 0
        assert dump_summaries(first.result) == dump_summaries(second.result)
        whole = analyze_program(small_benchmark)
        assert first.summary == whole.result.summaries[name]

    def test_cold_incremental_run_with_a_store_fingerprints_once(
        self, small_benchmark, fingerprint_calls, tmp_path
    ):
        config = AnalysisConfig(store=SummaryStore(str(tmp_path / "store")))
        run = analyze_incremental(small_benchmark, config=config)
        assert len(fingerprint_calls) == small_benchmark.routine_count
        assert run.cache.routine_fingerprints == run.frontend.fingerprints
