"""Tests for what the front end shares instead of re-deriving.

* ``decode_rows`` decodes each distinct word once and shares the
  (immutable) row — and must be indistinguishable from decoding every
  word;
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
from repro.interproc.store import SummaryStore, component_inputs
from repro.interproc.summaries import _triple_of
from repro.isa.encoding import (
    EncodingError,
    code_words,
    decode_row,
    decode_rows,
    encode,
    words_code,
)
from repro.isa.instructions import ControlKind, Opcode
from repro.program.asm import Assembler
from repro.program.disasm import disassemble_image
from repro.program.model import Program, Routine
from repro.program.rewrite import program_to_image
from repro.workloads.mutate import first_editable_routine, perturb_routine
from tests import decode_oracle as oracle
from tests.decoded import operands, row_of, rows_of
from tests.facade import analyze_incremental, analyze_program

#: A word no format claims (major opcode 0x01).
BAD_WORD = 0x0400_0000


# ----------------------------------------------------------------------
# The decoded-word table
# ----------------------------------------------------------------------

_VALID_WORDS = [
    encode(Opcode.ADDQ, ra=1, rb=2, rc=3),
    encode(Opcode.ADDQ, ra=1, literal=9, rc=3),
    encode(Opcode.LDQ, ra=4, rb=30, displacement=-8),
    encode(Opcode.BNE, ra=5, displacement=-3),
    encode(Opcode.BSR, ra=26, displacement=12),
    encode(Opcode.JMP, ra=31, rb=7),
    encode(Opcode.RET, ra=31, rb=26),
    encode(Opcode.ADDT, ra=33, rb=34, rc=35),
    encode(Opcode.HALT),
]

#: Few distinct values, so streams repeat words (the memo's hit path),
#: with undecodable ones mixed in.
_words = st.lists(
    st.sampled_from(_VALID_WORDS + [BAD_WORD, 0x0800_0000, 0x0000_0001]),
    max_size=40,
)


def _decode_each(words):
    return [decode_row(word) for word in words]


class TestDecodedWordTable:
    @given(_words)
    def test_equals_decoding_every_word(self, words):
        code = struct.pack(f"<{len(words)}I", *words)
        try:
            expected = _decode_each(words)
        except EncodingError as error:
            with pytest.raises(EncodingError) as excinfo:
                decode_rows(code)
            # Same first bad word, same message.
            assert str(excinfo.value) == str(error)
            first_bad = next(
                index for index, word in enumerate(words)
                if _fails(word)
            )
            assert excinfo.value.offset == 4 * first_bad
        else:
            assert decode_rows(code) == tuple(expected)

    def test_repeated_words_share_one_object(self):
        word = _VALID_WORDS[0]
        first, other, again = decode_rows(
            struct.pack("<3I", word, _VALID_WORDS[1], word)
        )
        assert first is again
        assert first is not other

    def test_instruction_carries_control_and_masks(self):
        for row in map(row_of, _VALID_WORDS):
            assert row.control is row.opcode.control
            assert row.use_mask == sum(
                1 << register for register in oracle._compute_uses(row)
            )
            assert row.def_mask == sum(
                1 << register for register in oracle._compute_defs(row)
            )
        assert row_of(_VALID_WORDS[4]).control is ControlKind.CALL_DIRECT


def _fails(word):
    try:
        decode_row(word)
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
    words = code_words(main.code)
    first = row_of(words[0])
    words[0] = encode(first.opcode, **{**operands(first), "literal": 3})
    return _with_routine(
        program, Routine("main", main.address, words_code(words), main.exported)
    )


def _export_flag_flipped(program):
    main = program.routine("main")
    return _with_routine(
        program, Routine("main", main.address, main.code, False)
    )


def _direct_callee_renamed(program):
    alpha = program.routine("alpha")
    return _with_routine(
        program,
        Routine("alpha2", alpha.address, alpha.code),
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
            Routine(r.name, r.address + delta, r.code, r.exported)
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


def _reencoded(code: bytes) -> bytes:
    """``code`` decoded to rows and each row's operands encoded again."""
    return words_code(
        encode(row.opcode, **operands(row)) for row in rows_of(code)
    )


class TestCarriedBytes:
    def test_lifted_routines_carry_their_text_slice(self):
        program = _dispatch_program()
        for routine in program:
            assert routine.code == _reencoded(routine.code)

    def test_bytes_and_encoding_hash_alike(self):
        program = _dispatch_program()
        cfgs = build_all_cfgs(program)
        for routine in program:
            rebuilt = Routine(
                routine.name, routine.address,
                _reencoded(routine.code), routine.exported,
            )
            assert rebuilt.code == routine.code
            assert rebuilt == routine  # equality compares the code
            assert routine_fingerprint(
                rebuilt, cfgs[routine.name]
            ) == routine_fingerprint(routine, cfgs[routine.name])

    def test_an_edited_routine_never_inherits_them(self, small_benchmark):
        lifted = disassemble_image(program_to_image(small_benchmark))
        victim = first_editable_routine(lifted)
        edited = perturb_routine(lifted, victim)
        code = edited.routine(victim).code
        assert code != lifted.routine(victim).code
        assert code == _reencoded(edited.routine(victim).code)
        assert dataclasses.replace(lifted.routine(victim)) == lifted.routine(victim)
        for name in lifted.routine_names():
            if name != victim:
                assert edited.routine(name) is lifted.routine(name)
        # The edit shows, and the value is the encode-based one.
        before = _fingerprints(lifted)
        after = _fingerprints(edited)
        assert after[victim] != before[victim]
        relifted = disassemble_image(program_to_image(edited))
        assert _fingerprints(relifted) == after

    def test_routine_instructions_are_immutable(self):
        routine = _dispatch_program().routine("alpha")
        with pytest.raises(TypeError):
            routine.rows[0] = routine.rows[1]


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
            assert _store_inputs(edited)[owner] != _store_inputs(program)[owner]
            checked += 1
            if checked == 3:
                break
        assert checked == 3


def _store_inputs(program):
    """Every routine's component's phase-1 inputs, member by member, as
    a store compares them before adopting the component's rows; the
    triples read off a cold solve."""
    frontend = build_frontend(program)
    triples = {
        name: _triple_of(summary)
        for name, summary in analyze_program(program).result.summaries.items()
    }
    inputs = {}
    for members in frontend.condensation.components:
        component = sorted(component_inputs(frontend, members, triples).items())
        inputs.update((name, component) for name in members)
    return inputs


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
        assert {
            name: row.fingerprint for name, row in run.cache.rows.items()
        } == run.frontend.fingerprints
