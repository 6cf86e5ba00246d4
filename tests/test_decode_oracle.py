"""The table-driven decoder and the mask-arithmetic def/use rule, held
to the code they replaced (``tests/decode_oracle.py``).

* every opcode, every register value of every field, both operate
  forms and the extreme displacements: round trip, hash, masks, sets
  and control equal the oracle's — for the decoded instance and for the
  constructor-built one;
* every word class outside the tables: the oracle's exact
  ``EncodingError`` text, and ``decode_stream`` still names the first
  bad word;
* random 32-bit words (Hypothesis): same text or equal instructions;
* the trusted constructor's instances pickle, ``replace`` and validate
  like any other;
* the three analysis-path callers that went from register sets to mask
  bits give the parent's answers on all 16 Table-2 shapes.
"""

import dataclasses
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfg.build import build_all_cfgs, resolve_register_constant
from repro.cfg.callgraph import escape_candidates
from repro.interproc import savedregs
from repro.isa.calling_convention import NT_ALPHA
from repro.isa.encoding import (
    FIELD_FILES,
    EncodingError,
    decode_instruction,
    decode_stream,
    encode_instruction,
)
from repro.isa.instructions import ControlKind, Format, Instruction, Opcode
from repro.program.disasm import disassemble_image
from repro.workloads.generator import GeneratorConfig, generate_image
from repro.workloads.shapes import ALL_SHAPES

from tests import decode_oracle as oracle

_FIELDS_OF = {
    Format.OPERATE: ("ra", "rb", "rc"),
    Format.OPERATE_FP: ("ra", "rb", "rc"),
    Format.MEMORY: ("ra", "rb"),
    Format.MEMORY_FP: ("ra", "rb"),
    Format.BRANCH: ("ra",),
    Format.BRANCH_FP: ("ra",),
    Format.JUMP: ("ra", "rb"),
    Format.PAL: (),
}
_DISPLACEMENTS = {
    Format.MEMORY: (-(1 << 15), -1, 0, (1 << 15) - 1),
    Format.MEMORY_FP: (-(1 << 15), -1, 0, (1 << 15) - 1),
    Format.BRANCH: (-(1 << 20), -1, 0, (1 << 20) - 1),
    Format.BRANCH_FP: (-(1 << 20), -1, 0, (1 << 20) - 1),
}


def _mask(registers) -> int:
    return sum(1 << register for register in registers)


def _sweep(opcode: Opcode):
    """Constructor-built instructions covering every register value of
    every field ``opcode`` encodes, the literal form and the extreme
    displacements."""
    offsets = dict(zip(("ra", "rb", "rc"), FIELD_FILES[opcode]))
    fields = _FIELDS_OF[opcode.format]
    base = {name: offsets[name] + 1 + position for position, name in enumerate(fields)}
    yield Instruction(opcode, **base)
    for name in fields:
        for value in range(32):
            yield Instruction(opcode, **{**base, name: offsets[name] + value})
    for displacement in _DISPLACEMENTS.get(opcode.format, ()):
        yield Instruction(opcode, **base, displacement=displacement)
    if opcode.format == Format.OPERATE:
        del base["rb"]
        for literal in (0, 1, 255):
            for value in range(32):
                yield Instruction(
                    opcode, **{**base, "ra": offsets["ra"] + value}, literal=literal
                )


def _assert_matches_oracle(instruction: Instruction) -> None:
    uses = oracle._compute_uses(instruction)
    defs = oracle._compute_defs(instruction)
    assert instruction.uses() == uses
    assert instruction.defs() == defs
    assert instruction.use_mask == _mask(uses)
    assert instruction.def_mask == _mask(defs)
    assert instruction.control is instruction.opcode.control


@pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.mnemonic)
def test_every_operand_value_round_trips_and_matches_the_oracle(opcode):
    for built in _sweep(opcode):
        word = encode_instruction(built)
        decoded = decode_instruction(word)
        assert decoded == built == oracle.decode_instruction(word)
        assert hash(decoded) == hash(built)
        assert vars(decoded) == vars(built)
        _assert_matches_oracle(built)
        _assert_matches_oracle(decoded)


def test_a_literal_hides_the_rb_operand_from_the_constructor_too():
    built = Instruction(Opcode.ADDQ, ra=1, rb=2, rc=3, literal=5)
    _assert_matches_oracle(built)
    assert built.uses() == {1}


def test_default_operands_are_the_integer_zero_register_in_every_format():
    for opcode in Opcode:
        _assert_matches_oracle(Instruction(opcode))


def _outcome(decode, word):
    try:
        return decode(word)
    except EncodingError as error:
        return str(error)


def _unassigned_words():
    """One word (several operand patterns) for every major, function,
    jump type and PAL function — assigned or not."""
    operands = (0, 0x03FF_F01F, 0x0155_5000)
    for major in range(64):
        if major == Opcode.HALT.info.major:
            functions = list(range(0x102)) + [1 << 25, 0x03FF_FFFF, 0x0080_0080]
            yield from functions
        elif major == Opcode.JMP.info.major:
            for jump_type in range(4):
                for bits in operands:
                    yield major << 26 | bits & ~(3 << 14) | jump_type << 14
        else:
            for function in range(1 << 11):
                yield major << 26 | function << 5
                yield major << 26 | function << 5 | 0x03FF_001F


def test_every_word_class_decodes_or_fails_like_the_oracle():
    failures = 0
    for word in _unassigned_words():
        expected = _outcome(oracle.decode_instruction, word)
        assert _outcome(decode_instruction, word) == expected, hex(word)
        failures += isinstance(expected, str)
    assert failures > 1000


@pytest.mark.parametrize("word", [-1, 1 << 32])
def test_a_value_that_is_no_word_is_rejected_with_the_same_text(word):
    expected = _outcome(oracle.decode_instruction, word)
    assert isinstance(expected, str)
    assert _outcome(decode_instruction, word) == expected


def test_decode_stream_names_the_first_bad_word():
    good = encode_instruction(Instruction(Opcode.ADDQ, ra=1, rb=2, rc=3))
    bad_function = 0x10 << 26 | 0x7F << 5
    bad_major = 0x3 << 26
    code = struct.pack("<6I", good, good, bad_function, good, bad_major, bad_function)
    with pytest.raises(EncodingError) as caught:
        decode_stream(code)
    assert caught.value.offset == 8
    assert str(caught.value) == _outcome(oracle.decode_instruction, bad_function)


@settings(max_examples=2000, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_random_words_decode_or_fail_like_the_oracle(word):
    expected = _outcome(oracle.decode_instruction, word)
    actual = _outcome(decode_instruction, word)
    assert actual == expected
    if isinstance(actual, Instruction):
        assert hash(actual) == hash(expected)
        assert vars(actual) == vars(expected)
        _assert_matches_oracle(actual)


class TestDecodedInstancesAreOrdinaryInstructions:
    WORDS = [
        encode_instruction(instruction)
        for instruction in (
            Instruction(Opcode.CMOVEQ, ra=1, rb=2, rc=3),
            Instruction(Opcode.SUBQ, ra=1, rc=3, literal=255),
            Instruction(Opcode.STT, ra=40, rb=30, displacement=-8),
            Instruction(Opcode.BSR, ra=26, displacement=-(1 << 20)),
            Instruction(Opcode.JSR, ra=26, rb=27),
            Instruction(Opcode.OUTPUT),
        )
    ]

    @pytest.mark.parametrize("word", WORDS)
    def test_pickle_round_trip(self, word):
        decoded = decode_instruction(word)
        copy = pickle.loads(pickle.dumps(decoded))
        assert copy == decoded and hash(copy) == hash(decoded)
        assert vars(copy) == vars(decoded)

    @pytest.mark.parametrize("word", WORDS)
    def test_replace_rebuilds_through_the_checked_constructor(self, word):
        decoded = decode_instruction(word)
        assert dataclasses.replace(decoded) == decoded
        moved = dataclasses.replace(decoded, ra=5)
        assert moved.ra == 5
        _assert_matches_oracle(moved)
        with pytest.raises(ValueError, match=r"register field ra=64 out of range"):
            dataclasses.replace(decoded, ra=64)

    def test_instances_are_still_frozen(self):
        decoded = decode_instruction(self.WORDS[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            decoded.ra = 2


class TestConstructorChecksAreUnchanged:
    @pytest.mark.parametrize("field", ["ra", "rb", "rc"])
    @pytest.mark.parametrize("value", [-1, 64])
    def test_register_range(self, field, value):
        with pytest.raises(ValueError) as caught:
            Instruction(Opcode.ADDQ, **{field: value})
        assert str(caught.value) == (
            f"addq: register field {field}={value} out of range [0, 64)"
        )

    def test_literal_needs_an_operate_format(self):
        with pytest.raises(ValueError) as caught:
            Instruction(Opcode.LDQ, ra=1, rb=2, literal=1)
        assert str(caught.value) == (
            "ldq: literal operand only valid in operate format"
        )

    @pytest.mark.parametrize("literal", [-1, 256])
    def test_literal_range(self, literal):
        with pytest.raises(ValueError) as caught:
            Instruction(Opcode.ADDQ, ra=1, rc=2, literal=literal)
        assert str(caught.value) == (
            f"addq: literal {literal} out of range [0, 256)"
        )


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda shape: shape.name)
def test_mask_based_callers_agree_with_their_set_based_parents(shape, monkeypatch):
    program = disassemble_image(
        generate_image(shape.scaled(0.05), GeneratorConfig(seed=1))
    )
    cfgs = build_all_cfgs(program)
    resolved = 0
    for routine in program:
        assert escape_candidates(routine) == oracle.escape_candidates(routine)
        instructions = routine.instructions
        for index, instruction in enumerate(instructions):
            if instruction.control in (
                ControlKind.CALL_INDIRECT, ControlKind.INDIRECT_JUMP
            ):
                value = resolve_register_constant(instructions, index, instruction.rb)
                assert value == oracle.resolve_register_constant(
                    instructions, index, instruction.rb
                )
                resolved += value is not None
    assert resolved
    saved = {
        name: savedregs.find_save_restore_sites(cfg, NT_ALPHA)
        for name, cfg in cfgs.items()
    }
    assert any(saved.values())
    monkeypatch.setattr(
        savedregs, "_epilogue_restore_index", oracle._epilogue_restore_index
    )
    for name, cfg in cfgs.items():
        assert savedregs.find_save_restore_sites(cfg, NT_ALPHA) == saved[name]
