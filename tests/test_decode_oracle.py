"""The table-driven encoder, decoder and field editor and the
mask-arithmetic def/use rule, held to the code they replaced
(``tests/decode_oracle.py``).

* every opcode, every register value of every field, both operate
  forms and the extreme displacements: ``encode`` gives the oracle
  encoder's word, and its row — fields, masks and control — equals the
  oracle decoder's and the oracle's row of the operands encoded;
  ``replace_fields`` and ``encode`` of every field to every value give
  the word the oracle encoder gives, or the same error;
* every word class outside the tables: the oracle's exact
  ``EncodingError`` text, and ``decode_rows`` still names the first
  bad word, also one that looks like a literal variant of a good one;
* random 32-bit words (Hypothesis): same text or equal rows;
* rows pickle and are immutable, and re-encoding a row's operands
  gives its word back, under the checks the instruction constructor
  made (now ``encode``'s, with the constructor's exact texts);
* the three analysis-path callers that went from register sets to mask
  bits give the parent's answers on all 16 Table-2 shapes;
* a word's row (``decode_row``) equals the oracle's — over the sweep,
  random decodable words and every distinct word of the 16 shapes — and
  a lifted routine's rows are the oracle's rows of its words, one row
  object per distinct word of the image;
* an image with two bad words names the first of the stream, whatever
  order its distinct words are decoded in.
"""

import dataclasses
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfg import build as cfg_build
from repro.cfg.build import build_all_cfgs, resolve_register_constant
from repro.cfg.callgraph import escape_candidates
from repro.interproc import savedregs
from repro.isa.calling_convention import NT_ALPHA
from repro.isa.encoding import (
    FIELD_FILES,
    EncodingError,
    decode_row,
    decode_rows,
    encode,
    replace_fields,
    words_code,
)
from repro.isa.instructions import ControlKind, Format, Opcode
from repro.isa.registers import ZERO_REGISTER
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image, load_program
from repro.program.image import ImageFormatError
from repro.program.model import Routine
from repro.workloads.generator import GeneratorConfig, generate_image
from repro.workloads.shapes import ALL_SHAPES

from tests import decode_oracle as oracle
from tests.decoded import Row, operands, row_of, rows_of
from tests.hostile_code import BASE_SOURCE, two_bad_words

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
    """Operands covering every register value of every field
    ``opcode`` encodes, the literal form and the extreme
    displacements."""
    offsets = dict(zip(("ra", "rb", "rc"), FIELD_FILES[opcode]))
    fields = _FIELDS_OF[opcode.format]
    base = {name: offsets[name] + 1 + position for position, name in enumerate(fields)}
    yield base
    for name in fields:
        for value in range(32):
            yield {**base, name: offsets[name] + value}
    for displacement in _DISPLACEMENTS.get(opcode.format, ()):
        yield {**base, "displacement": displacement}
    if opcode.format == Format.OPERATE:
        without_rb = {name: base[name] for name in ("ra", "rc")}
        for literal in (0, 1, 255):
            for value in range(32):
                yield {**without_rb, "ra": offsets["ra"] + value, "literal": literal}


def _assert_matches_oracle(row: tuple) -> None:
    named = Row._make(row)
    assert named.use_mask == _mask(oracle._compute_uses(named))
    assert named.def_mask == _mask(oracle._compute_defs(named))
    assert named.control is named.opcode.control


def _encoded(make):
    """The word ``make()`` encodes to, or the text of the
    ``ValueError`` it refused with."""
    try:
        return make()
    except ValueError as error:
        return str(error)


def _assert_replace_fields_is_the_encoder(
    opcode: Opcode, fields: dict, word: int
) -> None:
    """Every field of every value through :func:`replace_fields` and
    :func:`encode` gives the word the oracle encoder gives for the
    operands with that field replaced — or all three refuse it."""
    encoded = _FIELDS_OF[opcode.format]
    for name in ("ra", "rb", "rc"):
        # Every register of both files; a field the format does not
        # encode is ignored by all three.
        values = range(64) if name in encoded else (0, 63)
        for value in values:
            moved = {**fields, name: value}
            expected = _encoded(lambda: oracle.encode(opcode, **moved))
            assert _encoded(lambda: replace_fields(word, **{name: value})) == (
                expected
            ), (opcode, fields, name, value)
            assert _encoded(lambda: encode(opcode, **moved)) == expected
    for displacement in (
        *_DISPLACEMENTS.get(opcode.format, (-(1 << 15), 7)), 1 << 21
    ):
        moved = {**fields, "displacement": displacement}
        expected = _encoded(lambda: oracle.encode(opcode, **moved))
        assert _encoded(
            lambda: replace_fields(word, displacement=displacement)
        ) == expected, (opcode, fields, displacement)
        assert _encoded(lambda: encode(opcode, **moved)) == expected
    assert replace_fields(word) == word


@pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.mnemonic)
def test_every_operand_value_round_trips_and_matches_the_oracle(opcode):
    for position, fields in enumerate(_sweep(opcode)):
        word = encode(opcode, **fields)
        assert word == oracle.encode(opcode, **fields)
        row = decode_row(word)
        assert row == oracle.decode_row(word) == oracle._row(opcode, **fields)
        assert encode(opcode, **operands(row)) == word
        _assert_matches_oracle(row)
        if position % 8 == 0:  # the base, and words from every sweep
            _assert_replace_fields_is_the_encoder(opcode, fields, word)


def test_a_literal_hides_the_rb_operand_from_the_constructor_too():
    word = encode(Opcode.ADDQ, ra=1, rb=2, rc=3, literal=5)
    assert word == encode(Opcode.ADDQ, ra=1, rc=3, literal=5)
    assert word == oracle.encode(Opcode.ADDQ, ra=1, rb=2, rc=3, literal=5)
    row = row_of(word)
    _assert_matches_oracle(row)
    assert row.use_mask == 1 << 1 and row.rb == ZERO_REGISTER


def test_default_operands_are_the_integer_zero_register_in_every_format():
    """``encode(opcode)`` gives the word — or the error — the oracle
    gives for the constructor's default operands."""
    encoded = 0
    for opcode in Opcode:
        expected = _encoded(lambda: oracle.encode(opcode))
        assert _encoded(lambda: encode(opcode)) == expected, opcode
        if isinstance(expected, int):
            encoded += 1
            row = row_of(expected)
            _assert_matches_oracle(row)
            assert row == oracle._row(opcode)
    assert encoded > len(Opcode) // 2


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
        expected = _outcome(oracle.decode_row, word)
        assert _outcome(decode_row, word) == expected, hex(word)
        failures += isinstance(expected, str)
    assert failures > 1000


@pytest.mark.parametrize("word", [-1, 1 << 32])
def test_a_value_that_is_no_word_is_rejected_with_the_same_text(word):
    expected = _outcome(oracle.decode_row, word)
    assert isinstance(expected, str)
    assert _outcome(decode_row, word) == expected


def test_decode_rows_names_the_first_bad_word():
    good = encode(Opcode.ADDQ, ra=1, rb=2, rc=3)
    bad_function = 0x10 << 26 | 0x7F << 5
    bad_major = 0x3 << 26
    code = struct.pack("<6I", good, good, bad_function, good, bad_major, bad_function)
    with pytest.raises(EncodingError) as caught:
        decode_rows(code)
    assert caught.value.offset == 8
    assert str(caught.value) == _outcome(oracle.decode_row, bad_function)


def test_a_bad_word_is_named_where_it_looks_like_a_literal_variant():
    """Words of one form share a row, so no bad word may pass for a
    variant of a good one.  Bit 12 flags the literal form only in an
    integer operate word; an FP operate word's function may set it
    too, and a key that cleared bits 20:13 on bit 12 alone would file
    ``fp | 1 << 13`` (function 0x1a0, which no opcode has) under the
    form of the good ``addt`` before it."""
    literal = encode(Opcode.ADDQ, ra=1, rc=3, literal=7)
    fp = encode(Opcode.ADDT, ra=33, rb=34, rc=35)
    assert literal & 1 << 12 and fp & 1 << 12
    for good, variant, bad in (
        (literal, literal ^ 0x5 << 13, literal | 0x7F << 5),
        (fp, fp, fp | 1 << 13),
    ):
        code = struct.pack("<5I", good, variant, bad, good, bad)
        with pytest.raises(EncodingError) as caught:
            decode_rows(code)
        assert caught.value.offset == 8
        assert str(caught.value) == _outcome(oracle.decode_row, bad)
        assert decode_rows(code[:8]) == (
            oracle.decode_row(good), oracle.decode_row(variant)
        )


def test_an_image_names_its_first_bad_word_whatever_the_set_order():
    image, address = two_bad_words(assemble(BASE_SOURCE))
    with pytest.raises(ImageFormatError) as caught:
        load_program(image.to_bytes())
    assert str(caught.value) == (
        f"undecodable instruction word at {address:#x}: "
        f"unknown major opcode 0x1"
    )
    with pytest.raises(EncodingError) as caught:
        decode_rows(image.text)
    assert caught.value.offset == address - image.text_base


#: Per format, the bits of a word outside its major and function
#: fields: any value there decodes.
_OPERAND_BITS = {
    Format.OPERATE: 0x03FF_F01F,
    Format.OPERATE_FP: 0x03FF_001F,
    Format.MEMORY: 0x03FF_FFFF,
    Format.MEMORY_FP: 0x03FF_FFFF,
    Format.BRANCH: 0x03FF_FFFF,
    Format.BRANCH_FP: 0x03FF_FFFF,
    Format.JUMP: 0x03FF_3FFF,
    Format.PAL: 0,
}


@settings(max_examples=2000, deadline=None)
@given(
    st.sampled_from(list(Opcode)),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
)
def test_a_decodable_word_is_the_row_of_its_instruction(opcode, bits):
    operand_bits = _OPERAND_BITS[opcode.format]
    word = (
        encode(opcode, **next(_sweep(opcode))) & ~operand_bits
        | bits & operand_bits
    )
    decoded = oracle.decode_row(word)
    assert decoded.opcode is opcode
    assert decode_row(word) == decoded


@settings(max_examples=2000, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_random_words_decode_or_fail_like_the_oracle(word):
    expected = _outcome(oracle.decode_row, word)
    actual = _outcome(decode_row, word)
    assert actual == expected
    if isinstance(actual, tuple):
        _assert_matches_oracle(actual)


_OPERAND = st.integers(min_value=-2, max_value=65)


@settings(max_examples=2000, deadline=None)
@given(
    st.sampled_from(list(Opcode)),
    _OPERAND, _OPERAND, _OPERAND,
    st.none() | st.integers(min_value=-2, max_value=257),
    st.integers(min_value=-(1 << 21), max_value=1 << 21),
)
def test_encode_accepts_and_refuses_what_the_old_encoder_did(
    opcode, ra, rb, rc, literal, displacement
):
    """Any operands, valid or not: ``encode`` gives the old encoder's
    word, or refuses them as it did (the text may differ only when
    several operands are wrong, which the two check in another
    order)."""
    fields = {
        "ra": ra, "rb": rb, "rc": rc,
        "literal": literal, "displacement": displacement,
    }
    expected = _encoded(lambda: oracle.encode(opcode, **fields))
    actual = _encoded(lambda: encode(opcode, **fields))
    assert type(actual) is type(expected)
    if isinstance(expected, int):
        assert actual == expected


class TestDecodedInstancesAreOrdinaryInstructions:
    """Rows are plain values, and a row's operands encode back to its
    word through the checks the instruction constructor made."""

    WORDS = [
        encode(Opcode.CMOVEQ, ra=1, rb=2, rc=3),
        encode(Opcode.SUBQ, ra=1, rc=3, literal=255),
        encode(Opcode.STT, ra=40, rb=30, displacement=-8),
        encode(Opcode.BSR, ra=26, displacement=-(1 << 20)),
        encode(Opcode.JSR, ra=26, rb=27),
        encode(Opcode.OUTPUT),
    ]

    @pytest.mark.parametrize("word", WORDS)
    def test_pickle_round_trip(self, word):
        for row in (decode_row(word), row_of(word)):
            copy = pickle.loads(pickle.dumps(row))
            assert copy == row and hash(copy) == hash(row)
            assert type(copy) is type(row)

    @pytest.mark.parametrize("word", WORDS)
    def test_replace_rebuilds_through_the_checked_constructor(self, word):
        row = row_of(word)
        fields = operands(row)
        assert encode(row.opcode, **fields) == word
        assert replace_fields(word) == word
        ra = FIELD_FILES[row.opcode][0] + 5
        moved = encode(row.opcode, **{**fields, "ra": ra})
        assert moved == replace_fields(word, ra=ra)
        _assert_matches_oracle(decode_row(moved))
        if "ra" in _FIELDS_OF[row.opcode.format]:
            assert row_of(moved).ra == ra
        with pytest.raises(ValueError, match=r"register field ra=64 out of range"):
            encode(row.opcode, **{**fields, "ra": 64})

    def test_instances_are_still_frozen(self):
        with pytest.raises(TypeError):
            decode_row(self.WORDS[0])[5] = 2
        with pytest.raises(AttributeError):
            row_of(self.WORDS[0]).ra = 2


class TestConstructorChecksAreUnchanged:
    """The checks the instruction constructor made, made by ``encode``
    with the constructor's texts."""

    @pytest.mark.parametrize("field", ["ra", "rb", "rc"])
    @pytest.mark.parametrize("value", [-1, 64])
    def test_register_range(self, field, value):
        with pytest.raises(ValueError) as caught:
            encode(Opcode.ADDQ, **{field: value})
        assert str(caught.value) == (
            f"addq: register field {field}={value} out of range [0, 64)"
        )
        assert str(caught.value) == _encoded(
            lambda: oracle.encode(Opcode.ADDQ, **{field: value})
        )

    def test_literal_needs_an_operate_format(self):
        with pytest.raises(ValueError) as caught:
            encode(Opcode.LDQ, ra=1, rb=2, literal=1)
        assert str(caught.value) == (
            "ldq: literal operand only valid in operate format"
        )

    @pytest.mark.parametrize("literal", [-1, 256])
    def test_literal_range(self, literal):
        with pytest.raises(ValueError) as caught:
            encode(Opcode.ADDQ, ra=1, rc=2, literal=literal)
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
        instructions = rows_of(routine.code)
        for index, instruction in enumerate(instructions):
            if instruction.control in (
                ControlKind.CALL_INDIRECT, ControlKind.INDIRECT_JUMP
            ):
                value = resolve_register_constant(
                    routine.rows, index, instruction.rb
                )
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
        cfg_build,
        "_restore_index",
        lambda rows, *rest: oracle._restore_index(
            [Row._make(row) for row in rows], *rest
        ),
    )
    for name, cfg in cfgs.items():
        assert savedregs.find_save_restore_sites(cfg, NT_ALPHA) == saved[name]


def _words(code: bytes):
    return struct.unpack(f"<{len(code) // 4}I", code)


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda shape: shape.name)
def test_rows_and_lazy_instructions_of_every_shape(shape):
    image = generate_image(shape.scaled(0.05), GeneratorConfig(seed=1))
    words = _words(image.text)
    assert decode_rows(image.text) == tuple(map(decode_row, words))
    for word in set(words):
        assert decode_row(word) == oracle.decode_row(word)
    program = disassemble_image(image)
    objects = {}
    for routine in program:
        words = _words(routine.code)
        assert routine.rows == tuple(map(decode_row, words))
        assert routine.rows == tuple(map(oracle.decode_row, words))
        for word, row in zip(words, routine.rows):
            assert objects.setdefault(word, row) is row


class TestLiftedRoutines:
    """A lifted routine behaves like one constructed from the same
    instructions."""

    @pytest.fixture
    def pair(self):
        image = assemble(BASE_SOURCE)
        first = disassemble_image(image).routine("main")
        code = words_code(
            encode(row.opcode, **operands(row)) for row in rows_of(first.code)
        )
        built = Routine(first.name, first.address, code, first.exported)
        return disassemble_image(image).routine("main"), built

    def test_lengths_and_addresses_read_no_instruction(self, pair):
        lifted, built = pair
        assert len(lifted) == len(built) and lifted.size == built.size
        assert lifted.end == built.end
        assert lifted.address_of(3) == built.address_of(3)
        assert lifted.index_of(lifted.address + 8) == 2
        assert not lifted.contains(lifted.end)
        with pytest.raises(IndexError):
            lifted.address_of(len(lifted))

    def test_equality_replace_and_code(self, pair):
        lifted, built = pair
        assert lifted.rows == built.rows
        assert lifted == built
        assert lifted.code == built.code
        assert dataclasses.replace(lifted) == built
        renamed = dataclasses.replace(lifted, name="other")
        assert renamed.name == "other" and renamed.code == lifted.code
        assert renamed.rows == built.rows
        with pytest.raises(TypeError):
            iter(lifted)  # a routine is its code, not a sequence of objects
        assert repr(lifted) == repr(built)
        with pytest.raises(TypeError):
            Routine("f", 0)  # ``code`` is a required field
