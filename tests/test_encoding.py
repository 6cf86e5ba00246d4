"""Tests for repro.isa.encoding: 32-bit round trips and error paths."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.encoding import (
    EncodingError,
    code_words,
    decode_row,
    decode_rows,
    encode,
    words_code,
)
from repro.isa.instructions import Format, Opcode
from repro.isa.registers import ZERO_REGISTER
from tests.decoded import Row, operands, row_of

#: ``encode``'s default operands.
_DEFAULTS = {
    "ra": ZERO_REGISTER, "rb": ZERO_REGISTER, "rc": ZERO_REGISTER,
    "literal": None, "displacement": 0,
}


def roundtrip(opcode: Opcode, **fields) -> Row:
    """Encode ``opcode`` with ``fields``, decode the word: its row,
    whose operands must be ``fields`` (the rest ``encode``'s
    defaults)."""
    word = encode(opcode, **fields)
    assert 0 <= word < 1 << 32
    row = row_of(word)
    assert row.opcode is opcode
    assert operands(row) == {**_DEFAULTS, **fields}
    return row


class TestRoundTrips:
    def test_operate_register_form(self):
        roundtrip(Opcode.ADDQ, ra=1, rb=2, rc=3)

    def test_operate_literal_form(self):
        roundtrip(Opcode.SUBQ, ra=1, rc=3, literal=255)

    def test_float_operate(self):
        roundtrip(Opcode.MULT, ra=34, rb=35, rc=36)

    def test_itoft_mixed_files(self):
        decoded = roundtrip(Opcode.ITOFT, ra=5, rb=ZERO_REGISTER, rc=40)
        assert decoded.ra == 5 and decoded.rc == 40

    def test_ftoit_mixed_files(self):
        decoded = roundtrip(Opcode.FTOIT, ra=40, rb=63, rc=5)
        assert decoded.ra == 40 and decoded.rc == 5

    def test_memory_negative_displacement(self):
        roundtrip(Opcode.LDQ, ra=1, rb=30, displacement=-32768)

    def test_memory_positive_displacement(self):
        roundtrip(Opcode.STQ, ra=1, rb=30, displacement=32767)

    def test_float_memory(self):
        roundtrip(Opcode.STT, ra=40, rb=30, displacement=8)

    def test_branch_displacements(self):
        for displacement in (-(1 << 20), -1, 0, 1, (1 << 20) - 1):
            roundtrip(Opcode.BEQ, ra=1, displacement=displacement)

    def test_bsr(self):
        roundtrip(Opcode.BSR, ra=26, displacement=1000)

    def test_float_branch(self):
        roundtrip(Opcode.FBNE, ra=34, displacement=-5)

    def test_jump_family(self):
        for opcode in (Opcode.JMP, Opcode.JSR, Opcode.RET):
            roundtrip(opcode, ra=26, rb=27)

    def test_pal(self):
        roundtrip(Opcode.HALT)
        roundtrip(Opcode.OUTPUT)

    @pytest.mark.parametrize("opcode", [
        op for op in Opcode
        if op.format in (Format.OPERATE, Format.OPERATE_FP)
    ])
    def test_every_operate_opcode(self, opcode):
        if opcode.format == Format.OPERATE_FP:
            fields = {"ra": 33, "rb": 34, "rc": 35}
            if opcode is Opcode.FTOIT:
                fields = {"ra": 33, "rb": 34, "rc": 3}
        elif opcode is Opcode.ITOFT:
            fields = {"ra": 3, "rb": 4, "rc": 35}
        else:
            fields = {"ra": 3, "rb": 4, "rc": 5}
        roundtrip(opcode, **fields)


class TestErrors:
    def test_branch_displacement_out_of_range(self):
        with pytest.raises(EncodingError):
            encode(Opcode.BR, displacement=1 << 20)

    def test_memory_displacement_out_of_range(self):
        with pytest.raises(EncodingError):
            encode(Opcode.LDQ, ra=1, rb=2, displacement=1 << 15)

    def test_wrong_register_file_rejected(self):
        with pytest.raises(EncodingError):
            encode(Opcode.ADDQ, ra=40, rb=2, rc=3)
        with pytest.raises(EncodingError):
            encode(Opcode.ADDT, ra=1, rb=34, rc=35)

    def test_fp_operate_has_no_literal_form(self):
        with pytest.raises(EncodingError, match="^addt: no literal form$"):
            encode(Opcode.ADDT, ra=33, rc=35, literal=1)

    def test_unknown_major_rejected(self):
        with pytest.raises(EncodingError):
            decode_row(0x07 << 26)  # major 0x07 is unassigned

    def test_unknown_operate_function_rejected(self):
        with pytest.raises(EncodingError):
            decode_row(0x10 << 26 | 0x7F << 5)  # bad function

    def test_unknown_pal_function(self):
        with pytest.raises(EncodingError):
            decode_row(0x0000_1234)

    def test_word_out_of_range(self):
        with pytest.raises(EncodingError):
            decode_row(1 << 32)

    def test_stream_length_checked(self):
        with pytest.raises(EncodingError):
            decode_rows(b"\x00\x01\x02")


class TestStreams:
    def test_stream_roundtrip(self):
        words = [
            encode(Opcode.LDA, ra=1, rb=31, displacement=7),
            encode(Opcode.ADDQ, ra=1, rb=1, rc=2),
            encode(Opcode.RET, rb=26),
        ]
        code = words_code(words)
        assert list(code_words(code)) == words
        assert decode_rows(code) == tuple(map(decode_row, words))

    def test_empty_stream(self):
        assert decode_rows(b"") == ()
        assert words_code([]) == b""


# Hypothesis strategies for arbitrary well-formed instructions: an
# opcode and the operands ``encode`` takes.
_INT_REG = st.integers(min_value=0, max_value=31)
_FP_REG = st.integers(min_value=32, max_value=63)


@st.composite
def instructions(draw):
    opcode = draw(st.sampled_from(list(Opcode)))
    fmt = opcode.format
    if fmt == Format.OPERATE:
        if opcode is Opcode.ITOFT:
            ra, rb, rc = draw(_INT_REG), draw(_INT_REG), draw(_FP_REG)
        else:
            ra, rb, rc = draw(_INT_REG), draw(_INT_REG), draw(_INT_REG)
        if draw(st.booleans()):
            return opcode, {
                "ra": ra, "rc": rc,
                "literal": draw(st.integers(min_value=0, max_value=255)),
            }
        return opcode, {"ra": ra, "rb": rb, "rc": rc}
    if fmt == Format.OPERATE_FP:
        if opcode is Opcode.FTOIT:
            return opcode, {
                "ra": draw(_FP_REG), "rb": draw(_FP_REG), "rc": draw(_INT_REG)
            }
        return opcode, {
            "ra": draw(_FP_REG), "rb": draw(_FP_REG), "rc": draw(_FP_REG)
        }
    if fmt in (Format.MEMORY, Format.MEMORY_FP):
        ra = draw(_FP_REG if fmt == Format.MEMORY_FP else _INT_REG)
        return opcode, {
            "ra": ra, "rb": draw(_INT_REG),
            "displacement": draw(
                st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1)
            ),
        }
    if fmt in (Format.BRANCH, Format.BRANCH_FP):
        ra = draw(_FP_REG if fmt == Format.BRANCH_FP else _INT_REG)
        return opcode, {
            "ra": ra,
            "displacement": draw(
                st.integers(min_value=-(1 << 20), max_value=(1 << 20) - 1)
            ),
        }
    if fmt == Format.JUMP:
        return opcode, {"ra": draw(_INT_REG), "rb": draw(_INT_REG)}
    return opcode, {}


@given(instructions())
def test_property_roundtrip(instruction):
    """Every well-formed instruction survives encode/decode unchanged."""
    opcode, fields = instruction
    roundtrip(opcode, **fields)


@given(instructions())
def test_property_encoding_is_deterministic(instruction):
    opcode, fields = instruction
    assert encode(opcode, **fields) == encode(opcode, **fields)
