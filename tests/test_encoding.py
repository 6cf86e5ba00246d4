"""Tests for repro.isa.encoding: 32-bit round trips and error paths."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.encoding import (
    EncodingError,
    decode_instruction,
    decode_rows,
    encode_instruction,
    encode_stream,
)
from repro.isa.instructions import ControlKind, Format, Instruction, Opcode
from repro.isa.registers import Register, ZERO_REGISTER
from tests.decoded import instructions_of


def roundtrip(instruction: Instruction) -> Instruction:
    word = encode_instruction(instruction)
    assert 0 <= word < 1 << 32
    return decode_instruction(word)


class TestRoundTrips:
    def test_operate_register_form(self):
        ins = Instruction(Opcode.ADDQ, ra=1, rb=2, rc=3)
        assert roundtrip(ins) == ins

    def test_operate_literal_form(self):
        ins = Instruction(Opcode.SUBQ, ra=1, rc=3, literal=255)
        assert roundtrip(ins) == ins

    def test_float_operate(self):
        ins = Instruction(Opcode.MULT, ra=34, rb=35, rc=36)
        assert roundtrip(ins) == ins

    def test_itoft_mixed_files(self):
        ins = Instruction(Opcode.ITOFT, ra=5, rb=ZERO_REGISTER, rc=40)
        decoded = roundtrip(ins)
        assert decoded.ra == 5 and decoded.rc == 40

    def test_ftoit_mixed_files(self):
        ins = Instruction(Opcode.FTOIT, ra=40, rb=63, rc=5)
        decoded = roundtrip(ins)
        assert decoded.ra == 40 and decoded.rc == 5

    def test_memory_negative_displacement(self):
        ins = Instruction(Opcode.LDQ, ra=1, rb=30, displacement=-32768)
        assert roundtrip(ins) == ins

    def test_memory_positive_displacement(self):
        ins = Instruction(Opcode.STQ, ra=1, rb=30, displacement=32767)
        assert roundtrip(ins) == ins

    def test_float_memory(self):
        ins = Instruction(Opcode.STT, ra=40, rb=30, displacement=8)
        assert roundtrip(ins) == ins

    def test_branch_displacements(self):
        for displacement in (-(1 << 20), -1, 0, 1, (1 << 20) - 1):
            ins = Instruction(Opcode.BEQ, ra=1, displacement=displacement)
            assert roundtrip(ins) == ins

    def test_bsr(self):
        ins = Instruction(Opcode.BSR, ra=26, displacement=1000)
        assert roundtrip(ins) == ins

    def test_float_branch(self):
        ins = Instruction(Opcode.FBNE, ra=34, displacement=-5)
        assert roundtrip(ins) == ins

    def test_jump_family(self):
        for opcode in (Opcode.JMP, Opcode.JSR, Opcode.RET):
            ins = Instruction(opcode, ra=26, rb=27)
            assert roundtrip(ins) == ins

    def test_pal(self):
        assert roundtrip(Instruction(Opcode.HALT)) == Instruction(Opcode.HALT)
        assert roundtrip(Instruction(Opcode.OUTPUT)) == Instruction(Opcode.OUTPUT)

    @pytest.mark.parametrize("opcode", [
        op for op in Opcode
        if op.format in (Format.OPERATE, Format.OPERATE_FP)
    ])
    def test_every_operate_opcode(self, opcode):
        if opcode.format == Format.OPERATE_FP:
            ins = Instruction(opcode, ra=33, rb=34, rc=35)
            if opcode is Opcode.FTOIT:
                ins = Instruction(opcode, ra=33, rb=34, rc=3)
        elif opcode is Opcode.ITOFT:
            ins = Instruction(opcode, ra=3, rb=4, rc=35)
        else:
            ins = Instruction(opcode, ra=3, rb=4, rc=5)
        assert roundtrip(ins) == ins


class TestErrors:
    def test_branch_displacement_out_of_range(self):
        with pytest.raises(EncodingError):
            encode_instruction(Instruction(Opcode.BR, displacement=1 << 20))

    def test_memory_displacement_out_of_range(self):
        with pytest.raises(EncodingError):
            encode_instruction(
                Instruction(Opcode.LDQ, ra=1, rb=2, displacement=1 << 15)
            )

    def test_wrong_register_file_rejected(self):
        with pytest.raises(EncodingError):
            encode_instruction(Instruction(Opcode.ADDQ, ra=40, rb=2, rc=3))
        with pytest.raises(EncodingError):
            encode_instruction(Instruction(Opcode.ADDT, ra=1, rb=34, rc=35))

    def test_unknown_major_rejected(self):
        with pytest.raises(EncodingError):
            decode_instruction(0x07 << 26)  # major 0x07 is unassigned

    def test_unknown_operate_function_rejected(self):
        with pytest.raises(EncodingError):
            decode_instruction(0x10 << 26 | 0x7F << 5)  # bad function

    def test_unknown_pal_function(self):
        with pytest.raises(EncodingError):
            decode_instruction(0x0000_1234)

    def test_word_out_of_range(self):
        with pytest.raises(EncodingError):
            decode_instruction(1 << 32)

    def test_stream_length_checked(self):
        with pytest.raises(EncodingError):
            decode_rows(b"\x00\x01\x02")


class TestStreams:
    def test_stream_roundtrip(self):
        instructions = [
            Instruction(Opcode.LDA, ra=1, rb=31, displacement=7),
            Instruction(Opcode.ADDQ, ra=1, rb=1, rc=2),
            Instruction(Opcode.RET, rb=26),
        ]
        assert list(instructions_of(encode_stream(instructions))) == instructions

    def test_empty_stream(self):
        assert decode_rows(b"") == ()
        assert encode_stream([]) == b""


# Hypothesis strategies for arbitrary well-formed instructions.
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
            return Instruction(
                opcode, ra=ra, rc=rc,
                literal=draw(st.integers(min_value=0, max_value=255)),
            )
        return Instruction(opcode, ra=ra, rb=rb, rc=rc)
    if fmt == Format.OPERATE_FP:
        if opcode is Opcode.FTOIT:
            return Instruction(
                opcode, ra=draw(_FP_REG), rb=draw(_FP_REG), rc=draw(_INT_REG)
            )
        return Instruction(
            opcode, ra=draw(_FP_REG), rb=draw(_FP_REG), rc=draw(_FP_REG)
        )
    if fmt in (Format.MEMORY, Format.MEMORY_FP):
        ra = draw(_FP_REG if fmt == Format.MEMORY_FP else _INT_REG)
        return Instruction(
            opcode, ra=ra, rb=draw(_INT_REG),
            displacement=draw(st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1)),
        )
    if fmt in (Format.BRANCH, Format.BRANCH_FP):
        ra = draw(_FP_REG if fmt == Format.BRANCH_FP else _INT_REG)
        return Instruction(
            opcode, ra=ra,
            displacement=draw(st.integers(min_value=-(1 << 20), max_value=(1 << 20) - 1)),
        )
    if fmt == Format.JUMP:
        return Instruction(opcode, ra=draw(_INT_REG), rb=draw(_INT_REG))
    return Instruction(opcode)


@given(instructions())
def test_property_roundtrip(instruction):
    """Every well-formed instruction survives encode/decode unchanged."""
    assert roundtrip(instruction) == instruction


@given(instructions())
def test_property_encoding_is_deterministic(instruction):
    assert encode_instruction(instruction) == encode_instruction(instruction)
