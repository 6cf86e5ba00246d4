"""Tests for repro.isa.instructions: def/use semantics, control kinds
and presentation, read from the rows of encoded words.  Every row's
masks are also checked against the set derivation kept in
``tests/decode_oracle.py``."""

import pytest

from repro.isa.encoding import encode
from repro.isa.instructions import (
    ControlKind,
    Format,
    MNEMONIC_TO_OPCODE,
    Opcode,
    render_row,
)
from repro.isa.registers import FLOAT_ZERO_REGISTER, Register, ZERO_REGISTER
from tests import decode_oracle as oracle
from tests.decoded import Row, row_of


def reg(name: str) -> int:
    return Register.parse(name).index


def _members(mask: int) -> set:
    return {index for index in range(64) if mask >> index & 1}


def decoded(opcode: Opcode, **fields) -> Row:
    """The row of ``opcode``'s word with ``fields``; its masks are the
    oracle's sets."""
    row = row_of(encode(opcode, **fields))
    assert _members(row.use_mask) == oracle._compute_uses(row)
    assert _members(row.def_mask) == oracle._compute_defs(row)
    return row


def uses(row: Row) -> set:
    return _members(row.use_mask)


def defs(row: Row) -> set:
    return _members(row.def_mask)


class TestOperateSemantics:
    def test_register_form_uses_both_sources(self):
        ins = decoded(Opcode.ADDQ, ra=reg("t0"), rb=reg("t1"), rc=reg("t2"))
        assert uses(ins) == {reg("t0"), reg("t1")}
        assert defs(ins) == {reg("t2")}

    def test_literal_form_uses_only_ra(self):
        ins = decoded(Opcode.ADDQ, ra=reg("t0"), rc=reg("t2"), literal=5)
        assert uses(ins) == {reg("t0")}
        assert defs(ins) == {reg("t2")}

    def test_zero_register_source_not_reported(self):
        ins = decoded(Opcode.BIS, ra=ZERO_REGISTER, rb=reg("t1"), rc=reg("t2"))
        assert uses(ins) == {reg("t1")}

    def test_zero_register_destination_not_reported(self):
        ins = decoded(Opcode.ADDQ, ra=reg("t0"), rb=reg("t1"), rc=ZERO_REGISTER)
        assert defs(ins) == set()

    def test_float_operate(self):
        ins = decoded(Opcode.ADDT, ra=reg("f2"), rb=reg("f3"), rc=reg("f4"))
        assert uses(ins) == {reg("f2"), reg("f3")}
        assert defs(ins) == {reg("f4")}

    def test_float_zero_not_reported(self):
        ins = decoded(
            Opcode.ADDT, ra=FLOAT_ZERO_REGISTER, rb=reg("f3"), rc=reg("f4")
        )
        assert uses(ins) == {reg("f3")}

    def test_conditional_move_reads_destination(self):
        ins = decoded(Opcode.CMOVEQ, ra=reg("t0"), rb=reg("t1"), rc=reg("t2"))
        assert uses(ins) == {reg("t0"), reg("t1"), reg("t2")}
        assert defs(ins) == {reg("t2")}

    def test_literal_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            encode(Opcode.ADDQ, ra=0, rc=1, literal=256)
        with pytest.raises(ValueError):
            encode(Opcode.ADDQ, ra=0, rc=1, literal=-1)

    def test_literal_invalid_on_memory_format(self):
        with pytest.raises(ValueError):
            encode(Opcode.LDQ, ra=0, rb=1, literal=5)


class TestMemorySemantics:
    def test_load_defines_ra_uses_base(self):
        ins = decoded(Opcode.LDQ, ra=reg("t0"), rb=reg("sp"), displacement=8)
        assert uses(ins) == {reg("sp")}
        assert defs(ins) == {reg("t0")}

    def test_store_uses_value_and_base(self):
        ins = decoded(Opcode.STQ, ra=reg("t0"), rb=reg("sp"), displacement=8)
        assert uses(ins) == {reg("t0"), reg("sp")}
        assert defs(ins) == set()

    def test_lda_is_a_load_shaped_def(self):
        ins = decoded(Opcode.LDA, ra=reg("t0"), rb=reg("sp"), displacement=-16)
        assert uses(ins) == {reg("sp")}
        assert defs(ins) == {reg("t0")}

    def test_float_load_store(self):
        load = decoded(Opcode.LDT, ra=reg("f4"), rb=reg("sp"))
        store = decoded(Opcode.STT, ra=reg("f4"), rb=reg("sp"))
        assert defs(load) == {reg("f4")}
        assert uses(store) == {reg("f4"), reg("sp")}


class TestControlFlow:
    def test_conditional_branch_uses_condition(self):
        ins = decoded(Opcode.BEQ, ra=reg("t0"), displacement=3)
        assert uses(ins) == {reg("t0")}
        assert defs(ins) == set()
        assert ins.control == ControlKind.COND_BRANCH

    def test_unconditional_branch_defines_link(self):
        ins = decoded(Opcode.BR, ra=reg("t0"), displacement=3)
        assert defs(ins) == {reg("t0")}
        assert ins.control == ControlKind.UNCOND_BRANCH

    def test_br_through_zero_defines_nothing(self):
        ins = decoded(Opcode.BR, ra=ZERO_REGISTER, displacement=1)
        assert defs(ins) == set()

    def test_bsr_is_direct_call(self):
        ins = decoded(Opcode.BSR, ra=reg("ra"), displacement=10)
        assert defs(ins) == {reg("ra")}
        assert ins.control == ControlKind.CALL_DIRECT

    def test_jsr_is_indirect_call(self):
        ins = decoded(Opcode.JSR, ra=reg("ra"), rb=reg("pv"))
        assert ins.control == ControlKind.CALL_INDIRECT
        assert uses(ins) == {reg("pv")}
        assert defs(ins) == {reg("ra")}

    def test_ret(self):
        ins = decoded(Opcode.RET, ra=ZERO_REGISTER, rb=reg("ra"))
        assert ins.control == ControlKind.RETURN
        assert uses(ins) == {reg("ra")}

    def test_jmp_is_indirect_jump(self):
        ins = decoded(Opcode.JMP, ra=ZERO_REGISTER, rb=reg("t0"))
        assert ins.control == ControlKind.INDIRECT_JUMP
        assert uses(ins) == {reg("t0")}

    def test_halt_reads_exit_status(self):
        ins = decoded(Opcode.HALT)
        assert uses(ins) == {reg("v0")}  # v0 is the exit status
        assert defs(ins) == set()
        assert ins.control == ControlKind.HALT

    def test_output_reads_a0(self):
        ins = decoded(Opcode.OUTPUT)
        assert uses(ins) == {reg("a0")}
        assert defs(ins) == set()

    def test_branch_ops_are_all_conditional(self):
        ops = {
            op for op in Opcode if op.format in (Format.BRANCH, Format.BRANCH_FP)
        } - {Opcode.BR, Opcode.BSR}
        assert Opcode.BEQ in ops and Opcode.BNE in ops and Opcode.FBEQ in ops
        assert all(op.control == ControlKind.COND_BRANCH for op in ops)


class TestPresentation:
    def test_render_operate(self):
        ins = decoded(Opcode.ADDQ, ra=reg("t0"), rb=reg("t1"), rc=reg("t2"))
        assert render_row(ins) == "addq t0, t1, t2"

    def test_render_literal(self):
        ins = decoded(Opcode.SUBQ, ra=reg("t0"), rc=reg("t0"), literal=1)
        assert render_row(ins) == "subq t0, #1, t0"

    def test_render_memory(self):
        ins = decoded(Opcode.STQ, ra=reg("ra"), rb=reg("sp"), displacement=0)
        assert render_row(ins) == "stq ra, 0(sp)"

    def test_render_jump(self):
        ins = decoded(Opcode.RET, ra=ZERO_REGISTER, rb=reg("ra"))
        assert render_row(ins) == "ret zero, (ra)"

    def test_mnemonic_table_is_total(self):
        assert len(MNEMONIC_TO_OPCODE) == len(Opcode)
        for opcode in Opcode:
            assert MNEMONIC_TO_OPCODE[opcode.mnemonic] is opcode

    def test_register_field_range_checked(self):
        with pytest.raises(ValueError):
            encode(Opcode.ADDQ, ra=64, rb=0, rc=0)


class TestFormatConsistency:
    @pytest.mark.parametrize("opcode", list(Opcode))
    def test_every_opcode_has_format_and_control(self, opcode):
        assert isinstance(opcode.format, Format)
        assert isinstance(opcode.control, ControlKind)

    @pytest.mark.parametrize("opcode", list(Opcode))
    def test_uses_defs_disjoint_from_zero_registers(self, opcode):
        kwargs = {}
        if opcode.format in (Format.OPERATE_FP, Format.MEMORY_FP, Format.BRANCH_FP):
            kwargs = {"ra": 33, "rb": 34 if opcode.format == Format.OPERATE_FP else 2,
                      "rc": 35}
            if opcode is Opcode.FTOIT:
                kwargs["rc"] = 3
        elif opcode is Opcode.ITOFT:
            kwargs = {"ra": 1, "rb": 2, "rc": 35}
        else:
            kwargs = {"ra": 1, "rb": 2, "rc": 3}
        ins = decoded(opcode, **kwargs)
        for index in uses(ins) | defs(ins):
            assert index not in (31, 63)
