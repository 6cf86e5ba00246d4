"""Tests for repro.isa.instructions: def/use semantics and control kinds."""

import pytest

from repro.isa.instructions import (
    ControlKind,
    Format,
    Instruction,
    MNEMONIC_TO_OPCODE,
    Opcode,
)
from repro.isa.registers import FLOAT_ZERO_REGISTER, Register, ZERO_REGISTER


def reg(name: str) -> int:
    return Register.parse(name).index


class TestOperateSemantics:
    def test_register_form_uses_both_sources(self):
        ins = Instruction(Opcode.ADDQ, ra=reg("t0"), rb=reg("t1"), rc=reg("t2"))
        assert ins.uses() == {reg("t0"), reg("t1")}
        assert ins.defs() == {reg("t2")}

    def test_literal_form_uses_only_ra(self):
        ins = Instruction(Opcode.ADDQ, ra=reg("t0"), rc=reg("t2"), literal=5)
        assert ins.uses() == {reg("t0")}
        assert ins.defs() == {reg("t2")}

    def test_zero_register_source_not_reported(self):
        ins = Instruction(Opcode.BIS, ra=ZERO_REGISTER, rb=reg("t1"), rc=reg("t2"))
        assert ins.uses() == {reg("t1")}

    def test_zero_register_destination_not_reported(self):
        ins = Instruction(Opcode.ADDQ, ra=reg("t0"), rb=reg("t1"), rc=ZERO_REGISTER)
        assert ins.defs() == set()

    def test_float_operate(self):
        ins = Instruction(Opcode.ADDT, ra=reg("f2"), rb=reg("f3"), rc=reg("f4"))
        assert ins.uses() == {reg("f2"), reg("f3")}
        assert ins.defs() == {reg("f4")}

    def test_float_zero_not_reported(self):
        ins = Instruction(
            Opcode.ADDT, ra=FLOAT_ZERO_REGISTER, rb=reg("f3"), rc=reg("f4")
        )
        assert ins.uses() == {reg("f3")}

    def test_conditional_move_reads_destination(self):
        ins = Instruction(Opcode.CMOVEQ, ra=reg("t0"), rb=reg("t1"), rc=reg("t2"))
        assert ins.uses() == {reg("t0"), reg("t1"), reg("t2")}
        assert ins.defs() == {reg("t2")}

    def test_literal_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.ADDQ, ra=0, rc=1, literal=256)
        with pytest.raises(ValueError):
            Instruction(Opcode.ADDQ, ra=0, rc=1, literal=-1)

    def test_literal_invalid_on_memory_format(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.LDQ, ra=0, rb=1, literal=5)


class TestMemorySemantics:
    def test_load_defines_ra_uses_base(self):
        ins = Instruction(Opcode.LDQ, ra=reg("t0"), rb=reg("sp"), displacement=8)
        assert ins.uses() == {reg("sp")}
        assert ins.defs() == {reg("t0")}

    def test_store_uses_value_and_base(self):
        ins = Instruction(Opcode.STQ, ra=reg("t0"), rb=reg("sp"), displacement=8)
        assert ins.uses() == {reg("t0"), reg("sp")}
        assert ins.defs() == set()

    def test_lda_is_a_load_shaped_def(self):
        ins = Instruction(Opcode.LDA, ra=reg("t0"), rb=reg("sp"), displacement=-16)
        assert ins.uses() == {reg("sp")}
        assert ins.defs() == {reg("t0")}

    def test_float_load_store(self):
        load = Instruction(Opcode.LDT, ra=reg("f4"), rb=reg("sp"))
        store = Instruction(Opcode.STT, ra=reg("f4"), rb=reg("sp"))
        assert load.defs() == {reg("f4")}
        assert store.uses() == {reg("f4"), reg("sp")}


class TestControlFlow:
    def test_conditional_branch_uses_condition(self):
        ins = Instruction(Opcode.BEQ, ra=reg("t0"), displacement=3)
        assert ins.uses() == {reg("t0")}
        assert ins.defs() == set()
        assert ins.control == ControlKind.COND_BRANCH

    def test_unconditional_branch_defines_link(self):
        ins = Instruction(Opcode.BR, ra=reg("t0"), displacement=3)
        assert ins.defs() == {reg("t0")}
        assert ins.control == ControlKind.UNCOND_BRANCH

    def test_br_through_zero_defines_nothing(self):
        ins = Instruction(Opcode.BR, ra=ZERO_REGISTER, displacement=1)
        assert ins.defs() == set()

    def test_bsr_is_direct_call(self):
        ins = Instruction(Opcode.BSR, ra=reg("ra"), displacement=10)
        assert ins.defs() == {reg("ra")}
        assert ins.control == ControlKind.CALL_DIRECT

    def test_jsr_is_indirect_call(self):
        ins = Instruction(Opcode.JSR, ra=reg("ra"), rb=reg("pv"))
        assert ins.control == ControlKind.CALL_INDIRECT
        assert ins.uses() == {reg("pv")}
        assert ins.defs() == {reg("ra")}

    def test_ret(self):
        ins = Instruction(Opcode.RET, ra=ZERO_REGISTER, rb=reg("ra"))
        assert ins.control == ControlKind.RETURN
        assert ins.uses() == {reg("ra")}

    def test_jmp_is_indirect_jump(self):
        ins = Instruction(Opcode.JMP, ra=ZERO_REGISTER, rb=reg("t0"))
        assert ins.control == ControlKind.INDIRECT_JUMP
        assert ins.uses() == {reg("t0")}

    def test_halt_reads_exit_status(self):
        ins = Instruction(Opcode.HALT)
        assert ins.uses() == {reg("v0")}  # v0 is the exit status
        assert ins.defs() == set()
        assert ins.control == ControlKind.HALT

    def test_output_reads_a0(self):
        ins = Instruction(Opcode.OUTPUT)
        assert ins.uses() == {reg("a0")}
        assert ins.defs() == set()

    def test_branch_ops_are_all_conditional(self):
        ops = {
            op for op in Opcode if op.format in (Format.BRANCH, Format.BRANCH_FP)
        } - {Opcode.BR, Opcode.BSR}
        assert Opcode.BEQ in ops and Opcode.BNE in ops and Opcode.FBEQ in ops
        assert all(op.control == ControlKind.COND_BRANCH for op in ops)


class TestPresentation:
    def test_render_operate(self):
        ins = Instruction(Opcode.ADDQ, ra=reg("t0"), rb=reg("t1"), rc=reg("t2"))
        assert ins.render() == "addq t0, t1, t2"

    def test_render_literal(self):
        ins = Instruction(Opcode.SUBQ, ra=reg("t0"), rc=reg("t0"), literal=1)
        assert ins.render() == "subq t0, #1, t0"

    def test_render_memory(self):
        ins = Instruction(Opcode.STQ, ra=reg("ra"), rb=reg("sp"), displacement=0)
        assert ins.render() == "stq ra, 0(sp)"

    def test_render_jump(self):
        ins = Instruction(Opcode.RET, ra=ZERO_REGISTER, rb=reg("ra"))
        assert ins.render() == "ret zero, (ra)"

    def test_mnemonic_table_is_total(self):
        assert len(MNEMONIC_TO_OPCODE) == len(Opcode)
        for opcode in Opcode:
            assert MNEMONIC_TO_OPCODE[opcode.mnemonic] is opcode

    def test_register_field_range_checked(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.ADDQ, ra=64, rb=0, rc=0)


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
        ins = Instruction(opcode, **kwargs)
        for index in ins.uses() | ins.defs():
            assert index not in (31, 63)
