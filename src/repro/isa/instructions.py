"""Instruction semantics for the Alpha-like ISA.

Spike works on fully linked machine code, so the unit of analysis is the
machine instruction.  For interprocedural register dataflow the analysis
needs exactly three things from each instruction:

* the registers it **reads** (uses),
* the registers it **writes** (defs),
* how it transfers control (fall-through, conditional branch,
  unconditional branch, indirect jump, call, return, or halt).

This module defines the opcode table shared with the binary encoder
(:mod:`repro.isa.encoding`), the assembler and the disassembler, and
the *row* (:data:`ROW_FIELDS`), the one decoded form every reader of a
program reads.  The one encoded form is the 32-bit word.

The instruction formats mirror the Alpha AXP formats:

* **operate**   ``op ra, rb_or_lit, rc`` — ``rc = ra OP rb`` (or an 8-bit
  zero-extended literal in place of ``rb``);
* **memory**    ``op ra, disp(rb)`` — loads, stores and LDA/LDAH;
* **branch**    ``op ra, disp`` — PC-relative branches; BSR is the direct
  call and writes the return address into ``ra``;
* **jump**      ``op ra, (rb)`` — register-indirect JMP/JSR/RET;
* **pal**       ``call_pal func`` — HALT stops the program, OUTPUT emits
  the value of ``a0`` to the observable output stream (used as the
  behavioural oracle when validating optimizations).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.isa.registers import (
    FLOAT_ZERO_REGISTER,
    NUM_REGISTERS,
    Register,
    ZERO_REGISTER,
)


class Format(enum.Enum):
    """Alpha instruction formats (selects the binary encoding)."""

    OPERATE = "operate"        # integer register-to-register
    OPERATE_FP = "operate_fp"  # floating-point register-to-register
    MEMORY = "memory"          # load/store/LDA with 16-bit displacement
    MEMORY_FP = "memory_fp"    # floating-point load/store
    BRANCH = "branch"          # PC-relative, 21-bit displacement
    BRANCH_FP = "branch_fp"    # PC-relative on a float register
    JUMP = "jump"              # register-indirect JMP/JSR/RET
    PAL = "pal"                # CALL_PAL


class ControlKind(enum.Enum):
    """How an instruction transfers control."""

    FALLTHROUGH = "fallthrough"
    COND_BRANCH = "cond_branch"
    UNCOND_BRANCH = "uncond_branch"
    INDIRECT_JUMP = "indirect_jump"
    CALL_DIRECT = "call_direct"
    CALL_INDIRECT = "call_indirect"
    RETURN = "return"
    HALT = "halt"


@dataclass(frozen=True)
class OpcodeInfo:
    """Static properties of one opcode."""

    mnemonic: str
    format: Format
    control: ControlKind
    #: Major opcode bits [31:26] in the binary encoding.
    major: int
    #: Function code (operate formats) or jump-type / PAL function.
    function: int = 0
    #: For memory format: True when ``ra`` is written (load) rather than
    #: read (store).
    is_load: bool = False
    commutative: bool = False
    #: Conditional moves also read their destination (the move may not
    #: happen, so the old value flows through).
    reads_rc: bool = False
    #: Mask of registers read implicitly (PAL calls).
    fixed_uses: int = 0


#: Register index ``a0`` (``r16``); OUTPUT reads it.
_A0 = 16

#: Register index ``v0`` (``r0``); HALT reads it (the exit status).
_V0 = 0


class Opcode(enum.Enum):
    """Every opcode in the Alpha-like ISA.

    The enum value is an :class:`OpcodeInfo` describing format, control
    behaviour and binary encoding.
    """

    # --- integer operate (major 0x10/0x11/0x12/0x13) -------------------
    ADDQ = OpcodeInfo("addq", Format.OPERATE, ControlKind.FALLTHROUGH, 0x10, 0x20, commutative=True)
    SUBQ = OpcodeInfo("subq", Format.OPERATE, ControlKind.FALLTHROUGH, 0x10, 0x29)
    CMPEQ = OpcodeInfo("cmpeq", Format.OPERATE, ControlKind.FALLTHROUGH, 0x10, 0x2D, commutative=True)
    CMPLT = OpcodeInfo("cmplt", Format.OPERATE, ControlKind.FALLTHROUGH, 0x10, 0x4D)
    CMPLE = OpcodeInfo("cmple", Format.OPERATE, ControlKind.FALLTHROUGH, 0x10, 0x6D)
    CMPULT = OpcodeInfo("cmpult", Format.OPERATE, ControlKind.FALLTHROUGH, 0x10, 0x1D)
    CMPULE = OpcodeInfo("cmpule", Format.OPERATE, ControlKind.FALLTHROUGH, 0x10, 0x3D)
    AND = OpcodeInfo("and", Format.OPERATE, ControlKind.FALLTHROUGH, 0x11, 0x00, commutative=True)
    BIC = OpcodeInfo("bic", Format.OPERATE, ControlKind.FALLTHROUGH, 0x11, 0x08)
    BIS = OpcodeInfo("bis", Format.OPERATE, ControlKind.FALLTHROUGH, 0x11, 0x20, commutative=True)
    ORNOT = OpcodeInfo("ornot", Format.OPERATE, ControlKind.FALLTHROUGH, 0x11, 0x28)
    XOR = OpcodeInfo("xor", Format.OPERATE, ControlKind.FALLTHROUGH, 0x11, 0x40, commutative=True)
    EQV = OpcodeInfo("eqv", Format.OPERATE, ControlKind.FALLTHROUGH, 0x11, 0x48, commutative=True)
    SLL = OpcodeInfo("sll", Format.OPERATE, ControlKind.FALLTHROUGH, 0x12, 0x39)
    SRL = OpcodeInfo("srl", Format.OPERATE, ControlKind.FALLTHROUGH, 0x12, 0x34)
    SRA = OpcodeInfo("sra", Format.OPERATE, ControlKind.FALLTHROUGH, 0x12, 0x3C)
    MULQ = OpcodeInfo("mulq", Format.OPERATE, ControlKind.FALLTHROUGH, 0x13, 0x20, commutative=True)
    CMOVEQ = OpcodeInfo("cmoveq", Format.OPERATE, ControlKind.FALLTHROUGH, 0x11, 0x24, reads_rc=True)
    CMOVNE = OpcodeInfo("cmovne", Format.OPERATE, ControlKind.FALLTHROUGH, 0x11, 0x26, reads_rc=True)

    # --- floating operate (major 0x16) ----------------------------------
    ADDT = OpcodeInfo("addt", Format.OPERATE_FP, ControlKind.FALLTHROUGH, 0x16, 0x0A0, commutative=True)
    SUBT = OpcodeInfo("subt", Format.OPERATE_FP, ControlKind.FALLTHROUGH, 0x16, 0x0A1)
    MULT = OpcodeInfo("mult", Format.OPERATE_FP, ControlKind.FALLTHROUGH, 0x16, 0x0A2, commutative=True)
    CPYS = OpcodeInfo("cpys", Format.OPERATE_FP, ControlKind.FALLTHROUGH, 0x17, 0x020)
    CMPTEQ = OpcodeInfo("cmpteq", Format.OPERATE_FP, ControlKind.FALLTHROUGH, 0x16, 0x0A5, commutative=True)
    CMPTLT = OpcodeInfo("cmptlt", Format.OPERATE_FP, ControlKind.FALLTHROUGH, 0x16, 0x0A6)

    # --- int <-> float transfers (operate-shaped) -----------------------
    ITOFT = OpcodeInfo("itoft", Format.OPERATE, ControlKind.FALLTHROUGH, 0x14, 0x024)
    FTOIT = OpcodeInfo("ftoit", Format.OPERATE_FP, ControlKind.FALLTHROUGH, 0x1C, 0x070)

    # --- memory (loads write ra, stores read ra) ------------------------
    LDA = OpcodeInfo("lda", Format.MEMORY, ControlKind.FALLTHROUGH, 0x08, is_load=True)
    LDAH = OpcodeInfo("ldah", Format.MEMORY, ControlKind.FALLTHROUGH, 0x09, is_load=True)
    LDQ = OpcodeInfo("ldq", Format.MEMORY, ControlKind.FALLTHROUGH, 0x29, is_load=True)
    STQ = OpcodeInfo("stq", Format.MEMORY, ControlKind.FALLTHROUGH, 0x2D)
    LDT = OpcodeInfo("ldt", Format.MEMORY_FP, ControlKind.FALLTHROUGH, 0x23, is_load=True)
    STT = OpcodeInfo("stt", Format.MEMORY_FP, ControlKind.FALLTHROUGH, 0x27)

    # --- branch ----------------------------------------------------------
    BR = OpcodeInfo("br", Format.BRANCH, ControlKind.UNCOND_BRANCH, 0x30)
    BSR = OpcodeInfo("bsr", Format.BRANCH, ControlKind.CALL_DIRECT, 0x34)
    BLBC = OpcodeInfo("blbc", Format.BRANCH, ControlKind.COND_BRANCH, 0x38)
    BEQ = OpcodeInfo("beq", Format.BRANCH, ControlKind.COND_BRANCH, 0x39)
    BLT = OpcodeInfo("blt", Format.BRANCH, ControlKind.COND_BRANCH, 0x3A)
    BLE = OpcodeInfo("ble", Format.BRANCH, ControlKind.COND_BRANCH, 0x3B)
    BLBS = OpcodeInfo("blbs", Format.BRANCH, ControlKind.COND_BRANCH, 0x3C)
    BNE = OpcodeInfo("bne", Format.BRANCH, ControlKind.COND_BRANCH, 0x3D)
    BGE = OpcodeInfo("bge", Format.BRANCH, ControlKind.COND_BRANCH, 0x3E)
    BGT = OpcodeInfo("bgt", Format.BRANCH, ControlKind.COND_BRANCH, 0x3F)
    FBEQ = OpcodeInfo("fbeq", Format.BRANCH_FP, ControlKind.COND_BRANCH, 0x31)
    FBNE = OpcodeInfo("fbne", Format.BRANCH_FP, ControlKind.COND_BRANCH, 0x35)

    # --- register-indirect control flow (major 0x1A) --------------------
    JMP = OpcodeInfo("jmp", Format.JUMP, ControlKind.INDIRECT_JUMP, 0x1A, 0)
    JSR = OpcodeInfo("jsr", Format.JUMP, ControlKind.CALL_INDIRECT, 0x1A, 1)
    RET = OpcodeInfo("ret", Format.JUMP, ControlKind.RETURN, 0x1A, 2)

    # --- PAL calls --------------------------------------------------------
    HALT = OpcodeInfo("halt", Format.PAL, ControlKind.HALT, 0x00, 0x0000, fixed_uses=1 << _V0)
    OUTPUT = OpcodeInfo("output", Format.PAL, ControlKind.FALLTHROUGH, 0x00, 0x0080, fixed_uses=1 << _A0)

    def __init__(self, info: OpcodeInfo) -> None:
        # Plain attributes, not properties over ``self.value``: the enum
        # value descriptor is slow enough to show in every hot loop that
        # asks an instruction how it transfers control.
        self.info = info
        self.mnemonic = info.mnemonic
        self.format = info.format
        self.control = info.control
        # The dataflow rule ``(use ra, use rb, use rc, def ra, def rc,
        # fixed uses)``: each selector is all-ones or zero, to be AND-ed
        # with its operand's ``REGISTER_BIT``.  BR and BSR write the
        # return address into ra; every jump writes its link register.
        operate = info.format in (Format.OPERATE, Format.OPERATE_FP)
        memory = info.format in (Format.MEMORY, Format.MEMORY_FP)
        jump = info.format == Format.JUMP
        links = info.control in (
            ControlKind.UNCOND_BRANCH, ControlKind.CALL_DIRECT
        )
        selectors = (
            operate
            or (memory and not info.is_load)
            or info.control == ControlKind.COND_BRANCH,
            operate or memory or jump,
            info.reads_rc,
            (memory and info.is_load) or jump or links,
            operate,
        )
        self.rule = tuple(-int(s) for s in selectors) + (info.fixed_uses,)


#: Mnemonic -> opcode lookup for the assembler.
MNEMONIC_TO_OPCODE: Dict[str, Opcode] = {op.mnemonic: op for op in Opcode}


#: Register index -> its bit in a use/def mask.  The hardwired zero
#: registers map to 0: reading them is no dataflow dependence and the
#: hardware discards writes to them, so they vanish from every mask.
REGISTER_BIT: Tuple[int, ...] = tuple(
    0 if index in (ZERO_REGISTER, FLOAT_ZERO_REGISTER) else 1 << index
    for index in range(NUM_REGISTERS)
)


#: The fields of an instruction *row*, in row order: a plain tuple of
#: the control kind, the use and def masks (the opcode's :attr:`Opcode.
#: rule` applied to the operands; the three the front end's hottest
#: loops read first), the displacement, the opcode and its operands —
#: registers as unified indices, ``literal`` ``None`` unless an integer
#: operate has one in place of ``rb``.  The disassembler decodes to rows
#: (:func:`repro.isa.encoding.decode_row`), and rows are the one
#: decoded form every reader of a program reads — the analysis, the
#: optimizer, the simulator and the listings (:func:`render_row`).
ROW_FIELDS = (
    "control", "use_mask", "def_mask", "displacement",
    "opcode", "ra", "rb", "rc", "literal",
)


def render_row(row: tuple) -> str:
    """Format a decoded row in assembly syntax."""
    _control, _uses, _defs, displacement, op, ra, rb, rc, literal = row
    fmt = op.format
    if fmt in (Format.OPERATE, Format.OPERATE_FP):
        second = f"#{literal}" if literal is not None else str(Register(rb))
        return f"{op.mnemonic} {Register(ra)}, {second}, {Register(rc)}"
    if fmt in (Format.MEMORY, Format.MEMORY_FP):
        return f"{op.mnemonic} {Register(ra)}, {displacement}({Register(rb)})"
    if fmt in (Format.BRANCH, Format.BRANCH_FP):
        return f"{op.mnemonic} {Register(ra)}, {displacement:+d}"
    if fmt == Format.JUMP:
        return f"{op.mnemonic} {Register(ra)}, ({Register(rb)})"
    return op.mnemonic
