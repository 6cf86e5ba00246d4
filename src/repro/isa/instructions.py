"""Instruction semantics for the Alpha-like ISA.

Spike works on fully linked machine code, so the unit of analysis is the
machine instruction.  For interprocedural register dataflow the analysis
needs exactly three things from each instruction:

* the registers it **reads** (uses),
* the registers it **writes** (defs),
* how it transfers control (fall-through, conditional branch,
  unconditional branch, indirect jump, call, return, or halt).

This module defines the opcode table shared with the binary encoder
(:mod:`repro.isa.encoding`), the assembler and the disassembler; the
*row* (:data:`ROW_FIELDS`), the one decoded form every reader of a
program reads; and :class:`Instruction`, the value type the assembler
builds and the encoder reads.

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
from typing import Dict, FrozenSet, Optional, Tuple

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

#: Mask -> the register indices in it (:meth:`Instruction.uses` /
#: :meth:`Instruction.defs`); the ISA bounds the distinct masks.
_MASK_MEMBERS: Dict[int, FrozenSet[int]] = {}


def _members(mask: int) -> FrozenSet[int]:
    members = _MASK_MEMBERS.get(mask)
    if members is None:
        members = _MASK_MEMBERS[mask] = frozenset(
            index for index in range(NUM_REGISTERS) if mask >> index & 1
        )
    return members


_set = object.__setattr__


@dataclass(frozen=True)
class Instruction:
    """One decoded machine instruction.

    Register operands are stored as indices into the unified 64-register
    file (``0..31`` integer, ``32..63`` float).  Which fields are
    meaningful depends on the opcode's format:

    * operate:  ``ra`` (source 1), ``rb`` or ``literal`` (source 2),
      ``rc`` (destination);
    * memory:   ``ra`` (data register), ``rb`` (base), ``displacement``;
    * branch:   ``ra`` (condition / link register), ``displacement``
      counted in *instructions* relative to the following instruction;
    * jump:     ``ra`` (link register), ``rb`` (target address register);
    * pal:      no register operands (OUTPUT implicitly reads ``a0``).

    Derived once at construction and carried as plain attributes:
    ``control`` (the opcode's :class:`ControlKind`) and ``use_mask`` /
    ``def_mask`` (:meth:`uses` / :meth:`defs` as register bit masks).
    """

    opcode: Opcode
    ra: int = ZERO_REGISTER
    rb: int = ZERO_REGISTER
    rc: int = ZERO_REGISTER
    literal: Optional[int] = None
    displacement: int = 0

    def __post_init__(self) -> None:
        for field_name in ("ra", "rb", "rc"):
            index = getattr(self, field_name)
            if not 0 <= index < NUM_REGISTERS:
                raise ValueError(
                    f"{self.opcode.mnemonic}: register field {field_name}={index} "
                    f"out of range [0, {NUM_REGISTERS})"
                )
        if self.literal is not None:
            if self.opcode.format not in (Format.OPERATE, Format.OPERATE_FP):
                raise ValueError(
                    f"{self.opcode.mnemonic}: literal operand only valid in "
                    f"operate format"
                )
            if not 0 <= self.literal < 256:
                raise ValueError(
                    f"{self.opcode.mnemonic}: literal {self.literal} out of "
                    f"range [0, 256)"
                )
        self._derive()

    def _derive(self) -> None:
        # What a row carries first — the control kind and the use and
        # def masks — derived once here from the opcode's dataflow rule,
        # as ``encoding.decode_row`` derives them.  None of these is a
        # dataclass field, so equality and hash are unaffected.
        opcode = self.opcode
        use_a, use_b, use_c, def_a, def_c, fixed = opcode.rule
        bit_a = REGISTER_BIT[self.ra]
        bit_b = REGISTER_BIT[self.rb] if self.literal is None else 0
        bit_c = REGISTER_BIT[self.rc]
        _set(self, "control", opcode.control)
        _set(
            self,
            "use_mask",
            bit_a & use_a | bit_b & use_b | bit_c & use_c | fixed,
        )
        _set(self, "def_mask", bit_a & def_a | bit_c & def_c)

    # ------------------------------------------------------------------
    # Register dataflow
    # ------------------------------------------------------------------

    def uses(self) -> FrozenSet[int]:
        """Indices of registers read by this instruction.

        Reads of the hardwired zero registers are *not* reported: they
        never constitute a dataflow dependence.
        """
        return _members(self.use_mask)  # type: ignore[attr-defined]

    def defs(self) -> FrozenSet[int]:
        """Indices of registers written by this instruction.

        Writes to the hardwired zero registers are discarded by the
        hardware and therefore not reported.
        """
        return _members(self.def_mask)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def render(self) -> str:
        """Format the instruction in assembly syntax."""
        return render_row(tuple(getattr(self, name) for name in ROW_FIELDS))

    def __str__(self) -> str:
        return self.render()


#: The fields of an instruction *row*, in row order: a plain tuple of
#: everything an :class:`Instruction` carries, the three the front
#: end's hottest loops read first.  The disassembler decodes to rows
#: (:func:`repro.isa.encoding.decode_row`), and rows are the one
#: decoded form every reader of a program reads — the analysis, the
#: optimizer, the simulator and the listings (:func:`render_row`).
ROW_FIELDS = (
    "control", "use_mask", "def_mask", "displacement",
    "opcode", "ra", "rb", "rc", "literal",
)


def row_instruction(row: tuple) -> Instruction:
    """The :class:`Instruction` a decoded row describes, built without
    the constructor's checks.

    For :mod:`repro.isa.encoding` only: a row's operands are bit-field
    cuts of a machine word (5 bits plus a register-file offset; an
    8-bit literal, and only from an integer operate word) and its masks
    the opcode's rule applied to them, so every check holds by
    construction.  Attributes are set in the constructor's order, which
    keeps CPython's shared-key instance layout.
    """
    control, use_mask, def_mask, displacement, opcode, ra, rb, rc, literal = row
    instruction = object.__new__(Instruction)
    _set(instruction, "opcode", opcode)
    _set(instruction, "ra", ra)
    _set(instruction, "rb", rb)
    _set(instruction, "rc", rc)
    _set(instruction, "literal", literal)
    _set(instruction, "displacement", displacement)
    _set(instruction, "control", control)
    _set(instruction, "use_mask", use_mask)
    _set(instruction, "def_mask", def_mask)
    return instruction


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
