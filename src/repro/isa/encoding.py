"""Binary encoding and decoding of instructions.

Instructions are encoded as 32-bit little-endian words using the Alpha
AXP instruction formats:

* **operate** (integer): ``major[31:26] ra[25:21] rb[20:16] 000 0
  func[11:5] rc[4:0]``; with an 8-bit literal the layout is
  ``major ra lit[20:13] 1 func[11:5] rc``;
* **operate** (floating-point): ``major[31:26] fa[25:21] fb[20:16]
  func[15:5] fc[4:0]`` — an 11-bit function field, no literal form;
* **memory**: ``major[31:26] ra[25:21] rb[20:16] disp[15:0]`` with a
  signed 16-bit byte displacement;
* **branch**: ``major[31:26] ra[25:21] disp[20:0]`` with a signed 21-bit
  displacement counted in instruction words;
* **jump**: ``0x1A ra[25:21] rb[20:16] type[15:14] hint[13:0]``;
* **pal**: ``0x00 func[25:0]``.

Register fields store the 5-bit number within the integer or floating
register file; whether a field refers to the integer or the floating file
is a static property of the opcode (see :data:`FIELD_FILES`).
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional, Tuple

from repro.isa.instructions import (
    Format,
    Instruction,
    Opcode,
    decoded_instruction,
)
from repro.isa.registers import NUM_INTEGER_REGISTERS, ZERO_REGISTER
from repro.obs.metrics import REGISTRY

#: Size of one encoded instruction, in bytes.
INSTRUCTION_SIZE = 4

_WORD = struct.Struct("<I")


class EncodingError(ValueError):
    """Raised when an instruction cannot be encoded or decoded."""

    #: Byte offset of the offending word within the code handed to
    #: :func:`decode_stream` (``None`` for every other failure).
    offset: Optional[int] = None


# ----------------------------------------------------------------------
# Which register file does each field of each opcode use?
# ----------------------------------------------------------------------

_INT = 0
_FP = NUM_INTEGER_REGISTERS


def _field_files(opcode: Opcode) -> Tuple[int, int, int]:
    """Files (integer/float) for the (ra, rb, rc) fields of ``opcode``."""
    if opcode is Opcode.ITOFT:
        return (_INT, _INT, _FP)
    if opcode is Opcode.FTOIT:
        return (_FP, _FP, _INT)
    fmt = opcode.format
    if fmt == Format.OPERATE_FP:
        return (_FP, _FP, _FP)
    if fmt == Format.MEMORY_FP:
        return (_FP, _INT, _INT)
    if fmt == Format.BRANCH_FP:
        return (_FP, _INT, _INT)
    return (_INT, _INT, _INT)


#: Per-opcode (ra, rb, rc) register-file assignment: the offset of each
#: field's file in the unified register numbering.
FIELD_FILES: Dict[Opcode, Tuple[int, int, int]] = {
    op: _field_files(op) for op in Opcode
}


def _to_field(index: int, file: int, opcode: Opcode) -> int:
    """Unified register index -> 5-bit field value."""
    if file == _FP:
        if index < NUM_INTEGER_REGISTERS:
            raise EncodingError(
                f"{opcode.mnemonic}: expected a floating register, got index {index}"
            )
        return index - NUM_INTEGER_REGISTERS
    if index >= NUM_INTEGER_REGISTERS:
        raise EncodingError(
            f"{opcode.mnemonic}: expected an integer register, got index {index}"
        )
    return index


# ----------------------------------------------------------------------
# Decode tables
# ----------------------------------------------------------------------

#: How each format cuts a word: ``(function shift, function mask, ra
#: mask, rb mask, rc mask, literal flag, displacement mask, displacement
#: sign bit, unknown-function message)``.  A register field sits at bit
#: 21 / 16 / 0; a zero mask means the format has no such field (the
#: operand is then ``ZERO_REGISTER``, as in the constructor).  Formats
#: without a function field key their one opcode under function 0.
_FORMAT_CUTS = {
    Format.OPERATE: (5, 0x7F, 0x1F, 0x1F, 0x1F, 1 << 12, 0, 0,
                     "unknown operate major={major:#x} function={function:#x}"),
    Format.OPERATE_FP: (5, 0x7FF, 0x1F, 0x1F, 0x1F, 0, 0, 0,
                        "unknown FP operate major={major:#x} function={function:#x}"),
    Format.MEMORY: (0, 0, 0x1F, 0x1F, 0, 0, 0xFFFF, 1 << 15, ""),
    Format.BRANCH: (0, 0, 0x1F, 0, 0, 0, 0x1F_FFFF, 1 << 20, ""),
    Format.JUMP: (14, 0x3, 0x1F, 0x1F, 0, 0, 0, 0, "unknown jump type {function}"),
    Format.PAL: (0, 0x03FF_FFFF, 0, 0, 0, 0, 0, 0, "unknown PAL function {function:#x}"),
}
_FORMAT_CUTS[Format.MEMORY_FP] = _FORMAT_CUTS[Format.MEMORY]
_FORMAT_CUTS[Format.BRANCH_FP] = _FORMAT_CUTS[Format.BRANCH]


def _build_major_table() -> List[Optional[tuple]]:
    """Major opcode -> ``(function shift, function mask, {function:
    row}, unknown-function message)``, ``None`` for an unassigned major.
    A row is everything :func:`decode_instruction` needs to cut the
    operands: the opcode, then per register field its mask and what to
    add (the file offset, or ``ZERO_REGISTER`` under a zero mask), then
    the literal flag and the displacement mask and sign bit."""
    table: List[Optional[tuple]] = [None] * 64
    for op in Opcode:
        shift, mask, *fields, literal, disp_mask, disp_sign, unknown = (
            _FORMAT_CUTS[op.format]
        )
        entry = table[op.info.major]
        if entry is None:
            entry = table[op.info.major] = (shift, mask, {}, unknown)
        function = op.info.function & mask
        if entry[:2] != (shift, mask) or function in entry[2]:
            raise AssertionError(f"{op.mnemonic}: major/function collides")
        operands: List[int] = []
        for field_mask, file in zip(fields, FIELD_FILES[op]):
            operands += (field_mask, file if field_mask else ZERO_REGISTER)
        entry[2][function] = (op, *operands, literal, disp_mask, disp_sign)
    return table


_MAJORS = _build_major_table()


def _unsigned(value: int, bits: int, what: str) -> int:
    low = -(1 << (bits - 1))
    high = (1 << (bits - 1)) - 1
    if not low <= value <= high:
        raise EncodingError(f"{what} {value} out of signed {bits}-bit range")
    return value & ((1 << bits) - 1)


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

def encode_instruction(instruction: Instruction) -> int:
    """Encode ``instruction`` into its 32-bit word."""
    op = instruction.opcode
    info = op.info
    files = FIELD_FILES[op]
    fmt = op.format
    word = info.major << 26

    if fmt == Format.OPERATE:
        ra = _to_field(instruction.ra, files[0], op)
        rc = _to_field(instruction.rc, files[2], op)
        if instruction.literal is not None:
            word |= ra << 21
            word |= (instruction.literal & 0xFF) << 13
            word |= 1 << 12
        else:
            rb = _to_field(instruction.rb, files[1], op)
            word |= ra << 21
            word |= rb << 16
        word |= (info.function & 0x7F) << 5
        word |= rc
        return word

    if fmt == Format.OPERATE_FP:
        if instruction.literal is not None:
            raise EncodingError(f"{op.mnemonic}: no literal form")
        ra = _to_field(instruction.ra, files[0], op)
        rb = _to_field(instruction.rb, files[1], op)
        rc = _to_field(instruction.rc, files[2], op)
        word |= ra << 21
        word |= rb << 16
        word |= (info.function & 0x7FF) << 5
        word |= rc
        return word

    if fmt in (Format.MEMORY, Format.MEMORY_FP):
        ra = _to_field(instruction.ra, files[0], op)
        rb = _to_field(instruction.rb, files[1], op)
        word |= ra << 21
        word |= rb << 16
        word |= _unsigned(instruction.displacement, 16, "memory displacement")
        return word

    if fmt in (Format.BRANCH, Format.BRANCH_FP):
        ra = _to_field(instruction.ra, files[0], op)
        word |= ra << 21
        word |= _unsigned(instruction.displacement, 21, "branch displacement")
        return word

    if fmt == Format.JUMP:
        ra = _to_field(instruction.ra, files[0], op)
        rb = _to_field(instruction.rb, files[1], op)
        word |= ra << 21
        word |= rb << 16
        word |= (info.function & 0x3) << 14
        return word

    # PAL
    word |= info.function & 0x03FF_FFFF
    return word


def decode_instruction(word: int) -> Instruction:
    """Decode a 32-bit word back into an :class:`Instruction`."""
    if not 0 <= word < 1 << 32:
        raise EncodingError(f"word {word:#x} is not a 32-bit value")
    entry = _MAJORS[word >> 26]
    if entry is None:
        raise EncodingError(f"unknown major opcode {word >> 26:#x}")
    shift, mask, rows, unknown = entry
    row = rows.get(word >> shift & mask)
    if row is None:
        raise EncodingError(
            unknown.format(major=word >> 26, function=word >> shift & mask)
        )
    (
        opcode, mask_a, add_a, mask_b, add_b, mask_c, add_c,
        literal_flag, disp_mask, disp_sign,
    ) = row
    displacement = word & disp_mask
    if word & literal_flag:
        literal: Optional[int] = word >> 13 & 0xFF
        rb = ZERO_REGISTER
    else:
        literal = None
        rb = (word >> 16 & mask_b) + add_b
    return decoded_instruction(
        opcode,
        (word >> 21 & mask_a) + add_a,
        rb,
        (word & mask_c) + add_c,
        literal,
        displacement - ((displacement & disp_sign) << 1),
    )


# ----------------------------------------------------------------------
# Bulk helpers
# ----------------------------------------------------------------------

def encode_stream(instructions: Iterable[Instruction]) -> bytes:
    """Encode a sequence of instructions into contiguous code bytes."""
    return b"".join(_WORD.pack(encode_instruction(i)) for i in instructions)


def decode_stream(code: bytes) -> List[Instruction]:
    """Decode contiguous code bytes back into instructions.

    Each *distinct* word is decoded once and the (immutable)
    :class:`Instruction` shared by all of its occurrences — compiled
    code repeats itself, so an image has an order of magnitude fewer
    distinct words than words.  A stream with an undecodable word fails
    on the first such word, whose byte offset the error carries.
    """
    if len(code) % INSTRUCTION_SIZE:
        raise EncodingError(
            f"code length {len(code)} is not a multiple of {INSTRUCTION_SIZE}"
        )
    words = struct.unpack(f"<{len(code) // INSTRUCTION_SIZE}I", code)
    # dict.fromkeys keeps first-occurrence order, so the first distinct
    # word that fails is the first bad word of the stream.
    decoded: Dict[int, Instruction] = dict.fromkeys(words)
    try:
        for word in decoded:
            decoded[word] = decode_instruction(word)
    except EncodingError as error:
        error.offset = words.index(word) * INSTRUCTION_SIZE
        raise
    REGISTRY.inc("program.decode.words", len(words))
    REGISTRY.inc("program.decode.distinct", len(decoded))
    return list(map(decoded.__getitem__, words))
