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

Decoding cuts a word into its *row* (:func:`decode_row`, the tuple of
:data:`~repro.isa.instructions.ROW_FIELDS`): code decodes to rows
(:func:`decode_rows`), the one decoded form of a program that the
analysis, the optimizer, the simulator and the listings read.
:func:`decode_instruction` turns one word back into the
:class:`Instruction` value the encoder reads.
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from repro.isa.instructions import (
    REGISTER_BIT,
    Format,
    Instruction,
    Opcode,
    row_instruction,
)
from repro.isa.registers import NUM_INTEGER_REGISTERS, ZERO_REGISTER
from repro.obs.metrics import REGISTRY

#: Size of one encoded instruction, in bytes.
INSTRUCTION_SIZE = 4

#: The array type code of a native unsigned 32-bit integer.
_WORD_TYPE = next(
    code for code in "IL" if array(code).itemsize == INSTRUCTION_SIZE
)


class EncodingError(ValueError):
    """Raised when an instruction cannot be encoded or decoded."""

    #: Byte offset of the offending word within the code handed to
    #: :func:`decode_rows` (``None`` for every other failure).
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
    if not file <= index <= file + 0x1F:
        kind = "a floating" if file == _FP else "an integer"
        raise EncodingError(
            f"{opcode.mnemonic}: expected {kind} register, got index {index}"
        )
    return index - file


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
    cut}, unknown-function message)``, ``None`` for an unassigned major.
    A cut is everything :func:`decode_row` needs for one opcode: the
    opcode, its control kind and dataflow rule (``Opcode.rule``), then
    per register field its mask and what to add (the file offset, or
    ``ZERO_REGISTER`` under a zero mask), then the literal flag and the
    displacement mask and sign bit."""
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
        entry[2][function] = (
            op, op.control, *op.rule, *operands, literal, disp_mask, disp_sign
        )
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


def decode_row(word: int) -> tuple:
    """Decode a 32-bit word into its row: the tuple of
    :data:`~repro.isa.instructions.ROW_FIELDS`, the masks being the
    opcode's rule applied to the operands (as ``Instruction`` derives
    them).  The one decoder: :func:`decode_rows` and
    :func:`decode_instruction` both cut words here."""
    if not 0 <= word < 1 << 32:
        raise EncodingError(f"word {word:#x} is not a 32-bit value")
    entry = _MAJORS[word >> 26]
    if entry is None:
        raise EncodingError(f"unknown major opcode {word >> 26:#x}")
    shift, mask, cuts, unknown = entry
    cut = cuts.get(word >> shift & mask)
    if cut is None:
        raise EncodingError(
            unknown.format(major=word >> 26, function=word >> shift & mask)
        )
    (
        opcode, control, use_a, use_b, use_c, def_a, def_c, fixed,
        mask_a, add_a, mask_b, add_b, mask_c, add_c,
        literal_flag, disp_mask, disp_sign,
    ) = cut
    ra = (word >> 21 & mask_a) + add_a
    rc = (word & mask_c) + add_c
    if word & literal_flag:
        literal: Optional[int] = word >> 13 & 0xFF
        rb = ZERO_REGISTER
        bit_b = 0
    else:
        literal = None
        rb = (word >> 16 & mask_b) + add_b
        bit_b = REGISTER_BIT[rb]
    bit_a = REGISTER_BIT[ra]
    bit_c = REGISTER_BIT[rc]
    displacement = word & disp_mask
    return (
        control,
        bit_a & use_a | bit_b & use_b | bit_c & use_c | fixed,
        bit_a & def_a | bit_c & def_c,
        displacement - ((displacement & disp_sign) << 1),
        opcode, ra, rb, rc, literal,
    )


def replace_fields(
    word: int,
    *,
    ra: Optional[int] = None,
    rb: Optional[int] = None,
    rc: Optional[int] = None,
    displacement: Optional[int] = None,
) -> int:
    """``word`` with the given operand fields replaced — the word
    ``encode_instruction(dataclasses.replace(decode_instruction(word),
    ...))`` gives, under the same register-file and range checks, with
    no object built.  The one way code words are edited (the rewriter's
    relinking, the optimizer's renames, the benchmark's mutations).  A
    field the word's format does not encode — or ``rb`` of a literal
    operate — is ignored, as the encoder ignores it."""
    opcode = decode_row(word)[4]
    files = FIELD_FILES[opcode]
    _shift, _mask, mask_a, mask_b, mask_c, literal, disp_mask, _sign, _msg = (
        _FORMAT_CUTS[opcode.format]
    )
    for value, shift, mask, file in (
        (ra, 21, mask_a, files[0]),
        (rb, 16, 0 if word & literal else mask_b, files[1]),
        (rc, 0, mask_c, files[2]),
    ):
        if value is not None and mask:
            word = word & ~(mask << shift) | _to_field(value, file, opcode) << shift
    if displacement is not None and disp_mask:
        what = "memory" if disp_mask == 0xFFFF else "branch"
        word = word & ~disp_mask | _unsigned(
            displacement, disp_mask.bit_length(), f"{what} displacement"
        )
    return word


def decode_instruction(word: int) -> Instruction:
    """Decode a 32-bit word back into an :class:`Instruction`."""
    return row_instruction(decode_row(word))


# ----------------------------------------------------------------------
# Bulk helpers
# ----------------------------------------------------------------------

def encode_stream(instructions: Iterable[Instruction]) -> bytes:
    """Encode a sequence of instructions into contiguous code bytes."""
    return words_code(map(encode_instruction, instructions))


class _RowTable(dict):
    """Word -> its row, decoded on the word's first lookup."""

    def __missing__(self, word: int) -> tuple:
        row = self[word] = decode_row(word)
        return row


def decode_rows(code: bytes) -> Tuple[tuple, ...]:
    """Decode contiguous code bytes into one row per word.

    Each *distinct* word is decoded once, where it first occurs, and its
    row shared by every later occurrence — compiled code repeats itself,
    so an image has an order of magnitude fewer distinct words than
    words (counters ``program.decode.words`` / ``.distinct``).  Words
    are decoded in stream order, so code with an undecodable word fails
    on the first such word, whose byte offset the error carries.
    """
    words = code_words(code)
    table = _RowTable()
    try:
        rows = tuple(map(table.__getitem__, words))
    except EncodingError as error:
        # Every word before the bad one is in the table already.
        bad = next(index for index, word in enumerate(words) if word not in table)
        error.offset = bad * INSTRUCTION_SIZE
        raise
    REGISTRY.inc("program.decode.words", len(words))
    REGISTRY.inc("program.decode.distinct", len(table))
    return rows


def code_words(code: bytes) -> array:
    """``code``'s words, in order.

    An array, not ``struct.unpack``: it keeps the words as machine
    integers, where a tuple holds an int object per word (1.2 MB on the
    gcc shape x0.1) for as long as a decode runs."""
    if len(code) % INSTRUCTION_SIZE:
        raise EncodingError(
            f"code length {len(code)} is not a multiple of {INSTRUCTION_SIZE}"
        )
    words = array(_WORD_TYPE, code)
    if sys.byteorder == "big":
        words.byteswap()
    return words


def words_code(words: Iterable[int]) -> bytes:
    """The code bytes of ``words``: the inverse of :func:`code_words`."""
    code = array(_WORD_TYPE, words)
    if sys.byteorder == "big":
        code.byteswap()
    return code.tobytes()
