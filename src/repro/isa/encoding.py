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

Words are the one encoded form of an instruction, and one table
(``_FORMAT_CUTS``) says where each format keeps each field: :func:`encode`
writes a word from an opcode and its operands (the assembler's only way
to make one), :func:`replace_fields` edits a word's operand fields, and
:func:`decode_row` cuts a word into its *row* (the tuple of
:data:`~repro.isa.instructions.ROW_FIELDS`).  Code decodes to rows
(:func:`decode_rows`), the one decoded form of a program that the
analysis, the optimizer, the simulator and the listings read.
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from repro.isa.instructions import REGISTER_BIT, Format, Opcode
from repro.isa.registers import NUM_INTEGER_REGISTERS, NUM_REGISTERS, ZERO_REGISTER
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
# The field table
# ----------------------------------------------------------------------

#: Every format keeps its major opcode in bits 31:26.
_MAJOR_SHIFT = 26

_NONE = (0, 0)
_RA, _RB, _RC = (21, 0x1F), (16, 0x1F), (0, 0x1F)

#: Where each format keeps each field of a word — the one statement of
#: the layout, read by :func:`encode`, :func:`decode_row` and
#: :func:`replace_fields`: a ``(shift, mask)`` pair for each of the
#: function, ``ra``, ``rb``, ``rc``, literal and displacement fields
#: (a zero mask: the format has no such field, and a register operand
#: it lacks decodes as ``ZERO_REGISTER``), then the bit that selects
#: the literal form (zero: the format has none) and the message for a
#: function no opcode has.  Formats without a function field key their
#: one opcode under function 0.
_FORMAT_CUTS = {
    Format.OPERATE: ((5, 0x7F), _RA, _RB, _RC, (13, 0xFF), _NONE, 1 << 12,
                     "unknown operate major={major:#x} function={function:#x}"),
    Format.OPERATE_FP: ((5, 0x7FF), _RA, _RB, _RC, _NONE, _NONE, 0,
                        "unknown FP operate major={major:#x} function={function:#x}"),
    Format.MEMORY: (_NONE, _RA, _RB, _NONE, _NONE, (0, 0xFFFF), 0, ""),
    Format.BRANCH: (_NONE, _RA, _NONE, _NONE, _NONE, (0, 0x1F_FFFF), 0, ""),
    Format.JUMP: ((14, 0x3), _RA, _RB, _NONE, _NONE, _NONE, 0,
                  "unknown jump type {function}"),
    Format.PAL: ((0, 0x03FF_FFFF), _NONE, _NONE, _NONE, _NONE, _NONE, 0,
                 "unknown PAL function {function:#x}"),
}
_FORMAT_CUTS[Format.MEMORY_FP] = _FORMAT_CUTS[Format.MEMORY]
_FORMAT_CUTS[Format.BRANCH_FP] = _FORMAT_CUTS[Format.BRANCH]


def _build_major_tables() -> Tuple[List[Optional[tuple]], List[tuple]]:
    """Two tables by major opcode.

    The first: ``(function shift, function mask, {function: cut},
    unknown-function message)``, ``None`` for an unassigned major.  A
    cut is everything :func:`decode_row` needs for one opcode: the
    opcode, its control kind and dataflow rule (``Opcode.rule``), then
    per register field its shift, its mask and what to add (the file
    offset, or ``ZERO_REGISTER`` under a zero mask), then the literal
    flag, the literal's shift and mask, and the displacement's shift,
    mask and sign bit.  The second, the form table (:class:`_RowTable`):
    ``(flag, keep, shift, sign bit, row slot)`` of the field whose value
    changes nothing else in a row — a displacement, or a literal when
    the word has ``flag`` — ``keep`` masking every other bit."""
    table: List[Optional[tuple]] = [None] * 64
    forms: List[tuple] = [(0, 0xFFFF_FFFF, 0, 0, 0)] * 64
    for op in Opcode:
        (shift, mask), *fields, literal, displacement, flag, unknown = (
            _FORMAT_CUTS[op.format]
        )
        entry = table[op.info.major]
        if entry is None:
            entry = table[op.info.major] = (shift, mask, {}, unknown)
        function = op.info.function & mask
        if entry[:2] != (shift, mask) or function in entry[2]:
            raise AssertionError(f"{op.mnemonic}: major/function collides")
        operands: List[int] = []
        for (field_shift, field_mask), file in zip(fields, FIELD_FILES[op]):
            operands += (
                field_shift, field_mask, file if field_mask else ZERO_REGISTER
            )
        disp_shift, disp_mask = displacement
        sign = (disp_mask + 1) >> 1
        entry[2][function] = (
            op, op.control, *op.rule, *operands, flag, *literal,
            disp_shift, disp_mask, sign,
        )
        vary_shift, vary_mask = literal if flag else displacement
        forms[op.info.major] = (
            flag, 0xFFFF_FFFF ^ vary_mask << vary_shift, vary_shift,
            *((0, 8) if flag else (sign, 3)),
        )
    return table, forms


_MAJORS, _FORMS = _build_major_tables()


def _unsigned(value: int, bits: int, what: str) -> int:
    low = -(1 << (bits - 1))
    high = (1 << (bits - 1)) - 1
    if not low <= value <= high:
        raise EncodingError(f"{what} {value} out of signed {bits}-bit range")
    return value & ((1 << bits) - 1)


# ----------------------------------------------------------------------
# Encoding, decoding and editing words
# ----------------------------------------------------------------------

def encode(
    opcode: Opcode,
    *,
    ra: int = ZERO_REGISTER,
    rb: int = ZERO_REGISTER,
    rc: int = ZERO_REGISTER,
    literal: Optional[int] = None,
    displacement: int = 0,
) -> int:
    """The 32-bit word of ``opcode`` with the given operands.

    Register operands are unified indices (``0..31`` integer, ``32..63``
    float); a literal (``0..255``) replaces ``rb`` of an integer
    operate; a displacement is a signed byte offset (memory) or a
    signed instruction count from the next instruction (branch).  An
    operand the format does not encode is ignored once it is a register
    index.  Raises :class:`EncodingError` (a ``ValueError``) for a
    register index outside ``0..63`` or in the wrong file for its
    field, a literal outside ``0..255`` or on an opcode without a
    literal form, and a displacement out of its field's range."""
    name = opcode.mnemonic
    for field, index in (("ra", ra), ("rb", rb), ("rc", rc)):
        if not 0 <= index < NUM_REGISTERS:
            raise EncodingError(
                f"{name}: register field {field}={index} out of range "
                f"[0, {NUM_REGISTERS})"
            )
    (shift, mask), *_fields, (literal_shift, _mask), _displacement, flag, _msg = (
        _FORMAT_CUTS[opcode.format]
    )
    word = opcode.info.major << _MAJOR_SHIFT | (opcode.info.function & mask) << shift
    if literal is not None:
        if opcode.format not in (Format.OPERATE, Format.OPERATE_FP):
            raise EncodingError(
                f"{name}: literal operand only valid in operate format"
            )
        if not 0 <= literal < 256:
            raise EncodingError(f"{name}: literal {literal} out of range [0, 256)")
        if not flag:
            raise EncodingError(f"{name}: no literal form")
        word |= flag | literal << literal_shift
    return _put_fields(word, opcode, ra, rb, rc, displacement)


def _put_fields(
    word: int,
    opcode: Opcode,
    ra: Optional[int],
    rb: Optional[int],
    rc: Optional[int],
    displacement: Optional[int],
) -> int:
    """``word`` (of ``opcode``) with each operand that is not ``None``
    written into its field, under the register-file and range checks.
    A field the format lacks — or ``rb`` of a literal operate — is
    left alone."""
    _function, field_a, field_b, field_c, _literal, field_d, flag, _msg = (
        _FORMAT_CUTS[opcode.format]
    )
    if word & flag:
        field_b = _NONE
    for value, (shift, mask), file in zip(
        (ra, rb, rc), (field_a, field_b, field_c), FIELD_FILES[opcode]
    ):
        if value is not None and mask:
            word = word & ~(mask << shift) | _to_field(value, file, opcode) << shift
    shift, mask = field_d
    if displacement is not None and mask:
        what = "memory" if mask == 0xFFFF else "branch"
        word = word & ~(mask << shift) | _unsigned(
            displacement, mask.bit_length(), f"{what} displacement"
        ) << shift
    return word


def decode_row(word: int) -> tuple:
    """Decode a 32-bit word into its row: the tuple of
    :data:`~repro.isa.instructions.ROW_FIELDS`, the masks being the
    opcode's rule applied to the operands.  The one decoder:
    :func:`decode_rows` cuts every word here."""
    if not 0 <= word < 1 << 32:
        raise EncodingError(f"word {word:#x} is not a 32-bit value")
    major = word >> _MAJOR_SHIFT
    entry = _MAJORS[major]
    if entry is None:
        raise EncodingError(f"unknown major opcode {major:#x}")
    shift, mask, cuts, unknown = entry
    cut = cuts.get(word >> shift & mask)
    if cut is None:
        raise EncodingError(
            unknown.format(major=major, function=word >> shift & mask)
        )
    (
        opcode, control, use_a, use_b, use_c, def_a, def_c, fixed,
        shift_a, mask_a, add_a, shift_b, mask_b, add_b, shift_c, mask_c, add_c,
        literal_flag, literal_shift, literal_mask,
        disp_shift, disp_mask, disp_sign,
    ) = cut
    ra = (word >> shift_a & mask_a) + add_a
    rc = (word >> shift_c & mask_c) + add_c
    if word & literal_flag:
        literal: Optional[int] = word >> literal_shift & literal_mask
        rb = ZERO_REGISTER
        bit_b = 0
    else:
        literal = None
        rb = (word >> shift_b & mask_b) + add_b
        bit_b = REGISTER_BIT[rb]
    bit_a = REGISTER_BIT[ra]
    bit_c = REGISTER_BIT[rc]
    displacement = word >> disp_shift & disp_mask
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
    :func:`encode` gives for the word's operands with these replaced,
    under the same register-file and range checks.  The one way code
    words are edited (the rewriter's relinking, the optimizer's
    renames, the benchmark's mutations).  A field the word's format
    does not encode — or ``rb`` of a literal operate — is ignored, as
    :func:`encode` ignores it."""
    return _put_fields(word, decode_row(word)[4], ra, rb, rc, displacement)


# ----------------------------------------------------------------------
# Bulk helpers
# ----------------------------------------------------------------------

class _RowTable(dict):
    """Word -> its row, built on the word's first lookup: rows of words
    that differ only in their major's variable field (``_FORMS``)
    differ only in its slot, so :func:`decode_row` cuts each *form* —
    that field cleared — once (``forms``: form -> its row, and the
    row's entries before and after the slot), and the form's other
    words get its row with their own value in the slot."""

    def __init__(self) -> None:
        super().__init__()
        self.forms: Dict[int, Tuple[tuple, tuple, tuple]] = {}

    def __missing__(self, word: int) -> tuple:
        flag, keep, shift, sign, slot = _FORMS[word >> _MAJOR_SHIFT]
        form = word & keep if word & flag == flag else word
        parts = self.forms.get(form)
        if parts is None:
            row = decode_row(form)
            parts = self.forms[form] = (row, row[:slot], row[slot + 1:])
        value = (word ^ form) >> shift
        row = self[word] = (
            parts[1] + (value - ((value & sign) << 1),) + parts[2]
            if value else parts[0]
        )
        return row


def decode_rows(code: bytes) -> Tuple[tuple, ...]:
    """Decode contiguous code bytes into one row per word.

    Each *distinct* word gets its row once, where it first occurs, and
    the row is shared by every later occurrence — compiled code repeats
    itself, so an image has an order of magnitude fewer distinct words
    than words, and fewer *forms* again, the only words decoded
    (:class:`_RowTable`; counters ``program.decode.words`` /
    ``.distinct`` / ``.forms``).  Words are looked up in stream order,
    and a word is undecodable exactly when its form is, so code with
    an undecodable word fails on the first such word, whose byte offset
    the error carries.
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
    REGISTRY.inc("program.decode.forms", len(table.forms))
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
