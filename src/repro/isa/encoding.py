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
    ControlKind,
    Format,
    Instruction,
    Opcode,
)
from repro.isa.registers import NUM_INTEGER_REGISTERS

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

_INT = "i"
_FP = "f"


def _field_files(opcode: Opcode) -> Tuple[str, str, str]:
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


#: Per-opcode (ra, rb, rc) register-file assignment.
FIELD_FILES: Dict[Opcode, Tuple[str, str, str]] = {
    op: _field_files(op) for op in Opcode
}


def _to_field(index: int, file: str, opcode: Opcode) -> int:
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


def _from_field(field: int, file: str) -> int:
    """5-bit field value -> unified register index."""
    return field + NUM_INTEGER_REGISTERS if file == _FP else field


# ----------------------------------------------------------------------
# Decode tables
# ----------------------------------------------------------------------

def _build_tables() -> Tuple[
    Dict[int, Opcode],
    Dict[int, Opcode],
    Dict[Tuple[int, int], Opcode],
    Dict[int, Opcode],
    Dict[int, Opcode],
]:
    memory: Dict[int, Opcode] = {}
    branch: Dict[int, Opcode] = {}
    operate: Dict[Tuple[int, int], Opcode] = {}
    jump: Dict[int, Opcode] = {}
    pal: Dict[int, Opcode] = {}
    for op in Opcode:
        info = op.info
        if op.format in (Format.MEMORY, Format.MEMORY_FP):
            if info.major in memory:
                raise AssertionError(f"duplicate memory major {info.major:#x}")
            memory[info.major] = op
        elif op.format in (Format.BRANCH, Format.BRANCH_FP):
            if info.major in branch:
                raise AssertionError(f"duplicate branch major {info.major:#x}")
            branch[info.major] = op
        elif op.format in (Format.OPERATE, Format.OPERATE_FP):
            key = (info.major, info.function)
            if key in operate:
                raise AssertionError(f"duplicate operate opcode {key}")
            operate[key] = op
        elif op.format == Format.JUMP:
            jump[info.function] = op
        elif op.format == Format.PAL:
            pal[info.function] = op
    return memory, branch, operate, jump, pal


(_MEMORY_MAJORS, _BRANCH_MAJORS, _OPERATE_FUNCS, _JUMP_TYPES, _PAL_FUNCS) = (
    _build_tables()
)

_OPERATE_MAJORS = frozenset(major for (major, _f) in _OPERATE_FUNCS)
_FP_OPERATE_MAJORS = frozenset(
    op.info.major for op in Opcode if op.format == Format.OPERATE_FP
)
_JUMP_MAJOR = Opcode.JMP.info.major
_PAL_MAJOR = Opcode.HALT.info.major


def _signed(value: int, bits: int) -> int:
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


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
    major = (word >> 26) & 0x3F

    if major == _PAL_MAJOR:
        function = word & 0x03FF_FFFF
        opcode = _PAL_FUNCS.get(function)
        if opcode is None:
            raise EncodingError(f"unknown PAL function {function:#x}")
        return Instruction(opcode)

    if major == _JUMP_MAJOR:
        jump_type = (word >> 14) & 0x3
        opcode = _JUMP_TYPES.get(jump_type)
        if opcode is None:
            raise EncodingError(f"unknown jump type {jump_type}")
        files = FIELD_FILES[opcode]
        return Instruction(
            opcode,
            ra=_from_field((word >> 21) & 0x1F, files[0]),
            rb=_from_field((word >> 16) & 0x1F, files[1]),
        )

    if major in _MEMORY_MAJORS:
        opcode = _MEMORY_MAJORS[major]
        files = FIELD_FILES[opcode]
        return Instruction(
            opcode,
            ra=_from_field((word >> 21) & 0x1F, files[0]),
            rb=_from_field((word >> 16) & 0x1F, files[1]),
            displacement=_signed(word & 0xFFFF, 16),
        )

    if major in _BRANCH_MAJORS:
        opcode = _BRANCH_MAJORS[major]
        files = FIELD_FILES[opcode]
        return Instruction(
            opcode,
            ra=_from_field((word >> 21) & 0x1F, files[0]),
            displacement=_signed(word & 0x1F_FFFF, 21),
        )

    if major in _FP_OPERATE_MAJORS:
        function = (word >> 5) & 0x7FF
        opcode = _OPERATE_FUNCS.get((major, function))
        if opcode is None:
            raise EncodingError(
                f"unknown FP operate major={major:#x} function={function:#x}"
            )
        files = FIELD_FILES[opcode]
        return Instruction(
            opcode,
            ra=_from_field((word >> 21) & 0x1F, files[0]),
            rb=_from_field((word >> 16) & 0x1F, files[1]),
            rc=_from_field(word & 0x1F, files[2]),
        )

    if major in _OPERATE_MAJORS:
        function = (word >> 5) & 0x7F
        opcode = _OPERATE_FUNCS.get((major, function))
        if opcode is None:
            raise EncodingError(
                f"unknown operate major={major:#x} function={function:#x}"
            )
        files = FIELD_FILES[opcode]
        ra = _from_field((word >> 21) & 0x1F, files[0])
        rc = _from_field(word & 0x1F, files[2])
        if (word >> 12) & 1:
            literal = (word >> 13) & 0xFF
            return Instruction(opcode, ra=ra, rc=rc, literal=literal)
        rb = _from_field((word >> 16) & 0x1F, files[1])
        return Instruction(opcode, ra=ra, rb=rb, rc=rc)

    raise EncodingError(f"unknown major opcode {major:#x}")


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
    decoded: Dict[int, Instruction] = {}
    # dict.fromkeys keeps first-occurrence order, so the first distinct
    # word that fails is the first bad word of the stream.
    for word in dict.fromkeys(words):
        try:
            decoded[word] = decode_instruction(word)
        except EncodingError as error:
            error.offset = words.index(word) * INSTRUCTION_SIZE
            raise
    return [decoded[word] for word in words]
