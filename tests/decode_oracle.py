"""The pre-table decoder and the per-instance def/use derivation, kept
as oracles.

Everything below the imports is the code ``src/`` ran before the
table-driven decoder replaced it (``isa.encoding.decode_instruction``
with its tables, ``Instruction._compute_uses`` / ``_compute_defs``) and
before the three analysis-path callers switched from register sets to
mask bits (``cfg.callgraph.escape_candidates``,
``cfg.build.resolve_register_constant``,
``interproc.savedregs._epilogue_restore_index``), moved here verbatim.
The only edits: the two ``_compute_*`` methods are module functions
(``self`` is the instruction), and the three callers ask those
functions, not ``Instruction.uses()`` / ``defs()``, which are views of
the masks under test now.  ``tests/test_decode_oracle.py`` holds the
new code to this file.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

from repro.cfg.cfg import ControlFlowGraph
from repro.interproc.savedregs import _load_from_stack
from repro.isa.encoding import INSTRUCTION_SIZE, EncodingError
from repro.isa.instructions import ControlKind, Format, Instruction, Opcode
from repro.isa.registers import (
    FLOAT_ZERO_REGISTER,
    NUM_INTEGER_REGISTERS,
    ZERO_REGISTER,
)
from repro.program.model import Routine

#: Register index ``a0`` (``r16``); OUTPUT reads it.
_A0 = 16

#: Register index ``v0`` (``r0``); HALT reads it (the exit status).
_V0 = 0


# ----------------------------------------------------------------------
# isa.encoding: the ``if major in ...`` ladder and its tables
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


def _from_field(field: int, file: str) -> int:
    """5-bit field value -> unified register index."""
    return field + NUM_INTEGER_REGISTERS if file == _FP else field


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
# isa.instructions: per-instance def/use sets
# ----------------------------------------------------------------------

def _compute_uses(self) -> FrozenSet[int]:
    fmt = self.opcode.format
    raw: Tuple[int, ...]
    if fmt in (Format.OPERATE, Format.OPERATE_FP):
        if self.literal is None:
            raw = (self.ra, self.rb)
        else:
            raw = (self.ra,)
    elif fmt in (Format.MEMORY, Format.MEMORY_FP):
        if self.opcode.info.is_load:
            raw = (self.rb,)
        else:
            raw = (self.ra, self.rb)
    elif fmt in (Format.BRANCH, Format.BRANCH_FP):
        if self.opcode.control == ControlKind.COND_BRANCH:
            raw = (self.ra,)
        else:
            raw = ()
    elif fmt == Format.JUMP:
        raw = (self.rb,)
    elif self.opcode is Opcode.OUTPUT:
        raw = (_A0,)
    else:  # HALT delivers v0 to the host as the exit status.
        raw = (_V0,)
    # Conditional moves additionally read their destination (the move
    # may not happen, so the old value flows through).
    if self.opcode in (Opcode.CMOVEQ, Opcode.CMOVNE):
        raw = raw + (self.rc,)
    return frozenset(
        r for r in raw if r not in (ZERO_REGISTER, FLOAT_ZERO_REGISTER)
    )

def _compute_defs(self) -> FrozenSet[int]:
    fmt = self.opcode.format
    raw: Tuple[int, ...]
    if fmt in (Format.OPERATE, Format.OPERATE_FP):
        raw = (self.rc,)
    elif fmt in (Format.MEMORY, Format.MEMORY_FP):
        raw = (self.ra,) if self.opcode.info.is_load else ()
    elif fmt in (Format.BRANCH, Format.BRANCH_FP):
        # BR and BSR write the return address into ra.
        if self.opcode.control in (
            ControlKind.UNCOND_BRANCH,
            ControlKind.CALL_DIRECT,
        ):
            raw = (self.ra,)
        else:
            raw = ()
    elif fmt == Format.JUMP:
        raw = (self.ra,)
    else:
        raw = ()
    return frozenset(
        r for r in raw if r not in (ZERO_REGISTER, FLOAT_ZERO_REGISTER)
    )


# ----------------------------------------------------------------------
# cfg.callgraph / cfg.build / interproc.savedregs: the set-based callers
# ----------------------------------------------------------------------

def escape_candidates(routine: Routine) -> Tuple[int, ...]:
    """The constants ``routine`` lets escape that could be a routine's
    entry address, sorted — a function of its instructions alone.

    Runs a forward constant pass over every basic-block-shaped region
    (straight-line runs between terminators suffice: constants are
    killed at joins by construction here, which is conservative in the
    escape direction).  A constant escapes when it is stored to memory,
    used by a non-address instruction, or still held in a register when
    the straight-line run ends — unless its only use is the indirect
    call it feeds (a resolved ``jsr`` does not take the address).
    Whether an escaped constant *is* an entry depends on the image, so
    that test is the caller's; only values no entry can equal (negative
    or unaligned) are dropped here.
    """
    escaped: Set[int] = set()
    constants: Dict[int, int] = {}
    for instruction in routine.instructions:
        opcode = instruction.opcode
        if not constants and (
            (opcode is not Opcode.LDA and opcode is not Opcode.LDAH)
            or instruction.rb != ZERO_REGISTER
        ):
            # Nothing is tracked and this instruction cannot start
            # tracking: every branch below would be a no-op.
            continue
        control = instruction.control
        uses = _compute_uses(instruction)
        defs = _compute_defs(instruction)
        if opcode is Opcode.LDA or opcode is Opcode.LDAH:
            shift = 16 if opcode is Opcode.LDAH else 0
            base = instruction.rb
            if base == ZERO_REGISTER:
                value: Optional[int] = instruction.displacement << shift
            elif base in constants:
                value = constants[base] + (instruction.displacement << shift)
            else:
                value = None
            _kill(constants, defs)
            if value is not None:
                constants[instruction.ra] = value
            continue
        if (
            opcode is Opcode.BIS
            and instruction.literal is None
            and ZERO_REGISTER in (instruction.ra, instruction.rb)
        ):
            source = (
                instruction.rb
                if instruction.ra == ZERO_REGISTER
                else instruction.ra
            )
            value = constants.get(source)
            _kill(constants, defs)
            if value is not None:
                constants[instruction.rc] = value
            continue
        if control in (ControlKind.CALL_DIRECT, ControlKind.CALL_INDIRECT):
            # The call target register is consumed, not escaped; every
            # other constant is dropped across the call (it clobbers
            # temporaries) and a dropped constant is no longer tracked,
            # so count it as escaping here.
            for register, value in constants.items():
                if register != instruction.rb:
                    escaped.add(value)
            constants.clear()
            continue
        # Any other use of a register holding a constant escapes it.
        for register in uses:
            value = constants.get(register)
            if value is not None:
                escaped.add(value)
        _kill(constants, defs)
        if control != ControlKind.FALLTHROUGH:
            # Block boundary: surviving constants could flow to a join
            # where we stop tracking them.
            escaped.update(constants.values())
            constants.clear()
    return tuple(
        sorted(
            value
            for value in escaped
            if value >= 0 and not value % INSTRUCTION_SIZE
        )
    )


def _kill(constants: Dict[int, int], defs) -> None:
    for register in defs:
        constants.pop(register, None)


def resolve_register_constant(
    instructions: Sequence[Instruction], upto: int, register: int
) -> Optional[int]:
    """Resolve the value of ``register`` just before ``instructions[upto]``.

    Walks backward through the straight-line prefix, following
    ``lda``/``ldah`` address-materialization chains and register moves
    (``bis zero, rs, rd``).  Returns the constant value or ``None`` when
    the value is not a visible constant.
    """
    target = register
    addend = 0
    for index in range(upto - 1, -1, -1):
        instruction = instructions[index]
        if target not in _compute_defs(instruction):
            continue
        opcode = instruction.opcode
        if opcode is Opcode.LDA:
            addend += instruction.displacement
            if instruction.rb == ZERO_REGISTER:
                return addend
            target = instruction.rb
        elif opcode is Opcode.LDAH:
            addend += instruction.displacement << 16
            if instruction.rb == ZERO_REGISTER:
                return addend
            target = instruction.rb
        elif (
            opcode is Opcode.BIS
            and instruction.literal is None
            and instruction.ra == ZERO_REGISTER
        ):
            target = instruction.rb
        elif (
            opcode is Opcode.BIS
            and instruction.literal is None
            and instruction.rb == ZERO_REGISTER
        ):
            target = instruction.ra
        else:
            return None
    return None


def _epilogue_restore_index(
    cfg: ControlFlowGraph, exit_block: int, register: int, slot: int
) -> Optional[int]:
    """Routine index of the restoring load, when the exit block's last
    write to ``register`` reloads it from ``slot``."""
    block = cfg.blocks[exit_block]
    last_def: Optional[Instruction] = None
    last_index = -1
    for offset_in_block, instruction in enumerate(block.instructions):
        if register in _compute_defs(instruction):
            last_def = instruction
            last_index = block.start + offset_in_block
    if last_def is None:
        return None
    offset = _load_from_stack(last_def)
    if offset == slot and last_def.ra == register:
        return last_index
    return None


