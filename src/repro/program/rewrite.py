"""Binary rewriting: apply optimizer edits and relink the program.

Spike is an executable *rewriter*: deleting an instruction shifts every
later instruction, so branch displacements, call displacements,
address-materialization sequences and jump tables must all be fixed up.
This module does that relinking on code words, the one representation
anything edits (see :class:`~repro.program.model.Routine`):

* ``apply_edits(program, edits)`` deletes / replaces words and produces
  a new, fully consistent :class:`Program`.  It reads each word's
  control kind and operands from the routine's rows and changes words
  only through :func:`~repro.isa.encoding.replace_fields`:

  - PC-relative branches and direct calls are re-displaced through an
    old-address → new-address map (targets that were deleted resolve to
    the next surviving instruction);
  - ``ldah``/``lda`` chains that materialize a routine's entry address
    (indirect-call targets) are re-split for the routine's new address;
  - jump tables are patched in place in the data section, so data
    addresses never move.

  Each routine of the result is lifted from its new words and rows; one
  whose words did not change keeps its code bytes and rows (and, when
  it did not move either, is the same object).  Only replacement words
  are decoded.

* ``program_to_image(program)`` joins the routines' code into an
  executable image (the inverse of
  :func:`repro.program.disasm.disassemble_image`).

Restrictions (checked): only fall-through instructions may be deleted,
and a replacement word must keep the original's control behaviour — the
optimizer passes in :mod:`repro.opt` only ever need register renames
and straight-line deletions.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.isa.encoding import (
    INSTRUCTION_SIZE,
    code_words,
    decode_row,
    replace_fields,
    words_code,
)
from repro.isa.instructions import ControlKind, Opcode
from repro.isa.registers import ZERO_REGISTER
from repro.program.image import (
    CallTargetHint,
    ExecutableImage,
    JumpTableInfo,
    Symbol,
)
from repro.program.model import Program, ProgramError, Routine

#: Control kinds whose displacement is PC-relative.
RELATIVE_CONTROL = (
    ControlKind.COND_BRANCH, ControlKind.UNCOND_BRANCH, ControlKind.CALL_DIRECT
)

#: One routine's edits: instruction index -> replacement word, or
#: ``None`` to delete the instruction.
RoutineEdits = Dict[int, Optional[int]]
#: routine name -> its edits.
Edits = Dict[str, RoutineEdits]


class RewriteError(ValueError):
    """Raised when edits cannot be applied consistently."""


def apply_edits(program: Program, edits: Edits) -> Program:
    """Apply ``edits`` and relink; returns a new program."""
    known = set(program.routine_names())
    for name in edits:
        if name not in known:
            raise RewriteError(f"edits name unknown routine {name!r}")
    ordered = sorted(program.routines, key=lambda r: r.address)

    # ------------------------------------------------------------------
    # 1. Layout: which words survive, and where they land.  A deleted
    #    instruction's address maps to the next survivor's (branch
    #    targets slide down), a deleted tail to the last survivor's.
    # ------------------------------------------------------------------
    kept: Dict[str, Tuple[List[int], List[int], List[tuple]]] = {}
    new_address: Dict[str, int] = {}
    address_map: Dict[int, int] = {}
    cursor = ordered[0].address
    for routine in ordered:
        indices, words, rows = kept[routine.name] = _survivors(
            routine, edits.get(routine.name, {})
        )
        new_address[routine.name] = cursor
        slots = range(len(routine))
        if len(indices) < len(routine):
            last = len(indices) - 1
            slots = [min(bisect_left(indices, i), last) for i in slots]
        address_map.update(zip(
            range(routine.address, routine.end, INSTRUCTION_SIZE),
            [cursor + INSTRUCTION_SIZE * slot for slot in slots],
        ))
        cursor += INSTRUCTION_SIZE * len(indices)

    def moved(address: int, what: str) -> int:
        try:
            return address_map[address]
        except KeyError:
            raise RewriteError(
                f"{what} {address:#x} is not a known instruction"
            ) from None

    # ------------------------------------------------------------------
    # 2. Re-displace PC-relative words and address chains.
    # ------------------------------------------------------------------
    old_entries = {routine.address: routine.name for routine in ordered}
    new_routines: List[Routine] = []
    for routine in ordered:
        indices, words, rows = kept[routine.name]
        base = new_address[routine.name]
        for slot, (old_index, row) in enumerate(zip(indices, rows)):
            if row[0] in RELATIVE_CONTROL:
                target = moved(
                    routine.address_of(old_index) + INSTRUCTION_SIZE * (1 + row[3]),
                    f"{routine.name!r}: branch target",
                )
                new_pc = base + INSTRUCTION_SIZE * slot
                _set_displacement(
                    words, rows, slot,
                    (target - new_pc - INSTRUCTION_SIZE) // INSTRUCTION_SIZE,
                )
        _repair_address_chains(routine.name, words, rows, old_entries, new_address)
        new_routines.append(
            routine.relinked(base, words_code(words), tuple(rows))
        )

    # ------------------------------------------------------------------
    # 3. Patch jump tables (data addresses do not move) and relocate
    #    function-pointer words in the data section.
    # ------------------------------------------------------------------
    data = bytearray(program.data)

    def patch(location: int, address: int) -> None:
        offset = location - program.data_base
        data[offset : offset + 8] = address.to_bytes(8, "little")

    new_jump_targets: Dict[int, Tuple[int, ...]] = {}
    new_locations: Dict[int, int] = {}
    for old_jump_address, targets in program.jump_targets.items():
        location = program.jump_table_locations.get(old_jump_address)
        if location is None:
            raise RewriteError(
                f"cannot rewrite: jump table for {old_jump_address:#x} has "
                f"no recorded data location"
            )
        new_targets = tuple(
            moved(target, "jump-table target") for target in targets
        )
        for i, target in enumerate(new_targets):
            patch(location + 8 * i, target)
        new_jump = moved(old_jump_address, "jump-table owner")
        new_jump_targets[new_jump] = new_targets
        new_locations[new_jump] = location
    for relocation in program.data_relocations:
        offset = relocation - program.data_base
        if offset < 0 or offset + 8 > len(data):
            raise RewriteError(
                f"data relocation {relocation:#x} outside data section"
            )
        pointer = int.from_bytes(data[offset : offset + 8], "little")
        what = f"data relocation at {relocation:#x} holds"
        patch(relocation, moved(pointer, what))

    return Program(
        routines=new_routines,
        entry=program.entry,
        jump_targets=new_jump_targets,
        data=bytes(data),
        data_base=program.data_base,
        jump_table_locations=new_locations,
        data_relocations=list(program.data_relocations),
        # The linker's call-target hints, re-addressed.
        call_target_hints={
            moved(call, "call-target hint owner"): tuple(
                moved(target, "call-target hint") for target in targets
            )
            for call, targets in program.call_target_hints.items()
        },
    )


def _survivors(
    routine: Routine, routine_edits: RoutineEdits
) -> Tuple[List[int], List[int], List[tuple]]:
    """The old indices, words and rows of ``routine``'s instructions
    that survive ``routine_edits``, replacements applied."""
    words = list(code_words(routine.code))
    rows = list(routine.rows)
    for index, replacement in sorted(routine_edits.items()):
        if not 0 <= index < len(rows):
            raise RewriteError(f"{routine.name!r}: no instruction at index {index}")
        control = rows[index][0]
        if replacement is None:
            if control is not ControlKind.FALLTHROUGH:
                raise RewriteError(
                    f"{routine.name!r}: cannot delete control "
                    f"instruction at index {index}"
                )
            continue
        words[index], rows[index] = replacement, decode_row(replacement)
        if rows[index][0] is not control:
            raise RewriteError(
                f"{routine.name!r}: replacement at index {index} "
                f"changes control behaviour"
            )
    deleted = {index for index, word in routine_edits.items() if word is None}
    indices = [index for index in range(len(rows)) if index not in deleted]
    if not indices:
        raise RewriteError(f"{routine.name!r}: all instructions deleted")
    return indices, [words[i] for i in indices], [rows[i] for i in indices]


def _set_displacement(
    words: List[int], rows: List[tuple], slot: int, displacement: int
) -> None:
    """Give word ``slot`` the displacement ``displacement`` (which no
    mask depends on, so the row keeps every other column)."""
    row = rows[slot]
    if row[3] != displacement:
        words[slot] = replace_fields(words[slot], displacement=displacement)
        rows[slot] = (*row[:3], displacement, *row[4:])


def _repair_address_chains(
    name: str,
    words: List[int],
    rows: List[tuple],
    old_entries: Dict[int, str],
    new_address: Dict[str, int],
) -> None:
    """Re-split ``ldah``/``lda`` pairs that materialize routine addresses.

    The assembler materializes every code address as an adjacent

    .. code-block:: none

        ldah rd, high(zero)
        lda  rd, low(rd)

    pair (routine entries start at 0x10000, above the single-``lda``
    range, so no other shape can produce one).  This pass finds exactly
    that shape, checks the pair's value against the *old* routine entry
    table, and rewrites both displacements for the routine's new
    address.  Matching the precise shape avoids false positives on
    intermediate ``ldah`` values that coincidentally equal some entry.
    """
    # row[3] displacement, row[4] opcode, row[5] ra, row[6] rb
    for index in range(len(rows) - 1):
        high = rows[index]
        if high[4] is not Opcode.LDAH or high[6] != ZERO_REGISTER:
            continue
        low = rows[index + 1]
        if low[4] is not Opcode.LDA or low[6] != high[5] or low[5] != high[5]:
            continue
        routine_name = old_entries.get((high[3] << 16) + low[3])
        if routine_name is None:
            continue
        target = new_address[routine_name]
        new_low = target & 0xFFFF
        if new_low >= 0x8000:
            new_low -= 0x10000
        new_high = (target - new_low) >> 16
        if not -0x8000 <= new_high <= 0x7FFF:
            raise RewriteError(f"{name!r}: address {target:#x} out of range")
        _set_displacement(words, rows, index, new_high)
        _set_displacement(words, rows, index + 1, new_low)


def program_to_image(program: Program) -> ExecutableImage:
    """Re-serialize a program into an executable image.

    Routines must be contiguous (the assembler and the rewriter always
    produce contiguous layouts).  ``to_bytes`` and ``disassemble_image``
    validate the image.
    """
    ordered = sorted(program.routines, key=lambda r: r.address)
    text_base = ordered[0].address
    cursor = text_base
    symbols: List[Symbol] = []
    for routine in ordered:
        if routine.address != cursor:
            raise ProgramError(
                f"routine {routine.name!r} is not contiguous with the "
                f"previous routine"
            )
        symbols.append(
            Symbol(routine.name, routine.address, routine.size, routine.exported)
        )
        cursor = routine.end
    jump_tables = []
    for jump_address, targets in sorted(program.jump_targets.items()):
        location = program.jump_table_locations.get(jump_address)
        if location is None:
            raise ProgramError(
                f"jump table for {jump_address:#x} has no data location"
            )
        jump_tables.append(
            JumpTableInfo(
                jump_address=jump_address,
                table_address=location,
                count=len(targets),
            )
        )
    return ExecutableImage(
        text=b"".join(routine.code for routine in ordered),
        data=program.data,
        text_base=text_base,
        data_base=program.data_base,
        entry_point=program.entry_routine.address,
        symbols=symbols,
        jump_tables=jump_tables,
        data_relocations=list(program.data_relocations),
        call_target_hints=[
            CallTargetHint(call_address, targets)
            for call_address, targets in sorted(
                program.call_target_hints.items()
            )
        ],
    )
