"""Minimal program edits, for exercising incremental re-analysis.

The incremental engine's tests and benchmarks need a stand-in for "the
optimizer edited this routine": a change that is decodable, keeps the
CFG shape intact (no control-flow or displacement rewrites), and
perturbs the routine's register usage enough to be visible in its
summaries.  Retargeting one ALU source register does exactly that.
"""

from __future__ import annotations

from typing import Optional

from repro.isa.encoding import code_words, decode_row, replace_fields, words_code
from repro.isa.instructions import Opcode
from repro.isa.registers import ZERO_REGISTER
from repro.program.model import Program, Routine

#: Register-form ALU opcodes whose ``ra`` source is safe to retarget.
_MUTABLE_OPCODES = (Opcode.ADDQ, Opcode.SUBQ, Opcode.AND, Opcode.XOR)


def _victim_index(routine: Routine) -> Optional[int]:
    """The index of the routine's first register-form ALU instruction
    with a non-zero ``ra`` (row[4] opcode, row[5] ra, row[8] literal)."""
    for index, row in enumerate(routine.rows):
        if (
            row[4] in _MUTABLE_OPCODES
            and row[8] is None
            and row[5] != ZERO_REGISTER
        ):
            return index
    return None


def perturb_routine(program: Program, name: str) -> Program:
    """A copy of ``program`` with one instruction of ``name`` edited.

    The first register-form ALU instruction of the routine has its
    ``ra`` source register retargeted (never to/from the zero
    register), changing the code bytes — and usually the dataflow
    facts — while leaving every address, branch and call untouched.
    Every other routine is reused as it is.  Raises
    :class:`ValueError` when the routine has no such instruction.
    """
    victim = program.routine(name)
    index = _victim_index(victim)
    if index is None:
        raise ValueError(f"routine {name!r} has no register-form ALU instruction")
    words = code_words(victim.code)
    rows = list(victim.rows)
    words[index] = replace_fields(
        words[index], ra=(rows[index][5] + 3) % (ZERO_REGISTER - 1)
    )
    rows[index] = decode_row(words[index])
    edited = victim.relinked(victim.address, words_code(words), tuple(rows))
    return Program(
        routines=[
            edited if routine is victim else routine
            for routine in program.routines
        ],
        entry=program.entry,
        jump_targets=program.jump_targets,
        data=program.data,
        data_base=program.data_base,
        jump_table_locations=program.jump_table_locations,
        data_relocations=program.data_relocations,
        call_target_hints=program.call_target_hints,
    )


def editable_routines(program: Program, skip_entry: bool = True) -> list:
    """Every routine :func:`perturb_routine` can edit, in program order.

    The benchmark's edit scripts draw seeded edits from this list; it
    must be deterministic for a given program.
    """
    return [
        routine.name
        for routine in program.routines
        if not (skip_entry and routine.name == program.entry)
        and _victim_index(routine) is not None
    ]


def first_editable_routine(program: Program, skip_entry: bool = True) -> str:
    """The name of a routine :func:`perturb_routine` can edit."""
    for routine in program.routines:
        if skip_entry and routine.name == program.entry:
            continue
        if _victim_index(routine) is not None:
            return routine.name
    raise ValueError("no editable routine in program")
