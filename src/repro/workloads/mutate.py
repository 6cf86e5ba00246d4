"""Minimal program edits, for exercising incremental re-analysis.

The incremental engine's tests and benchmarks need a stand-in for "the
optimizer edited this routine": a change that is decodable, keeps the
CFG shape intact (no control-flow or displacement rewrites), and
perturbs the routine's register usage enough to be visible in its
summaries.  Retargeting one ALU source register does exactly that.
"""

from __future__ import annotations

import dataclasses

from repro.isa.instructions import ControlKind, Opcode
from repro.isa.registers import ZERO_REGISTER
from repro.program.model import Program, Routine

#: Register-form ALU opcodes whose ``ra`` source is safe to retarget.
_MUTABLE_OPCODES = (Opcode.ADDQ, Opcode.SUBQ, Opcode.AND, Opcode.XOR)


def perturb_routine(program: Program, name: str) -> Program:
    """A copy of ``program`` with one instruction of ``name`` edited.

    The first register-form ALU instruction of the routine has its
    ``ra`` source register retargeted (never to/from the zero
    register), changing the code bytes — and usually the dataflow
    facts — while leaving every address, branch and call untouched.
    Raises :class:`ValueError` when the routine has no such
    instruction.
    """
    victim = program.routine(name)
    instructions = list(victim.instructions)
    for index, instruction in enumerate(instructions):
        if (
            instruction.opcode not in _MUTABLE_OPCODES
            or instruction.opcode.control != ControlKind.FALLTHROUGH
            or instruction.literal is not None
            or instruction.ra == ZERO_REGISTER
        ):
            continue
        replacement = (instruction.ra + 3) % (ZERO_REGISTER - 1)
        instructions[index] = dataclasses.replace(instruction, ra=replacement)
        break
    else:
        raise ValueError(f"routine {name!r} has no register-form ALU instruction")
    routines = [
        Routine(
            name=routine.name,
            address=routine.address,
            instructions=instructions if routine.name == name
            else routine.instructions,
            exported=routine.exported,
        )
        for routine in program.routines
    ]
    return Program(
        routines=routines,
        entry=program.entry,
        jump_targets=program.jump_targets,
        data=program.data,
        data_base=program.data_base,
        jump_table_locations=program.jump_table_locations,
        data_relocations=program.data_relocations,
        call_target_hints=program.call_target_hints,
    )


def _routine_is_editable(routine: Routine) -> bool:
    return any(
        instruction.opcode in _MUTABLE_OPCODES
        and instruction.opcode.control == ControlKind.FALLTHROUGH
        and instruction.literal is None
        and instruction.ra != ZERO_REGISTER
        for instruction in routine.instructions
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
        and _routine_is_editable(routine)
    ]


def first_editable_routine(program: Program, skip_entry: bool = True) -> str:
    """The name of a routine :func:`perturb_routine` can edit."""
    for routine in program.routines:
        if skip_entry and routine.name == program.entry:
            continue
        if _routine_is_editable(routine):
            return routine.name
    raise ValueError("no editable routine in program")
