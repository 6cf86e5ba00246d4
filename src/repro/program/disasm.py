"""Disassembler / loader: lift an executable image to the program model.

This is the front half of the "CFG Build" stage the paper times: decode
the text section, carve it into routines along the symbol table, and
recover jump-table target sets from the data section.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.isa.encoding import INSTRUCTION_SIZE, EncodingError, decode_stream
from repro.isa.instructions import ControlKind, Instruction
from repro.program.image import ExecutableImage, ImageFormatError
from repro.program.model import Program, ProgramError, Routine


def disassemble_image(image: ExecutableImage) -> Program:
    """Decode ``image`` into a :class:`~repro.program.model.Program`."""
    entries = image.validate()
    try:
        instructions = decode_stream(image.text)
    except EncodingError as error:
        raise ImageFormatError(
            f"undecodable instruction word at "
            f"{image.text_base + error.offset:#x}: {error}"
        ) from error
    routines: List[Routine] = []
    for symbol in sorted(image.symbols, key=lambda s: s.address):
        offset = symbol.address - image.text_base
        start = offset // INSTRUCTION_SIZE
        count = symbol.size // INSTRUCTION_SIZE
        body = instructions[start : start + count]
        if len(body) != count:
            raise ImageFormatError(
                f"symbol {symbol.name!r} extends past the text section"
            )
        routine = Routine(
            symbol.name, symbol.address, body, exported=symbol.exported
        )
        routine.code = image.text[offset : offset + routine.size]
        routines.append(routine)
    entry_symbol = entries.get(image.entry_point)
    if entry_symbol is None:
        raise ImageFormatError(
            f"entry point {image.entry_point:#x} is not a routine entry"
        )
    jump_targets: Dict[int, Tuple[int, ...]] = {
        info.jump_address: image.read_jump_table(info)
        for info in image.jump_tables
    }
    jump_table_locations = {
        info.jump_address: info.table_address for info in image.jump_tables
    }
    return Program(
        routines=routines,
        entry=entry_symbol.name,
        jump_targets=jump_targets,
        data=image.data,
        data_base=image.data_base,
        jump_table_locations=jump_table_locations,
        data_relocations=list(image.data_relocations),
        call_target_hints={
            hint.call_address: hint.targets
            for hint in image.call_target_hints
        },
    )


def load_program(blob: bytes) -> Program:
    """Parse serialized image bytes and lift them to a program."""
    return disassemble_image(ExecutableImage.from_bytes(blob))


def render_listing(program: Program) -> str:
    """A human-readable disassembly listing of ``program``.

    Branch targets are annotated with synthesized local labels, direct
    call targets with routine names, and jump-table jumps with their
    recovered target lists.
    """
    lines: List[str] = []
    for routine in program:
        # Collect local branch targets so we can print labels.
        targets: Dict[int, str] = {}
        for index, instruction in enumerate(routine.instructions):
            if instruction.opcode.control in (
                ControlKind.COND_BRANCH,
                ControlKind.UNCOND_BRANCH,
            ):
                target = routine.address_of(index) + INSTRUCTION_SIZE * (
                    1 + instruction.displacement
                )
                if routine.contains(target) and target not in targets:
                    targets[target] = f"L{len(targets)}"
        for jump_address, jump_targets in sorted(program.jump_targets.items()):
            if routine.contains(jump_address):
                for target in jump_targets:
                    if target not in targets:
                        targets[target] = f"L{len(targets)}"
        flags = " export" if routine.exported else ""
        lines.append(f"{routine.name}:{flags}    ; {routine.address:#x}")
        for index, instruction in enumerate(routine.instructions):
            address = routine.address_of(index)
            if address in targets:
                lines.append(f"{targets[address]}:")
            text = _render_instruction(program, routine, index, instruction, targets)
            lines.append(f"    {address:#010x}  {text}")
        lines.append("")
    return "\n".join(lines)


def _render_instruction(
    program: Program,
    routine: Routine,
    index: int,
    instruction: Instruction,
    targets: Dict[int, str],
) -> str:
    control = instruction.opcode.control
    address = routine.address_of(index)
    if control in (ControlKind.COND_BRANCH, ControlKind.UNCOND_BRANCH):
        target = address + INSTRUCTION_SIZE * (1 + instruction.displacement)
        label = targets.get(target, f"{target:#x}")
        base = instruction.render()
        return f"{base}    ; -> {label}"
    if control == ControlKind.CALL_DIRECT:
        target = address + INSTRUCTION_SIZE * (1 + instruction.displacement)
        callee = program.routine_at(target)
        name = callee.name if callee else f"{target:#x}"
        return f"{instruction.render()}    ; calls {name}"
    if control == ControlKind.INDIRECT_JUMP and address in program.jump_targets:
        labels = ", ".join(
            targets.get(t, f"{t:#x}") for t in program.jump_targets[address]
        )
        return f"{instruction.render()}    ; table: {labels}"
    return instruction.render()
