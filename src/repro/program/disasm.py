"""Disassembler / loader: lift an executable image to the program model.

This is the front half of the "CFG Build" stage the paper times: decode
the text section to rows, carve it into routines along the symbol
table, and recover jump-table target sets from the data section.  The
listing (:func:`render_listing`) formats the same rows.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.isa.encoding import INSTRUCTION_SIZE, EncodingError, decode_rows
from repro.isa.instructions import ControlKind, render_row
from repro.program.image import ExecutableImage, ImageFormatError
from repro.program.model import Program, Routine


def disassemble_image(image: ExecutableImage) -> Program:
    """Decode ``image`` into a :class:`~repro.program.model.Program`.

    The image is validated here (:func:`load_program` parses without)
    and its text decoded to rows (:func:`decode_rows`).
    """
    entries = image.validate()
    try:
        rows = decode_rows(image.text)
    except EncodingError as error:
        raise ImageFormatError(
            f"undecodable instruction word at "
            f"{image.text_base + error.offset:#x}: {error}"
        ) from error
    routines: List[Routine] = []
    # Validated: every symbol lies inside the text, in address order,
    # and the entry point is one of them.
    for symbol in entries.values():
        offset = symbol.address - image.text_base
        start = offset // INSTRUCTION_SIZE
        routines.append(Routine.lifted(
            symbol.name, symbol.address,
            image.text[offset : offset + symbol.size],
            rows[start : start + symbol.size // INSTRUCTION_SIZE],
            symbol.exported,
        ))
    jump_targets: Dict[int, Tuple[int, ...]] = {
        info.jump_address: image.read_jump_table(info)
        for info in image.jump_tables
    }
    jump_table_locations = {
        info.jump_address: info.table_address for info in image.jump_tables
    }
    return Program.lifted(
        routines=routines,
        entry=entries[image.entry_point].name,
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
    return disassemble_image(ExecutableImage.parse(blob))


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
        for index, row in enumerate(routine.rows):
            if row[0] in (ControlKind.COND_BRANCH, ControlKind.UNCOND_BRANCH):
                target = routine.address_of(index) + INSTRUCTION_SIZE * (
                    1 + row[3]
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
        for index, row in enumerate(routine.rows):
            address = routine.address_of(index)
            if address in targets:
                lines.append(f"{targets[address]}:")
            text = _render_row(program, address, row, targets)
            lines.append(f"    {address:#010x}  {text}")
        lines.append("")
    return "\n".join(lines)


def _render_row(
    program: Program, address: int, row: tuple, targets: Dict[int, str]
) -> str:
    control = row[0]
    text = render_row(row)
    if control in (ControlKind.COND_BRANCH, ControlKind.UNCOND_BRANCH):
        target = address + INSTRUCTION_SIZE * (1 + row[3])
        return f"{text}    ; -> {targets.get(target, f'{target:#x}')}"
    if control == ControlKind.CALL_DIRECT:
        target = address + INSTRUCTION_SIZE * (1 + row[3])
        callee = program.routine_at(target)
        name = callee.name if callee else f"{target:#x}"
        return f"{text}    ; calls {name}"
    if control == ControlKind.INDIRECT_JUMP and address in program.jump_targets:
        labels = ", ".join(
            targets.get(t, f"{t:#x}") for t in program.jump_targets[address]
        )
        return f"{text}    ; table: {labels}"
    return text
