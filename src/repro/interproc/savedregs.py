"""Callee-saved save/restore detection (§3.4).

The NT calling standard's callee-saved registers must be saved before
use and restored before exit.  "As seen by the caller, a callee-saved
register is not used, killed, or defined by the called routine" — so
phase 1 strips every callee-saved register the routine *saves and
restores* from the routine's entry-node sets.

Detection follows standard prologue/epilogue discipline:

* a **save** is a store of a callee-saved register to a stack slot
  (``stq rs, k(sp)`` / ``stt fs, k(sp)``) in the entry block, before
  any other definition of that register;
* a **restore** is a load of the same register from the same slot in an
  exit block, with no later definition of the register before the
  return.

Every RETURN exit must restore the register for it to count; HALT exits
need not (control never returns through them) and UNKNOWN_JUMP exits
disqualify the routine's candidates entirely (we cannot see whether the
register is restored wherever control ends up).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.isa.calling_convention import CallingConvention
from repro.isa.instructions import Instruction, Opcode
from repro.isa.registers import STACK_POINTER
from repro.cfg.cfg import ControlFlowGraph, ExitKind


@dataclass(frozen=True)
class SaveRestoreSites:
    """Where one callee-saved register is saved and restored.

    Instruction indices are routine-relative.  ``restore_indices`` has
    one entry per RETURN exit block, in ``cfg.exits`` order.
    """

    register: int
    slot: int
    save_index: int
    restore_indices: Tuple[int, ...]


def find_save_restore_sites(
    cfg: ControlFlowGraph, convention: CallingConvention
) -> Dict[int, SaveRestoreSites]:
    """Detect saved-and-restored callee-saved registers with locations.

    Returns register index -> :class:`SaveRestoreSites` for every
    callee-saved register the routine provably saves in its prologue and
    restores on every RETURN exit.
    """
    callee_saved_mask = 0
    for register in convention.callee_saved:
        callee_saved_mask |= 1 << register.index

    slots = _prologue_saves(cfg, callee_saved_mask)
    if not slots:
        return {}
    if any(kind == ExitKind.UNKNOWN_JUMP for _b, kind in cfg.exits):
        return {}

    result: Dict[int, SaveRestoreSites] = {}
    for register, (slot, save_index) in slots.items():
        restores: List[int] = []
        for exit_block, kind in cfg.exits:
            if kind != ExitKind.RETURN:
                continue
            restore = _epilogue_restore_index(cfg, exit_block, register, slot)
            if restore is None:
                restores = []
                break
            restores.append(restore)
        if restores:
            result[register] = SaveRestoreSites(
                register=register,
                slot=slot,
                save_index=save_index,
                restore_indices=tuple(restores),
            )
    return result


def saved_restored_registers(
    cfg: ControlFlowGraph, convention: CallingConvention
) -> int:
    """Mask of callee-saved registers saved and restored by the routine."""
    mask = 0
    for register in find_save_restore_sites(cfg, convention):
        mask |= 1 << register
    return mask


def _prologue_saves(
    cfg: ControlFlowGraph, callee_saved_mask: int
) -> Dict[int, Tuple[int, int]]:
    """register index -> (stack offset, instruction index) for saves."""
    slots: Dict[int, Tuple[int, int]] = {}
    defined = 0
    entry = cfg.entry_block
    for offset_in_block, instruction in enumerate(entry.instructions):
        offset = _store_to_stack(instruction)
        if offset is not None:
            register = instruction.ra
            bit = 1 << register
            if bit & callee_saved_mask and not (bit & defined):
                slots.setdefault(
                    register, (offset, entry.start + offset_in_block)
                )
        defined |= instruction.def_mask
    return slots


def _epilogue_restore_index(
    cfg: ControlFlowGraph, exit_block: int, register: int, slot: int
) -> Optional[int]:
    """Routine index of the restoring load, when the exit block's last
    write to ``register`` reloads it from ``slot``."""
    block = cfg.blocks[exit_block]
    last_def: Optional[Instruction] = None
    last_index = -1
    for offset_in_block, instruction in enumerate(block.instructions):
        if instruction.def_mask >> register & 1:
            last_def = instruction
            last_index = block.start + offset_in_block
    if last_def is None:
        return None
    offset = _load_from_stack(last_def)
    if offset == slot and last_def.ra == register:
        return last_index
    return None


def _store_to_stack(instruction: Instruction) -> Optional[int]:
    if (
        instruction.opcode in (Opcode.STQ, Opcode.STT)
        and instruction.rb == STACK_POINTER
    ):
        return instruction.displacement
    return None


def _load_from_stack(instruction: Instruction) -> Optional[int]:
    if (
        instruction.opcode in (Opcode.LDQ, Opcode.LDT)
        and instruction.rb == STACK_POINTER
    ):
        return instruction.displacement
    return None
