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

The pattern itself is matched in the front end's one walk per routine,
for every register (:func:`repro.cfg.build.stack_saves`, kept as
:attr:`repro.cfg.cfg.ControlFlowGraph.saved`); the functions here
narrow that to the convention's callee-saved registers, and
:func:`find_save_restore_sites` runs the matcher again for the
locations the optimizer rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.isa.calling_convention import CallingConvention
from repro.cfg.build import stack_saves
from repro.cfg.cfg import ControlFlowGraph
from repro.dataflow.regset import mask_of


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
    restores on every RETURN exit (:func:`repro.cfg.build.stack_saves`
    over the CFG's block bounds).
    """
    keep = mask_of(convention.callee_saved)
    exits = [(*cfg.bounds(block), kind) for block, kind in cfg.exits]
    saves = stack_saves(cfg.routine.rows, cfg.bounds(0)[1], exits)
    return {
        register: SaveRestoreSites(register, slot, save_index, restores)
        for register, (slot, save_index, restores) in saves.items()
        if keep >> register & 1
    }


def saved_restored_registers(
    cfg: ControlFlowGraph, convention: CallingConvention
) -> int:
    """Mask of callee-saved registers saved and restored by the routine."""
    return cfg.saved & mask_of(convention.callee_saved)
