"""Dead stack-store elimination.

A follow-on cleanup pass the Figure-1 transformations expose: after
reallocation deletes a restore, or DCE deletes the load half of a
spill, the matching *store* is left writing a stack slot nobody will
ever read.  This pass removes stores to the routine's own frame slots
that cannot reach any load of the same slot.

Soundness rests on the frame-privacy discipline the rest of the
optimizer already assumes (and the generator and examples obey):

* a routine's ``sp``-relative slots are accessed only through ``sp``
  with a constant displacement and only by the routine itself (callees
  build their own frames below ``sp``; callers' frames sit above);
* ``sp`` is only adjusted by the prologue/epilogue ``lda`` pair.

We verify the second point per routine (bail out entirely on any other
``sp`` definition or any non-``sp`` memory access whose base register
could alias the frame — conservatively, any load/store not based on
``sp``, since our IR has no alias information) and then run the
optimizer's one liveness (:func:`repro.dataflow.liveness.solve`) over
frame-slot bits: a store is dead when its slot is not live immediately
after it.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.isa.instructions import Opcode
from repro.isa.registers import STACK_POINTER
from repro.dataflow.liveness import live_after, solve
from repro.cfg.build import STACK_LOADS, STACK_STORES, frame_slot
from repro.cfg.cfg import ControlFlowGraph, ExitKind
from repro.interproc.summaries import RoutineSummary
from repro.program.rewrite import RoutineEdits


def eliminate_dead_stores(
    cfg: ControlFlowGraph,
    summary: RoutineSummary,
) -> RoutineEdits:
    """Dead frame stores of one routine, as rewrite edits.

    Returns ``{instruction index: None}``.  Conservatively returns no
    edits when the routine's memory behaviour defeats the frame-privacy
    argument (non-``sp`` memory accesses, unusual ``sp`` writes, or
    unknown-jump exits).
    """
    slots = _frame_slots(cfg)
    if not slots:
        return {}
    # One bit per slot: a load uses it, a store defines it; at RETURN
    # and HALT exits the frame dies, so no slot is live there.
    rows = cfg.routine.rows
    bits = {slot: 1 << i for i, slot in enumerate(sorted(set(slots.values())))}
    loads = [0] * len(rows)
    stores = [0] * len(rows)
    for index, slot in slots.items():
        (loads if rows[index][4] in STACK_LOADS else stores)[index] = bits[slot]
    _live_in, live_out = solve(cfg, loads, stores, {})
    return {
        index: None
        for block, out in enumerate(live_out)
        for index, live in live_after(cfg, block, out, loads, stores)
        if stores[index] and not stores[index] & live
    }


def _frame_slots(cfg: ControlFlowGraph) -> Optional[Dict[int, int]]:
    """Instruction index -> the frame slot it loads or stores, or None
    to bail out.

    A slot is identified by its ``sp``-relative displacement, which is
    only meaningful while ``sp`` is constant.  We therefore require the
    standard discipline and bail out otherwise:

    * ``sp`` is written only by ``lda sp, -F(sp)`` as the *first*
      instruction of the entry block and ``lda sp, +F(sp)`` in exit
      blocks with no slot access after it — so every slot access sees
      the same ``sp``;
    * every load/store is ``sp``-based (no alias into the frame);
    * no unknown-jump exits (unknown code could inspect the frame).
    """
    if any(kind == ExitKind.UNKNOWN_JUMP for _b, kind in cfg.exits):
        return None
    rows = cfg.routine.rows  # row[2] def mask, row[4] opcode, row[5] ra, row[6] rb
    exit_blocks = {block for block, _kind in cfg.exits}
    slots: Dict[int, int] = {}
    for block in range(cfg.block_count):
        seen_sp_restore = False
        start, stop = cfg.bounds(block)
        for index in range(start, stop):
            row = rows[index]
            if row[4] in STACK_LOADS or row[4] in STACK_STORES:
                slot = frame_slot(row)
                if slot is None:
                    return None  # possible alias into the frame
                if seen_sp_restore:
                    return None  # slot access under a different sp
                slots[index] = slot
            if row[2] >> STACK_POINTER & 1:
                if not (
                    row[4] is Opcode.LDA
                    and row[5] == STACK_POINTER
                    and row[6] == STACK_POINTER
                ):
                    return None  # sp computed some other way
                if index == 0:
                    continue  # the prologue
                if block in exit_blocks:
                    seen_sp_restore = True  # the epilogue
                    continue
                return None  # mid-routine sp adjustment
    return slots
