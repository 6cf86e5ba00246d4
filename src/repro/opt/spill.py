"""Spill removal around calls (Figure 1c).

The compiler assigned a value to a caller-saved register ``Rt`` and,
because it had to assume every call kills every caller-saved register,
spilled ``Rt`` to the stack around the call:

.. code-block:: none

    stq  Rt, k(sp)
    bsr  ra, callee        [ killed by call = ... , Rt not in it ]
    ldq  Rt, k(sp)

When the summary shows the callee does not kill ``Rt``, the spill pair
is deleted and the value simply stays in the register.

Safety conditions checked per candidate pair:

* the store is in the call's block with no intervening definition of
  ``Rt`` or ``sp`` and no other access to the slot before the call;
* the load is in the call's return-point block, which has the call
  block as its *only* predecessor, again with no intervening
  definition of ``Rt``/``sp`` or slot access;
* ``Rt`` is not call-killed at the site;
* no other instruction in the routine touches the slot (the slot's
  only job is this spill).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterable, Optional, Sequence

from repro.isa.registers import STACK_POINTER
from repro.cfg.build import STACK_LOADS, STACK_STORES, frame_accesses, frame_slot
from repro.cfg.cfg import ControlFlowGraph
from repro.interproc.summaries import RoutineSummary
from repro.program.rewrite import RoutineEdits


def remove_call_spills(
    cfg: ControlFlowGraph,
    summary: RoutineSummary,
) -> RoutineEdits:
    """Deletable spill pairs of one routine, as rewrite edits."""
    edits: RoutineEdits = {}
    rows = cfg.routine.rows  # row[2] def mask, row[4] opcode, row[5] ra
    accesses = frame_accesses(rows)
    arcs_into = Counter(chain.from_iterable(cfg.successors))
    for site_summary in summary.call_sites:
        block = site_summary.site.block
        # The return point must have the call block as its only
        # predecessor.
        if cfg.successors[block] != (block + 1,) or arcs_into[block + 1] != 1:
            continue
        start, call = cfg.bounds(block)
        call -= 1
        for store in range(start, call):
            row = rows[store]
            slot = frame_slot(row)
            if slot is None or row[4] not in STACK_STORES or store in edits:
                continue
            register = row[5]
            # The slot's only job is this spill, and the call
            # instruction itself writes its link register.
            if (
                len(accesses[slot]) != 2
                or not site_summary.survives_call(register)
                or rows[call][2] >> register & 1
                or _first_conflict(rows, range(store + 1, call), register, slot)
                is not None
            ):
                continue
            # The reload: the return point's first conflicting row.
            load = _first_conflict(rows, range(*cfg.bounds(block + 1)), register, slot)
            if (
                load is None
                or load in edits
                or frame_slot(rows[load]) != slot
                or rows[load][4] not in STACK_LOADS
                or rows[load][5] != register
            ):
                continue
            edits[store] = None
            edits[load] = None
    return edits


def _first_conflict(
    rows: Sequence[tuple], indices: Iterable[int], register: int, slot: int
) -> Optional[int]:
    """The first of ``indices`` whose row writes ``register`` or ``sp``
    or accesses ``slot``."""
    for index in indices:
        row = rows[index]
        if row[2] >> register & 1 or row[2] >> STACK_POINTER & 1 or frame_slot(row) == slot:
            return index
    return None
