"""Interprocedural dead-code elimination (Figure 1a/1b).

With the routine's calls replaced by call-summary instructions and its
exits annotated with live-at-exit sets (§2), conventional liveness
tells us, after every instruction, exactly which registers the rest of
the *program* might still read.  An instruction whose only effect is to
define registers none of which are live afterwards is dead — even when
the would-be consumer is in a separately compiled module, which is the
case a traditional compiler cannot see.

Deletions expose more deletions (a dead instruction's operands may die
with it), so the pass re-solves with the deleted instructions skipped
until a walk finds no new one.

Instructions eligible for deletion: register-writing, fall-through
instructions without side effects — operate format, ``lda``/``ldah``
and loads.  Stores, OUTPUT and all control transfers are kept.
"""

from __future__ import annotations

from typing import Set

from repro.isa.instructions import ControlKind, Format, Opcode
from repro.dataflow.liveness import exit_seeds, live_after, solve, summary_masks
from repro.cfg.cfg import ControlFlowGraph
from repro.interproc.summaries import RoutineSummary
from repro.program.rewrite import RoutineEdits

#: Loads and address computations write a register and touch nothing
#: else the program can observe.
_DELETABLE = frozenset(
    opcode
    for opcode in Opcode
    if opcode.control is ControlKind.FALLTHROUGH
    and opcode is not Opcode.OUTPUT
    and (
        opcode.format in (Format.OPERATE, Format.OPERATE_FP)
        or opcode in (Opcode.LDA, Opcode.LDAH, Opcode.LDQ, Opcode.LDT)
    )
)


def eliminate_dead_code(
    cfg: ControlFlowGraph,
    summary: RoutineSummary,
) -> RoutineEdits:
    """Dead instructions of one routine, as rewrite edits.

    Returns ``{instruction index: None}`` for every deletable
    instruction that defines no live register once the other dead
    instructions are gone.
    """
    rows = cfg.routine.rows  # row[4] is the opcode
    uses, defs = summary_masks(cfg, summary)
    seeds = exit_seeds(cfg, summary)
    deleted: Set[int] = set()
    found = True
    while found:
        _live_in, live_out = solve(cfg, uses, defs, seeds, deleted)
        found = False
        for block, out in enumerate(live_out):
            for index, live in live_after(cfg, block, out, uses, defs, deleted):
                if rows[index][4] in _DELETABLE and defs[index] and not defs[index] & live:
                    deleted.add(index)  # contributes nothing from here on
                    found = True
    return dict.fromkeys(sorted(deleted))
