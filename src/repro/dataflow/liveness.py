"""Client-side liveness (§2): one backward may-solve over CFG rows.

Section 2 of the paper describes how Spike's optimizations consume the
interprocedural summaries: every call instruction is replaced by a
*call-summary instruction* that uses the registers call-used by the
callee and defines the registers call-defined; every exit gets an *exit
instruction* using the registers live at that exit.  Conventional
liveness over the routine then yields interprocedurally accurate
results.

:func:`solve` is that conventional liveness over any bit universe: it
reads the block rows (``cfg.successors``, ``cfg.bounds``) and one use
and one def mask per instruction, skips the instructions a pass has
deleted, and seeds every exit block's live-out.  The optimizer runs it
three ways — dead-code elimination over registers, reallocation over one
register with the save and restores skipped, dead-store elimination over
frame slots.  For registers:

* :func:`summary_masks` substitutes the call-summary instruction: its
  use mask gains call-used, its def mask call-defined — only *definite*
  definitions kill liveness, so call-killed (MAY-DEF) does not kill;
* :func:`exit_seeds` is the exit instruction: a RETURN exit's
  live-at-exit set, nothing after a HALT, and every tracked register
  after an unknown indirect jump (§3.5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Dict, Iterator, List, Sequence, Tuple

from repro.cfg.cfg import ControlFlowGraph, ExitKind
from repro.dataflow.regset import TRACKED_MASK

if TYPE_CHECKING:  # pragma: no cover
    from repro.interproc.summaries import RoutineSummary


def summary_masks(
    cfg: ControlFlowGraph, summary: "RoutineSummary"
) -> Tuple[List[int], List[int]]:
    """Per-instruction use and def masks of ``cfg``'s routine with every
    call replaced by its call-summary instruction."""
    rows = cfg.routine.rows  # row[1]/row[2]: use/def masks
    uses = [row[1] for row in rows]
    defs = [row[2] for row in rows]
    for block, effect in summary.site_effects().items():
        call = cfg.bounds(block)[1] - 1
        uses[call] |= effect.gen
        defs[call] |= effect.kill
    return uses, defs


def exit_seeds(cfg: ControlFlowGraph, summary: "RoutineSummary") -> Dict[int, int]:
    """Exit block -> the registers its exit instruction uses."""
    returns = summary.return_exit_live()
    return {
        block: TRACKED_MASK if kind is ExitKind.UNKNOWN_JUMP else returns.get(block, 0)
        for block, kind in cfg.exits
    }


def solve(
    cfg: ControlFlowGraph,
    uses: Sequence[int],
    defs: Sequence[int],
    exit_out: Dict[int, int],
    skip: AbstractSet[int] = frozenset(),
) -> Tuple[List[int], List[int]]:
    """Per-block ``(live_in, live_out)``: the least solution of

    .. code-block:: none

        OUT[b] = ⋃ IN[s] over b's successors   (exit_out.get(b, 0) if none)
        IN[b]  = GEN[b] ∪ (OUT[b] − KILL[b])

    where GEN/KILL fold ``uses``/``defs`` (indexed by routine
    instruction) over block ``b``'s instructions not in ``skip``.  The
    fixed point is unique, so the visit order only decides the work.
    """
    successors = cfg.successors
    count = len(successors)
    gen = [0] * count
    kill = [0] * count
    predecessors: List[List[int]] = [[] for _ in range(count)]
    for block in range(count):
        start, stop = cfg.bounds(block)
        block_gen = block_kill = 0
        for index in range(start, stop):
            if index not in skip:
                block_gen |= uses[index] & ~block_kill
                block_kill |= defs[index]
        gen[block] = block_gen
        kill[block] = block_kill
        for successor in successors[block]:
            predecessors[successor].append(block)
    live_in = [0] * count
    live_out = [exit_out.get(block, 0) for block in range(count)]
    # IN only grows, so each change is OR-ed straight into the
    # predecessors' OUT; the last block is visited first.
    pending = list(range(count))
    queued = [True] * count
    while pending:
        block = pending.pop()
        queued[block] = False
        new = gen[block] | live_out[block] & ~kill[block]
        if new != live_in[block]:
            live_in[block] = new
            for predecessor in predecessors[block]:
                live_out[predecessor] |= new
                if not queued[predecessor]:
                    queued[predecessor] = True
                    pending.append(predecessor)
    return live_in, live_out


def live_after(
    cfg: ControlFlowGraph,
    block: int,
    live_out: int,
    uses: Sequence[int],
    defs: Sequence[int],
    skip: AbstractSet[int] = frozenset(),
) -> Iterator[Tuple[int, int]]:
    """``(index, mask live after it)`` for each instruction of ``block``
    not in ``skip``, last first, walking back from ``live_out``.  An
    instruction the caller adds to ``skip`` when it is yielded
    contributes nothing to the masks before it."""
    mask = live_out
    start, stop = cfg.bounds(block)
    for index in range(stop - 1, start - 1, -1):
        if index not in skip:
            yield index, mask
            if index not in skip:
                mask = uses[index] | mask & ~defs[index]
