"""Client-side intraprocedural liveness with call summaries.

Section 2 of the paper describes how Spike's optimizations consume the
interprocedural summaries: every call instruction is replaced by a
*call-summary instruction* that uses the registers call-used by the
callee, defines the registers call-defined, and kills the registers
call-killed; every exit gets an *exit instruction* using the registers
live at that exit.  Conventional liveness over the routine then yields
interprocedurally accurate results.

This module implements that liveness.  For the purpose of computing
live registers:

* a call-summary's **gen** set is call-used ∪ the call instruction's
  own register reads (a ``jsr`` reads its target register);
* its **kill** set is call-defined ∪ the call instruction's own writes
  (the return-address register) — only *definite* definitions kill
  liveness, so call-killed (MAY-DEF) does not kill;
* an exit block's live-out is its live-at-exit summary;
* the live-out of a block ending in an unknown indirect jump is the
  full register universe (§3.5).

The per-instruction walk (:func:`instruction_liveness`) gives the
optimizer the live set after every instruction, which is exactly what
dead-code elimination and the register reallocation of Figure 1 need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import Instruction
from repro.dataflow.regset import TRACKED_MASK, RegisterSet
from repro.dataflow.solver import WorklistSolver, postorder
from repro.cfg.cfg import ControlFlowGraph, ExitKind, TerminatorKind


@dataclass(frozen=True)
class SiteEffect:
    """Gen/kill masks summarizing a call site for liveness."""

    gen: int
    kill: int


@dataclass
class LivenessResult:
    """Block-level liveness solution for one routine."""

    cfg: ControlFlowGraph
    live_in: List[int]
    live_out: List[int]

    def live_in_set(self, block_index: int) -> RegisterSet:
        return RegisterSet.from_mask(self.live_in[block_index])

    def live_out_set(self, block_index: int) -> RegisterSet:
        return RegisterSet.from_mask(self.live_out[block_index])


def effective_gen_kill(
    instruction: Instruction,
    site_effect: Optional[SiteEffect] = None,
) -> Tuple[int, int]:
    """(gen, kill) masks for one instruction.

    ``site_effect`` must be supplied for call instructions; it already
    reflects the callee's summary.
    """
    gen = instruction.use_mask
    kill = instruction.def_mask
    if site_effect is not None:
        gen |= site_effect.gen
        kill |= site_effect.kill
    return gen, kill


def solve_liveness(
    cfg: ControlFlowGraph,
    site_effects: Dict[int, SiteEffect],
    exit_live: Dict[int, int],
) -> LivenessResult:
    """Solve block-level liveness for one routine.

    ``site_effects`` maps call-block index -> :class:`SiteEffect`;
    ``exit_live`` maps RETURN-exit block index -> live-at-exit mask.
    HALT exits have nothing live; unknown-jump exits have everything
    live.
    """
    blocks = cfg.blocks
    gen = [0] * len(blocks)
    kill = [0] * len(blocks)
    boundary_out = [0] * len(blocks)
    for block in blocks:
        block_gen = 0
        block_kill = 0
        site = site_effects.get(block.index)
        for offset, instruction in enumerate(block.instructions):
            is_call = (
                block.terminator == TerminatorKind.CALL
                and offset == len(block.instructions) - 1
            )
            instruction_gen, instruction_kill = effective_gen_kill(
                instruction, site if is_call else None
            )
            block_gen |= instruction_gen & ~block_kill
            block_kill |= instruction_kill
        gen[block.index] = block_gen
        kill[block.index] = block_kill
        exit_kind = cfg.exit_kind_of(block.index)
        if exit_kind == ExitKind.RETURN:
            boundary_out[block.index] = exit_live.get(block.index, 0)
        elif exit_kind == ExitKind.UNKNOWN_JUMP:
            boundary_out[block.index] = TRACKED_MASK
        elif exit_kind == ExitKind.HALT:
            boundary_out[block.index] = 0

    edges = [
        (block.index, successor)
        for block in blocks
        for successor in block.successors
    ]

    def transfer(node: int, out_mask: int) -> int:
        return gen[node] | (out_mask & ~kill[node])

    def combine(left: int, right: int) -> int:
        return left | right

    solver: WorklistSolver[int] = WorklistSolver(len(blocks), edges)
    successor_lists = [list(block.successors) for block in blocks]
    order = postorder(len(blocks), successor_lists, [cfg.entry_index])

    # Exit blocks have no successors; their OUT is their boundary mask.
    def transfer_with_boundary(node: int, out_mask: int) -> int:
        if not blocks[node].successors:
            out_mask = boundary_out[node]
        return transfer(node, out_mask)

    live_in = solver.solve(
        transfer=transfer_with_boundary,
        combine=combine,
        boundary=0,
        initial=0,
        order=order,
    )
    live_out = []
    for block in blocks:
        if block.successors:
            mask = 0
            for successor in block.successors:
                mask |= live_in[successor]
        else:
            mask = boundary_out[block.index]
        live_out.append(mask)
    return LivenessResult(cfg=cfg, live_in=live_in, live_out=live_out)


def instruction_liveness(
    result: LivenessResult,
    block_index: int,
    site_effects: Dict[int, SiteEffect],
) -> List[int]:
    """Live-after mask for each instruction of one block.

    ``returned[i]`` is the set of registers live immediately *after*
    ``block.instructions[i]``.  Walks backward from the block's
    live-out.
    """
    cfg = result.cfg
    block = cfg.blocks[block_index]
    site = site_effects.get(block_index)
    live_after: List[int] = [0] * len(block.instructions)
    mask = result.live_out[block_index]
    for offset in range(len(block.instructions) - 1, -1, -1):
        live_after[offset] = mask
        instruction = block.instructions[offset]
        is_call = (
            block.terminator == TerminatorKind.CALL
            and offset == len(block.instructions) - 1
        )
        gen, kill = effective_gen_kill(instruction, site if is_call else None)
        mask = gen | (mask & ~kill)
    return live_after
