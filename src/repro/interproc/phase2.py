"""Phase 2: live-at-entry and live-at-exit (§3.3, Figure 10).

MAY-USE information flows backward through the flow-summary edges and
the (phase-1-labeled) call-return edges, and *across* routines from
each return node to the exit nodes of every routine that could return
to it.  When the dataflow converges:

* ``MAY-USE[entry node]`` = the registers live at the routine's entry;
* ``MAY-USE[exit node]``  = the registers live at that exit;
* ``MAY-USE[call node]``  = the registers live immediately before the
  call (useful to the optimizer for Figure 1(c)/(d));
* ``MAY-USE[return node]`` = the registers live at the call's return
  point.

Because the call-return edges carry the callee's MAY-USE / MUST-DEF
summaries rather than letting liveness flow *through* the callee's
body, the solution only accounts for valid (call/return matched) paths
— the meet-over-all-valid-paths property discussed in §5.

Boundary conditions:

* HALT exits: nothing is live after the program stops;
* UNKNOWN_JUMP exits: every register is assumed live (§3.5);
* RETURN exits of *externally callable* routines (exported,
  address-taken, or the program entry) are seeded with the
  calling-standard worst case: the return-value registers, the
  callee-saved registers, and ``sp``/``gp``/``ra``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Set

from repro.isa.calling_convention import CallingConvention
from repro.dataflow.regset import TRACKED_MASK, mask_of
from repro.cfg.cfg import ExitKind
from repro.interproc.flatcore import resolve_solver_core, seed_priority
from repro.interproc.phase1 import record_solve
from repro.obs.metrics import REGISTRY
from repro.psg.graph import ProgramSummaryGraph


@dataclass
class Phase2Result:
    """Converged per-node MAY-USE (liveness) masks."""

    may_use: List[int]
    #: Worklist iterations spent converging (incremental work metric).
    iterations: int = 0


def conservative_exit_live_mask(convention: CallingConvention) -> int:
    """Registers assumed live when returning to an unknown caller."""
    return mask_of(
        convention.return_registers
        | convention.callee_saved
        | {
            convention.stack_pointer,
            convention.global_pointer,
            convention.return_address,
        }
    )


def run_phase2(
    psg: ProgramSummaryGraph,
    externally_callable: Set[str],
    convention: CallingConvention,
    seed_order: Sequence[int],
    extra_exit_live: Optional[Dict[int, int]] = None,
    # Passed only by the frozen replay in perf/workloads.py; ROADMAP
    # item 3 deletes it.
    core: Optional[str] = None,
) -> Phase2Result:
    """Run phase 2 over a PSG whose call-return edges are labeled.

    ``extra_exit_live`` adds initial liveness at specific exit nodes
    (node id -> mask), merged on top of the standard boundary
    conditions.  The incremental engine uses it to inject the cached
    live-after masks of *callers outside the partial PSG*: their
    return-point liveness must still reach the exits of the routines
    being re-solved, even though the callers themselves are not.

    The loop runs over the arena's rows with sweep + pocket scheduling
    (:mod:`repro.interproc.flatcore`).
    """
    resolve_solver_core(core)
    conservative = conservative_exit_live_mask(convention)
    arena = psg.arena
    node_count = len(psg.nodes)
    flow_view = arena.flow_view
    uses_static = arena.uses_static
    cr_dst = arena.cr_dst
    dep_view = arena.dep2_view
    ret_view = arena.ret_view

    may_use = [0] * node_count
    frozen = bytearray(node_count)
    for name, routine_psg in psg.routines.items():
        returns_live = conservative if name in externally_callable else 0
        for node, kind in routine_psg.exit_nodes:
            frozen[node] = 1
            if kind is ExitKind.UNKNOWN_JUMP:
                may_use[node] = TRACKED_MASK
            elif kind is ExitKind.RETURN:
                may_use[node] = returns_live
            # HALT and internal RETURN exits start at ∅.
    if extra_exit_live:
        for node_id, mask in extra_exit_live.items():
            may_use[node_id] |= mask

    # The phase-1 labels, unzipped per call node for the hot loop (they
    # are per-solve state: warm runs relabel the same PSG's edges), the
    # kill mask pre-complemented.
    cr_label_mu = [0] * node_count
    cr_label_notxd = [0] * node_count
    for edge in psg.call_return_edges:
        label = edge.label
        cr_label_mu[edge.src] = label.may_use
        cr_label_notxd[edge.src] = ~label.must_def

    counts = [0] * node_count if REGISTRY.per_routine else None
    by_rank, rank_of, sweep, queued = seed_priority(
        node_count, seed_order, frozen
    )
    # iterations == pushes: every push is popped exactly once.  Sweep +
    # pocket scheduling as in phase 1.
    n_sweep = len(sweep)
    si = 0
    pocket: List[int] = []
    pushes = n_sweep
    skipped = 0
    max_depth = n_sweep
    while True:
        if pocket:
            if si < n_sweep and sweep[si] <= pocket[0]:
                rank = sweep[si]
                si += 1
            else:
                rank = heappop(pocket)
        elif si < n_sweep:
            rank = sweep[si]
            si += 1
        else:
            break
        node = by_rank[rank]
        queued[node] = 0
        if counts is not None:
            counts[node] += 1
        row = flow_view[node]
        if not row:
            mu_acc = uses_static[node]
        elif len(row) == 1:
            dst, _, not_xd = row[0]
            mu_acc = uses_static[node] | (may_use[dst] & not_xd)
        else:
            mu_acc = uses_static[node]
            for dst, _, not_xd in row:
                mu_acc |= may_use[dst] & not_xd
        cr = cr_dst[node]
        if cr >= 0:
            mu_acc |= cr_label_mu[node] | (
                may_use[cr] & cr_label_notxd[node]
            )
        if mu_acc != may_use[node]:
            may_use[node] = mu_acc
            # Return node -> callee exit copies (Fig. 11 dashed arcs):
            # exits are frozen, so their dependents are scheduled by
            # hand when a copy lands new bits.
            for exit_node in ret_view[node]:
                merged = may_use[exit_node] | mu_acc
                if merged != may_use[exit_node]:
                    may_use[exit_node] = merged
                    for dependent in dep_view[exit_node]:
                        if queued[dependent]:
                            skipped += 1
                        else:
                            queued[dependent] = 1
                            pushes += 1
                            heappush(pocket, rank_of[dependent])
            for dependent in dep_view[node]:
                if queued[dependent]:
                    skipped += 1
                else:
                    queued[dependent] = 1
                    pushes += 1
                    heappush(pocket, rank_of[dependent])
            depth = n_sweep - si + len(pocket)
            if depth > max_depth:
                max_depth = depth
    iterations = pushes
    # distinct visited == seed count (see run_phase1).
    revisits = iterations - n_sweep

    record_solve(
        psg, "phase2", iterations, max_depth, counts,
        pushes=pushes, skipped=skipped, revisits=revisits,
    )
    return Phase2Result(may_use=may_use, iterations=iterations)
