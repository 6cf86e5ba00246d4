"""Phase 1: call-used, call-defined and call-killed (§3.2, Figure 8).

Information flows backward through each routine's flow-summary edges
and — at call nodes — through the call-return edge, whose label is the
callee's entry-node sets (copied there whenever they change).  When the
dataflow converges, a routine's entry node holds:

* ``MAY-USE``  -> the registers *call-used* by the routine,
* ``MUST-DEF`` -> the registers *call-defined*,
* ``MAY-DEF``  -> the registers *call-killed*.

Figure 8 writes the MUST-DEF update as a per-edge assignment; with
several out-edges the correct meet is the intersection over out-edges
(the paper's own Figure 6 intersects MUST-DEF over successors), which
is what this implementation computes.

The fixed point is computed in one worklist: a visit recomputes a
node's MAY-DEF, MUST-DEF and MAY-USE together, from (∅, ⊤, ∅) at every
interior node.  That is the fixed point a defs-then-uses split would
reach:

* MAY-DEF and MUST-DEF never read MAY-USE, so they reach their own
  least / greatest fixed point whatever MAY-USE does;
* MAY-USE reads MUST-DEF only through the call-return kill
  ``MAY-USE[ret] − MUST-DEF[callee entry]``, and as MUST-DEF shrinks
  from ⊤ that difference only grows — every intermediate MAY-USE is
  below the one computed with final kills, so iteration cannot
  overshoot it;
* a call node reads its callees' entries, so it is in their
  ``dep1_view`` rows: every change of a kill re-queues the call nodes
  that read it, and the last visit of each node reads final kills.

Exit-node boundary values encode §3.5's conservatism:

* RETURN exits contribute nothing (phase 1 excludes post-return uses);
* HALT exits never rejoin the caller, so they contribute
  ``MUST-DEF = ⊤`` (vacuously, every register is defined on a path that
  never returns) and nothing else;
* UNKNOWN_JUMP exits may run arbitrary code, so they contribute
  ``MAY-USE = MAY-DEF = ⊤`` and ``MUST-DEF = ∅``.

Callee-saved filtering (§3.4) is applied every time an entry node's
sets are recomputed; the stack and global pointers are additionally
stripped from MAY-DEF / MUST-DEF because conforming callees restore
them (they are *not* stripped from MAY-USE — a callee genuinely reads
the incoming ``sp``).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence

from repro.dataflow.equations import SummaryTriple
from repro.dataflow.regset import TRACKED_MASK
from repro.cfg.cfg import ExitKind
from repro.interproc.flatcore import (
    SolveState,
    label_call_return_edges,
    resolve_solver_core,
)
from repro.obs.metrics import REGISTRY, Counts
from repro.psg.graph import ProgramSummaryGraph, RoutinePSG


def record_solve(
    psg: ProgramSummaryGraph,
    phase: str,
    iterations: int,
    max_depth: int,
    counts: Optional[List[int]],
    pushes: int = 0,
    skipped: int = 0,
    revisits: int = 0,
    into: Counts = REGISTRY,
) -> None:
    """Push one solve's convergence numbers ``into`` the obs registry.

    Shared by both phases.  ``counts``
    (per-node visit counts) is attributed to routines only when
    per-routine collection is on — the mapping walk is O(nodes) and
    only ``spike-analyze report`` consumes it.  ``pushes`` / ``skipped``
    / ``revisits`` gauge the worklist scheduling (see
    ``docs/observability.md``).
    """
    into.inc("solver.iterations", iterations, phase=phase)
    into.observe_max("solver.max_queue_depth", max_depth, phase=phase)
    into.inc("solver.pushes", pushes)
    into.inc("solver.skipped_inqueue", skipped)
    into.inc("solver.revisits", revisits, phase=phase)
    if counts is None:
        return
    per_routine: Dict[str, int] = {}
    for routine, visits in zip(psg.node_routine, counts):
        if visits:
            per_routine[routine] = per_routine.get(routine, 0) + visits
    for routine, visits in per_routine.items():
        into.inc(
            "solver.routine_iterations", visits, phase=phase, routine=routine
        )


@dataclass
class Phase1Result:
    """Converged per-node phase-1 sets (indexed by PSG node id)."""

    may_use: List[int]
    may_def: List[int]
    must_def: List[int]
    #: Worklist visits spent converging, one per node visit that updates
    #: all three sets; the incremental engine's work metric.
    iterations: int = 0

    def entry_triple(self, psg: ProgramSummaryGraph, routine: str) -> SummaryTriple:
        """The (call-used, call-killed, call-defined) triple of a routine."""
        node = psg.routines[routine].entry_node
        return SummaryTriple(
            self.may_use[node], self.may_def[node], self.must_def[node]
        )


class Phase1State(SolveState):
    """Phase 1's state over a growing graph (see
    :class:`~repro.interproc.flatcore.SolveState`): the three value
    rows and the §3.4 strip masks (nonzero at entry nodes only)."""

    __slots__ = ("may_use", "may_def", "must_def", "strip_use", "strip_def")

    def __init__(self, counts: Counts = REGISTRY) -> None:
        super().__init__(counts)
        self.may_use: List[int] = []
        self.may_def: List[int] = []
        self.must_def: List[int] = []
        self.strip_use: List[int] = []
        self.strip_def: List[int] = []

    def grow(self, node_count: int) -> int:
        first = super().grow(node_count)
        added = node_count - first
        self.may_def += [0] * added
        self.must_def += [TRACKED_MASK] * added
        self.may_use += [0] * added
        self.strip_use += [0] * added
        self.strip_def += [0] * added
        return first


def run_phase1(
    psg: ProgramSummaryGraph,
    saved_restored: Dict[str, int],
    preserved_mask: int,
    seed_order: Sequence[int],
    fixed_entries: Optional[Dict[int, SummaryTriple]] = None,
    # Passed only by the frozen replay in perf/workloads.py;
    # re-pointing that replay deletes it.
    core: Optional[str] = None,
    state: Optional[Phase1State] = None,
    routines: Optional[Iterable[RoutinePSG]] = None,
) -> Phase1Result:
    """Run phase 1 over ``psg``.

    ``saved_restored[name]`` is the §3.4 filter mask per routine;
    ``preserved_mask`` covers the stack/global pointers; ``seed_order``
    is the worklist priority order (callee-first routine order
    converges fastest).  On return, every resolved call-return edge's
    ``label`` holds the callee's final filtered entry sets.

    ``fixed_entries`` pins boundary values: node id -> the already-
    converged (MAY-USE, MAY-DEF, MUST-DEF) triple of a routine solved
    in an earlier run.  Pinned nodes behave like exit nodes — their
    values are never recomputed — which is how the incremental engine
    stitches cached callee summaries into a partial PSG.

    ``state`` is the solver state of earlier solves over a smaller
    version of the same graph (a fresh one when ``None``): every node it
    covers keeps its value, frozen, and this solve covers the nodes
    appended since, ``routines`` the ones among them that it seeds
    (every routine of ``psg`` when ``None``).  A node ``seed_order``
    omits is not solved.  The result's rows are the state's.

    The loop runs over the arena's rows with sweep + pocket scheduling
    (:mod:`repro.interproc.flatcore`).
    """
    resolve_solver_core(core)
    state = state or Phase1State()
    arena = psg.arena
    node_count = psg.node_count
    flow_view = arena.flow_view
    defs_static = arena.defs_static
    uses_static = arena.uses_static
    cr_dst = arena.cr_dst
    cr_single = arena.cr_single
    cr_callees = arena.cr_callees
    cr_unknown = arena.cr_unknown
    dep_view = arena.dep1_view

    state.grow(node_count)
    may_def, must_def, may_use = state.may_def, state.must_def, state.may_use
    frozen, queued = state.frozen, state.queued
    # §3.4 stripping as dense arrays: zero everywhere but entry nodes,
    # and `mask &= ~0` is the identity, so "strip where nonzero" equals
    # "strip at entries".
    strip_use, strip_def = state.strip_use, state.strip_def
    for routine_psg in psg.routines.values() if routines is None else routines:
        entry = routine_psg.entry_node
        strip = saved_restored.get(routine_psg.routine, 0)
        strip_use[entry] = strip
        strip_def[entry] = strip | preserved_mask
        for node, kind in routine_psg.exit_nodes:
            frozen[node] = 1
            if kind is ExitKind.RETURN:
                must_def[node] = 0
            elif kind is ExitKind.UNKNOWN_JUMP:
                may_use[node] = TRACKED_MASK
                may_def[node] = TRACKED_MASK
                must_def[node] = 0
            # HALT keeps (0, 0, TRACKED_MASK): the initial values.
    if fixed_entries:
        for node_id, triple in fixed_entries.items():
            may_use[node_id] = triple.may_use
            may_def[node_id] = triple.may_def
            must_def[node_id] = triple.must_def
            frozen[node_id] = 1

    counts = [0] * node_count if REGISTRY.per_routine else None
    skipped = 0

    by_rank, sweep = state.schedule(seed_order)
    rank_of = state.rank_of
    # Every push is popped exactly once (the queue drains), so the pop
    # count needs no per-visit increment: iterations == pushes.  The
    # queue is the sweep index over the pre-sorted seeds plus the
    # pocket heap of dynamic pushes (:mod:`repro.interproc.flatcore`);
    # depth is gauged after each push burst — sizes only peak after
    # pushes, so the push-side maximum equals a pop-side one.
    n_sweep = len(sweep)
    si = 0
    pocket: List[int] = []
    pushed = n_sweep
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
        # ⋁(label ∨ MAY-DEF[dst]) = (⋁ label) ∨ ⋁ MAY-DEF[dst]: the
        # label half is the precomputed per-node static mask (likewise
        # for MAY-USE's upward-exposed half).  Rows of zero or one edge
        # are the bulk of the graph (call/exit nodes have no flow
        # out-edges; straight-line nodes have one), so both shapes skip
        # the tuple-loop machinery.
        row = flow_view[node]
        if not row:
            md_acc = defs_static[node]
            xd_acc = -1  # "top" sentinel: intersection identity
            mu_acc = uses_static[node]
        elif len(row) == 1:
            dst, label_xd, not_xd = row[0]
            md_acc = defs_static[node] | may_def[dst]
            xd_acc = must_def[dst] | label_xd
            mu_acc = uses_static[node] | (may_use[dst] & not_xd)
        else:
            md_acc = defs_static[node]
            xd_acc = -1
            mu_acc = uses_static[node]
            for dst, label_xd, not_xd in row:
                md_acc |= may_def[dst]
                xd_acc &= must_def[dst] | label_xd
                mu_acc |= may_use[dst] & not_xd
        cr = cr_dst[node]
        if cr >= 0:
            entry = cr_single[node]
            if entry >= 0:  # monomorphic call: skip the tuple loop
                label_mu = may_use[entry]
                label_md = may_def[entry]
                label_xd = must_def[entry]
            else:
                callees = cr_callees[node]
                if callees:
                    label_mu = 0
                    label_md = 0
                    label_xd = -1
                    for entry in callees:
                        label_mu |= may_use[entry]
                        label_md |= may_def[entry]
                        label_xd &= must_def[entry]
                else:  # unknown call: fixed §3.5 label
                    label_mu, label_md, label_xd = cr_unknown[node]
            md_acc |= may_def[cr] | label_md
            xd_acc &= must_def[cr] | label_xd
            mu_acc |= label_mu | (may_use[cr] & ~label_xd)
        if xd_acc == -1:
            xd_acc = 0
        strip = strip_def[node]
        if strip:
            md_acc &= ~strip
            xd_acc &= ~strip
            mu_acc &= ~strip_use[node]
        if (
            md_acc != may_def[node]
            or xd_acc != must_def[node]
            or mu_acc != may_use[node]
        ):
            may_def[node] = md_acc
            must_def[node] = xd_acc
            may_use[node] = mu_acc
            for dependent in dep_view[node]:
                if queued[dependent]:
                    skipped += 1
                else:
                    queued[dependent] = 1
                    pushed += 1
                    heappush(pocket, rank_of[dependent])
            depth = n_sweep - si + len(pocket)
            if depth > max_depth:
                max_depth = depth
    state.settle(seed_order)

    # revisits = visits minus distinct nodes visited.  Every non-frozen
    # node is seeded and every dynamic push re-targets a seed (dependent
    # rows only name interior nodes), so the distinct count is exactly
    # the seed count — no per-visit bookkeeping needed.
    record_solve(
        psg, "phase1", pushed, max_depth, counts,
        pushes=pushed, skipped=skipped, revisits=pushed - n_sweep,
        into=state.counts,
    )
    label_call_return_edges(psg, may_use, may_def, must_def, state.labeled)
    state.labeled = len(psg.cr_call)
    return Phase1Result(
        may_use=may_use,
        may_def=may_def,
        must_def=must_def,
        iterations=pushed,
    )
