"""The object-graph phase engines: the reference the arena loops are
tested against.

These are the ``object``-core bodies of ``run_phase1``/``run_phase2``
as they stood in ``src/`` before the arena loops became the only
implementation, verbatim but for two things: they schedule in priority
order only, and they read ``psg.flow_edges`` (the edge table
materialised as objects) and derive their own adjacency from it — so a
production-vs-oracle comparison also cross-checks the solver rows the
build wrote against the edge table.  Transfer functions are closures
over edge objects and ``SummaryTriple`` labels, and scheduling is the
single rank-keyed heap of
:class:`repro.dataflow.solver.SubgraphWorklist`; the production loops
must match them byte for byte *and* counter for counter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.cfg.cfg import ExitKind
from repro.dataflow.equations import SummaryTriple
from repro.dataflow.regset import TRACKED_MASK
from repro.dataflow.solver import SubgraphWorklist
from repro.interproc.flatcore import label_call_return_edges
from repro.interproc.phase1 import Phase1Result, record_solve
from repro.interproc.phase2 import Phase2Result, conservative_exit_live_mask
from repro.isa.calling_convention import CallingConvention
from repro.obs.metrics import REGISTRY
from repro.psg.graph import ProgramSummaryGraph
from repro.psg.nodes import NodeKind


def _adjacency(psg: ProgramSummaryGraph):
    """``flow_out[n]`` = indices into ``psg.flow_edges`` leaving node
    ``n`` (global edge order); ``cr_out[n]`` = index of its call-return
    edge, or None."""
    count = len(psg.nodes)
    flow_out: List[List[int]] = [[] for _ in range(count)]
    for index, edge in enumerate(psg.flow_edges):
        flow_out[edge.src].append(index)
    cr_out: List[Optional[int]] = [None] * count
    for index, edge in enumerate(psg.call_return_edges):
        cr_out[edge.src] = index
    return flow_out, cr_out


def _dependents(psg: ProgramSummaryGraph) -> List[List[int]]:
    """dependents[m] = nodes whose transfer reads node m's state."""
    result: List[List[int]] = [[] for _ in range(len(psg.nodes))]
    for edge in psg.flow_edges:
        result[edge.dst].append(edge.src)
    for edge in psg.call_return_edges:
        result[edge.dst].append(edge.src)
        for callee in edge.callees:
            entry = psg.routines[callee].entry_node
            result[entry].append(edge.src)
    return result


def _exit_fixed_values(kind: ExitKind) -> SummaryTriple:
    if kind == ExitKind.RETURN:
        return SummaryTriple(0, 0, 0)
    if kind == ExitKind.HALT:
        return SummaryTriple(0, 0, TRACKED_MASK)
    return SummaryTriple(TRACKED_MASK, TRACKED_MASK, 0)  # UNKNOWN_JUMP


def run_phase1(
    psg: ProgramSummaryGraph,
    saved_restored: Dict[str, int],
    preserved_mask: int,
    seed_order: Sequence[int],
    fixed_entries: Optional[Dict[int, SummaryTriple]] = None,
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
    """
    node_count = len(psg.nodes)
    nodes = psg.nodes
    may_def = [0] * node_count
    # MUST-DEF is a ∩-meet problem: interior nodes start at ⊤ and shrink
    # (greatest fixed point), the standard must-analysis initialization;
    # see the note in repro.dataflow.equations.
    must_def = [TRACKED_MASK] * node_count
    may_use = [0] * node_count
    is_exit = [False] * node_count
    for node in nodes:
        if node.kind == NodeKind.EXIT:
            assert node.exit_kind is not None
            fixed = _exit_fixed_values(node.exit_kind)
            may_use[node.id] = fixed.may_use
            may_def[node.id] = fixed.may_def
            must_def[node.id] = fixed.must_def
            is_exit[node.id] = True
    if fixed_entries:
        for node_id, triple in fixed_entries.items():
            may_use[node_id] = triple.may_use
            may_def[node_id] = triple.may_def
            must_def[node_id] = triple.must_def
            is_exit[node_id] = True

    entry_strip: Dict[int, int] = {}
    entry_strip_defs: Dict[int, int] = {}
    for name, routine_psg in psg.routines.items():
        strip = saved_restored.get(name, 0)
        entry_strip[routine_psg.entry_node] = strip
        entry_strip_defs[routine_psg.entry_node] = strip | preserved_mask
    entry_of = {
        name: routine_psg.entry_node
        for name, routine_psg in psg.routines.items()
    }

    dependents = _dependents(psg)
    flow_out, cr_out = _adjacency(psg)
    flow_edges = psg.flow_edges
    cr_edges = psg.call_return_edges

    # ------------------------------------------------------------------
    # Pass A: MAY-DEF and MUST-DEF
    # ------------------------------------------------------------------
    def defs_transfer(node_id: int) -> bool:
        md_acc = 0
        xd_acc = -1  # "top" sentinel: intersection identity
        for edge_index in flow_out[node_id]:
            edge = flow_edges[edge_index]
            label = edge.label
            md_acc |= may_def[edge.dst] | label.may_def
            xd_acc &= must_def[edge.dst] | label.must_def
        cr_index = cr_out[node_id]
        if cr_index is not None:
            edge = cr_edges[cr_index]
            if edge.is_unknown:
                label_md = edge.label.may_def
                label_xd = edge.label.must_def
            else:
                # Multi-target sites (§3.5 hints) combine their callees:
                # MAY by union, MUST by intersection.
                label_md = 0
                label_xd = -1
                for callee in edge.callees:
                    entry = entry_of[callee]
                    label_md |= may_def[entry]
                    label_xd &= must_def[entry]
            md_acc |= may_def[edge.dst] | label_md
            xd_acc &= must_def[edge.dst] | label_xd
        if xd_acc == -1:
            xd_acc = 0
        strip = entry_strip_defs.get(node_id)
        if strip is not None:
            md_acc &= ~strip
            xd_acc &= ~strip
        changed = md_acc != may_def[node_id] or xd_acc != must_def[node_id]
        may_def[node_id] = md_acc
        must_def[node_id] = xd_acc
        return changed

    visit_counts = [0] * node_count if REGISTRY.per_routine else None
    defs_worklist = SubgraphWorklist(node_count, dependents, is_exit, seed_order)
    iterations = defs_worklist.run(defs_transfer, visit_counts)

    # ------------------------------------------------------------------
    # Pass B: MAY-USE, with MUST-DEF now final
    # ------------------------------------------------------------------
    def uses_transfer(node_id: int) -> bool:
        mu_acc = 0
        for edge_index in flow_out[node_id]:
            edge = flow_edges[edge_index]
            label = edge.label
            mu_acc |= label.may_use | (may_use[edge.dst] & ~label.must_def)
        cr_index = cr_out[node_id]
        if cr_index is not None:
            edge = cr_edges[cr_index]
            if edge.is_unknown:
                label_mu = edge.label.may_use
                label_xd = edge.label.must_def
            else:
                label_mu = 0
                label_xd = -1
                for callee in edge.callees:
                    entry = entry_of[callee]
                    label_mu |= may_use[entry]
                    label_xd &= must_def[entry]
            mu_acc |= label_mu | (may_use[edge.dst] & ~label_xd)
        strip = entry_strip.get(node_id)
        if strip is not None:
            mu_acc &= ~strip
        changed = mu_acc != may_use[node_id]
        may_use[node_id] = mu_acc
        return changed

    uses_worklist = SubgraphWorklist(node_count, dependents, is_exit, seed_order)
    iterations += uses_worklist.run(uses_transfer, visit_counts)
    record_solve(
        psg,
        "phase1",
        iterations,
        max(defs_worklist.max_depth, uses_worklist.max_depth),
        visit_counts,
        pushes=defs_worklist.pushes + uses_worklist.pushes,
        skipped=defs_worklist.skipped + uses_worklist.skipped,
        revisits=defs_worklist.revisits + uses_worklist.revisits,
    )

    # Persist the final labels on the resolved call-return edges; phase 2
    # re-reads them ("retained for the second dataflow phase").
    label_call_return_edges(
        psg, entry_of, may_use, may_def, must_def
    )

    return Phase1Result(
        may_use=may_use,
        may_def=may_def,
        must_def=must_def,
        iterations=iterations,
    )


def run_phase2(
    psg: ProgramSummaryGraph,
    externally_callable: Set[str],
    convention: CallingConvention,
    seed_order: Sequence[int],
    extra_exit_live: Optional[Dict[int, int]] = None,
) -> Phase2Result:
    """Run phase 2 over a PSG whose call-return edges are labeled.

    ``extra_exit_live`` adds initial liveness at specific exit nodes
    (node id -> mask), merged on top of the standard boundary
    conditions.  The incremental engine uses it to inject the cached
    live-after masks of *callers outside the partial PSG*: their
    return-point liveness must still reach the exits of the routines
    being re-solved, even though the callers themselves are not.
    """
    node_count = len(psg.nodes)
    nodes = psg.nodes
    may_use = [0] * node_count
    is_exit = [False] * node_count

    conservative = conservative_exit_live_mask(convention)
    for node in nodes:
        if node.kind != NodeKind.EXIT:
            continue
        is_exit[node.id] = True
        if node.exit_kind == ExitKind.UNKNOWN_JUMP:
            may_use[node.id] = TRACKED_MASK
        elif node.exit_kind == ExitKind.RETURN and node.routine in externally_callable:
            may_use[node.id] = conservative
        # HALT and internal RETURN exits start at ∅.
    if extra_exit_live:
        for node_id, mask in extra_exit_live.items():
            may_use[node_id] |= mask

    # return node id -> RETURN-kind exit node ids of every possible
    # callee (a hinted site's liveness flows to each candidate's exits).
    return_to_exits: Dict[int, List[int]] = {}
    for edge in psg.call_return_edges:
        exits: List[int] = []
        for callee in edge.callees:
            exits.extend(psg.routines[callee].return_exit_nodes())
        if exits:
            return_to_exits[edge.dst] = exits

    dependents: List[List[int]] = [[] for _ in range(node_count)]
    for edge in psg.flow_edges:
        dependents[edge.dst].append(edge.src)
    for edge in psg.call_return_edges:
        dependents[edge.dst].append(edge.src)

    flow_edges = psg.flow_edges
    cr_edges = psg.call_return_edges
    flow_out, cr_out = _adjacency(psg)

    worklist = SubgraphWorklist(node_count, dependents, is_exit, seed_order)

    def transfer(node_id: int) -> bool:
        mu_acc = 0
        for edge_index in flow_out[node_id]:
            edge = flow_edges[edge_index]
            label = edge.label
            mu_acc |= label.may_use | (may_use[edge.dst] & ~label.must_def)
        cr_index = cr_out[node_id]
        if cr_index is not None:
            edge = cr_edges[cr_index]
            label = edge.label
            mu_acc |= label.may_use | (may_use[edge.dst] & ~label.must_def)
        if mu_acc == may_use[node_id]:
            return False
        may_use[node_id] = mu_acc
        # Return node -> callee exit copies (the dashed arcs of Fig. 11).
        # Exit nodes are frozen, so their dependents are enqueued by
        # hand when a copy lands new bits on them.
        for exit_node in return_to_exits.get(node_id, ()):
            merged = may_use[exit_node] | mu_acc
            if merged != may_use[exit_node]:
                may_use[exit_node] = merged
                for dependent in dependents[exit_node]:
                    worklist.enqueue(dependent)
        return True

    visit_counts = [0] * node_count if REGISTRY.per_routine else None
    iterations = worklist.run(transfer, visit_counts)
    record_solve(
        psg, "phase2", iterations, worklist.max_depth, visit_counts,
        pushes=worklist.pushes, skipped=worklist.skipped,
        revisits=worklist.revisits,
    )
    return Phase2Result(may_use=may_use, iterations=iterations)
