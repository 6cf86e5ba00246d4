"""The object-graph phase engines: the reference the arena loops are
tested against.

These are the ``object``-core bodies of ``run_phase1``/``run_phase2``
as they stood in ``src/`` before the arena loops became the only
implementation, but for three things: they schedule in priority order
only, they read the edge table as records
(:func:`tests.records.flow_edges_of`) and derive their own adjacency
from it — so a production-vs-oracle comparison also cross-checks the
solver rows the build wrote against the edge table — and phase 1 runs
both halves of Figure 8 at every visit, as the production loop does.
Transfer functions are closures over edge objects and ``SummaryTriple``
labels, and scheduling is the single rank-keyed heap of
:class:`repro.dataflow.solver.SubgraphWorklist`; the production loops
must match :func:`run_phase1` and :func:`run_phase2` byte for byte
*and* counter for counter.

:func:`run_phase1_two_pass` is the defs-then-uses schedule phase 1 had
before: the reference for its answers (the three rows and the
call-return labels), not for its counters.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.cfg.cfg import ExitKind
from repro.dataflow.equations import SummaryTriple
from repro.dataflow.regset import TRACKED_MASK
from repro.dataflow.solver import SubgraphWorklist
from repro.interproc.phase1 import Phase1Result, Phase1State, record_solve
from repro.interproc.phase2 import (
    Phase2Result,
    Phase2State,
    conservative_exit_live_mask,
)
from repro.isa.calling_convention import CallingConvention
from repro.obs.metrics import REGISTRY
from repro.psg.graph import ProgramSummaryGraph, RoutinePSG
from repro.psg.nodes import NodeKind
from tests.records import call_return_edges_of, flow_edges_of


def _adjacency(psg: ProgramSummaryGraph):
    """``flow_out[n]`` = indices into the edge table leaving node ``n``
    (global edge order); ``cr_out[n]`` = index of its call-return edge,
    or None."""
    count = psg.node_count
    flow_out: List[List[int]] = [[] for _ in range(count)]
    for index, edge in enumerate(flow_edges_of(psg)):
        flow_out[edge.src].append(index)
    cr_out: List[Optional[int]] = [None] * count
    for index, edge in enumerate(call_return_edges_of(psg)):
        cr_out[edge.src] = index
    return flow_out, cr_out


def _dependents(psg: ProgramSummaryGraph) -> List[List[int]]:
    """dependents[m] = nodes whose transfer reads node m's state."""
    result: List[List[int]] = [[] for _ in range(psg.node_count)]
    for edge in flow_edges_of(psg):
        result[edge.dst].append(edge.src)
    for edge in call_return_edges_of(psg):
        result[edge.dst].append(edge.src)
        for callee in edge.callees:
            entry = psg.routines[callee].entry_node
            result[entry].append(edge.src)
    return result


def _unseeded(node_count: int, seed_order: Sequence[int]) -> List[bool]:
    """Frozen flags with every node ``seed_order`` omits frozen."""
    frozen = [True] * node_count
    for node in seed_order:
        frozen[node] = False
    return frozen


def _label_call_return_edges(
    psg: ProgramSummaryGraph,
    entry_of: Dict[str, int],
    may_use: Sequence[int],
    may_def: Sequence[int],
    must_def: Sequence[int],
) -> None:
    """Every resolved call-return edge's label: its callees' entry
    values, found by name."""
    for index, edge in enumerate(call_return_edges_of(psg)):
        if edge.is_unknown:
            continue
        label_mu = 0
        label_md = 0
        label_xd = -1
        for callee in edge.callees:
            entry = entry_of[callee]
            label_mu |= may_use[entry]
            label_md |= may_def[entry]
            label_xd &= must_def[entry]
        psg.cr_label[index] = SummaryTriple(
            may_use=label_mu, may_def=label_md, must_def=label_xd & TRACKED_MASK
        )


def _exit_fixed_values(kind: ExitKind) -> SummaryTriple:
    if kind == ExitKind.RETURN:
        return SummaryTriple(0, 0, 0)
    if kind == ExitKind.HALT:
        return SummaryTriple(0, 0, TRACKED_MASK)
    return SummaryTriple(TRACKED_MASK, TRACKED_MASK, 0)  # UNKNOWN_JUMP


class _Phase1Problem:
    """The Figure-8 system over ``psg``: the three value rows (extended
    from ``state``), the frozen flags, the dependents, and one transfer
    per half — ``defs`` recomputes a node's MAY-DEF and MUST-DEF,
    ``uses`` its MAY-USE from the current MUST-DEF kills."""

    def __init__(
        self,
        psg: ProgramSummaryGraph,
        saved_restored: Dict[str, int],
        preserved_mask: int,
        seed_order: Sequence[int],
        fixed_entries: Optional[Dict[int, SummaryTriple]],
        state: Optional[Phase1State],
    ) -> None:
        node_count = psg.node_count
        state = state or Phase1State()
        known = len(state.may_use)
        added = node_count - known
        may_def = state.may_def + [0] * added
        # MUST-DEF is a ∩-meet problem: interior nodes start at ⊤ and
        # shrink (greatest fixed point), the standard must-analysis
        # initialization; see the note in repro.dataflow.equations.
        must_def = state.must_def + [TRACKED_MASK] * added
        may_use = state.may_use + [0] * added
        is_exit = _unseeded(node_count, seed_order)
        rows = zip(psg.node_kind[known:], psg.node_detail[known:])
        for node, (kind, exit_kind) in enumerate(rows, known):
            if kind == NodeKind.EXIT:
                assert exit_kind is not None
                fixed = _exit_fixed_values(exit_kind)
                may_use[node] = fixed.may_use
                may_def[node] = fixed.may_def
                must_def[node] = fixed.must_def
                is_exit[node] = True
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
        flow_edges = flow_edges_of(psg)
        cr_edges = call_return_edges_of(psg)
        self.psg, self.state, self.entry_of = psg, state, entry_of
        self.seed_order = seed_order
        self.may_use, self.may_def, self.must_def = may_use, may_def, must_def
        self.is_exit, self.dependents = is_exit, dependents
        self.visit_counts = [0] * node_count if REGISTRY.per_routine else None

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
                    # Multi-target sites (§3.5 hints) combine their
                    # callees: MAY by union, MUST by intersection.
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
            changed = (
                md_acc != may_def[node_id] or xd_acc != must_def[node_id]
            )
            may_def[node_id] = md_acc
            must_def[node_id] = xd_acc
            return changed
        self.defs = defs_transfer

        def uses_transfer(node_id: int) -> bool:
            mu_acc = 0
            for edge_index in flow_out[node_id]:
                edge = flow_edges[edge_index]
                label = edge.label
                mu_acc |= label.may_use | (
                    may_use[edge.dst] & ~label.must_def
                )
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
        self.uses = uses_transfer

    def worklist(self) -> SubgraphWorklist:
        return SubgraphWorklist(
            self.psg.node_count, self.dependents, self.is_exit,
            self.seed_order,
        )

    def finish(self, iterations: int, worklists: Sequence[SubgraphWorklist]):
        """Record the solve, label the call-return edges and write the
        rows back into the state."""
        record_solve(
            self.psg,
            "phase1",
            iterations,
            max(worklist.max_depth for worklist in worklists),
            self.visit_counts,
            pushes=sum(worklist.pushes for worklist in worklists),
            skipped=sum(worklist.skipped for worklist in worklists),
            revisits=sum(worklist.revisits for worklist in worklists),
        )
        may_use, may_def, must_def = self.may_use, self.may_def, self.must_def
        # Persist the final labels on the resolved call-return edges;
        # phase 2 re-reads them ("retained for the second dataflow
        # phase").
        _label_call_return_edges(
            self.psg, self.entry_of, may_use, may_def, must_def
        )
        state = self.state
        state.may_use[:], state.may_def[:], state.must_def[:] = (
            may_use, may_def, must_def
        )
        return Phase1Result(
            may_use=may_use,
            may_def=may_def,
            must_def=must_def,
            iterations=iterations,
        )


def run_phase1(
    psg: ProgramSummaryGraph,
    saved_restored: Dict[str, int],
    preserved_mask: int,
    seed_order: Sequence[int],
    fixed_entries: Optional[Dict[int, SummaryTriple]] = None,
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

    ``state`` holds the values of earlier solves over a smaller version
    of the same graph: the nodes it covers keep them, and every node
    ``seed_order`` omits is frozen.  Its rows are extended to the graph.
    ``routines`` is not read: the seeded exits are found from the node
    rows.
    """
    problem = _Phase1Problem(
        psg, saved_restored, preserved_mask, seed_order, fixed_entries, state
    )
    defs, uses = problem.defs, problem.uses
    worklist = problem.worklist()
    # Both halves at every visit, neither short-circuiting the other.
    iterations = worklist.run(
        lambda node: defs(node) | uses(node), problem.visit_counts
    )
    return problem.finish(iterations, [worklist])


def run_phase1_two_pass(
    psg: ProgramSummaryGraph,
    saved_restored: Dict[str, int],
    preserved_mask: int,
    seed_order: Sequence[int],
    fixed_entries: Optional[Dict[int, SummaryTriple]] = None,
    state: Optional[Phase1State] = None,
    routines: Optional[Iterable[RoutinePSG]] = None,
) -> Phase1Result:
    """:func:`run_phase1` as two monotone passes: MAY-DEF and MUST-DEF
    to their fixed point first, then MAY-USE with those MUST-DEF values
    as final kills — the schedule the one-worklist solve replaced, kept
    as the reference for its answers (its counters are its own)."""
    problem = _Phase1Problem(
        psg, saved_restored, preserved_mask, seed_order, fixed_entries, state
    )
    defs_worklist = problem.worklist()
    iterations = defs_worklist.run(problem.defs, problem.visit_counts)
    uses_worklist = problem.worklist()
    iterations += uses_worklist.run(problem.uses, problem.visit_counts)
    return problem.finish(iterations, [defs_worklist, uses_worklist])


def run_phase2(
    psg: ProgramSummaryGraph,
    externally_callable: Set[str],
    convention: CallingConvention,
    seed_order: Sequence[int],
    extra_exit_live: Optional[Dict[int, int]] = None,
    state: Optional[Phase2State] = None,
    routines: Optional[Iterable[RoutinePSG]] = None,
) -> Phase2Result:
    """Run phase 2 over a PSG whose call-return edges are labeled.

    ``extra_exit_live`` adds initial liveness at specific exit nodes
    (node id -> mask), merged on top of the standard boundary
    conditions.  The incremental engine uses it to inject the cached
    live-after masks of *callers outside the partial PSG*: their
    return-point liveness must still reach the exits of the routines
    being re-solved, even though the callers themselves are not.

    ``state`` holds the liveness of earlier solves over the same, maybe
    smaller, graph: every node ``seed_order`` omits keeps its value,
    frozen, and the seeded exits take their boundary values.  Its row
    is extended to the graph.  ``routines`` is not read: the seeded
    exits are found from the node rows.
    """
    node_count = psg.node_count
    state = state or Phase2State()
    may_use = state.may_use + [0] * (node_count - len(state.may_use))
    is_exit = _unseeded(node_count, seed_order)

    conservative = conservative_exit_live_mask(convention)
    for node in seed_order:
        kind, exit_kind = psg.node_kind[node], psg.node_detail[node]
        if kind != NodeKind.EXIT:
            continue
        is_exit[node] = True
        may_use[node] = 0
        if exit_kind == ExitKind.UNKNOWN_JUMP:
            may_use[node] = TRACKED_MASK
        elif (
            exit_kind == ExitKind.RETURN
            and psg.node_routine[node] in externally_callable
        ):
            may_use[node] = conservative
        # HALT and internal RETURN exits start at ∅.
    if extra_exit_live:
        for node_id, mask in extra_exit_live.items():
            may_use[node_id] |= mask

    # return node id -> RETURN-kind exit node ids of every possible
    # callee (a hinted site's liveness flows to each candidate's exits).
    return_to_exits: Dict[int, List[int]] = {}
    for edge in call_return_edges_of(psg):
        exits: List[int] = []
        for callee in edge.callees:
            exits.extend(psg.routines[callee].return_exit_nodes())
        if exits:
            return_to_exits[edge.dst] = exits

    flow_edges = flow_edges_of(psg)
    dependents: List[List[int]] = [[] for _ in range(node_count)]
    for edge in flow_edges:
        dependents[edge.dst].append(edge.src)
    for edge in call_return_edges_of(psg):
        dependents[edge.dst].append(edge.src)

    cr_edges = call_return_edges_of(psg)
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
    state.may_use[:] = may_use
    return Phase2Result(may_use=may_use, iterations=iterations)
