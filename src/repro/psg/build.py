"""PSG construction (§3.1, §3.6).

For each routine Spike produces an entry node, exit nodes, a call and a
return node per call instruction and — when enabled — a branch node per
multiway branch.  Flow-summary edges connect a *source* (entry, return
or branch node) to a *target* (exit, call or branch node) whenever a
control-flow path exists between their locations that does not pass
through another boundary, and each edge is labeled by running the
Figure-6 equations over the CFG subgraph its paths cover.

Three labeling strategies produce the same edges, with bit-identical
labels, in the same order (the test suite asserts all three):

* ``per_edge_labeling=True`` — the paper's literal procedure: carve the
  subgraph ``forward(src) ∩ backward(dst)`` and solve it, once per
  edge;
* ``labeling="per-target"`` — solve once per *target* over
  ``backward(dst)`` and read the converged IN sets at each source's
  start blocks.  Because a backward solution at a block only depends on
  blocks it reaches, the labels are identical; it is simply cheaper.
* ``labeling="batched"`` (default) — label *every* target of the
  routine in one successors-first sweep of the boundary-cut graph
  (:func:`~repro.dataflow.equations.sweep_targets`): every target is a
  sink of that graph, so each block carries a map from the targets it
  reaches to its converged triple for each.  Edges are then read off
  the maps at each source's start blocks — work proportional to the
  edges produced, not to sources × targets — and emitted grouped by
  target, sources in order, as the other two emit them (the order
  decides the solvers' visit counts).

The first two are the oracles the third is tested against.
Construction itself is kept cheap too: nodes and edges are built
positionally, each flow edge is appended once — into the edge table and
the rows the solver iterates (:class:`PsgAssembly`,
:mod:`repro.psg.arena`) — labels are interned in a table the build
owns, and the graph's ``check()`` — still run on every build — tests
each distinct label once.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.metrics import REGISTRY
from repro.obs.tracer import span

from repro.isa.calling_convention import CallingConvention, NT_ALPHA
from repro.dataflow.equations import (
    SummaryTriple,
    Triple,
    label_from_starts,
    meet_target_maps,
    solve_summary_subgraph,
    sweep_targets,
)
from repro.dataflow.local import LocalSets
from repro.dataflow.regset import mask_of
from repro.program.model import Program
from repro.cfg.cfg import (
    BasicBlock,
    CallSite,
    ControlFlowGraph,
    ExitKind,
    TerminatorKind,
)
from repro.cfg.subgraph import backward_reachable, forward_reachable
from repro.psg.arena import PsgArena
from repro.psg.graph import ProgramSummaryGraph, RoutinePSG
from repro.psg.nodes import CallReturnEdge, NodeKind, PSGNode


_log = logging.getLogger(__name__)


class PsgBuildError(ValueError):
    """Raised when a routine's control flow defeats the PSG model.

    The one such case is a *boundary-free infinite loop*: blocks
    reachable from a PSG source that cannot reach any exit or call.
    Register uses inside such a loop have no flow-summary edge to live
    on, so the PSG (as defined in the paper) would silently drop them;
    we refuse instead.
    """


@dataclass(frozen=True)
class PsgConfig:
    """Construction options.

    ``branch_nodes`` toggles §3.6 (the Table-4 ablation builds with it
    off); ``multiway_threshold`` is the minimum number of distinct
    successor blocks a multiway branch needs before it earns a branch
    node; ``labeling`` picks the flow-summary labeling strategy
    (``"batched"`` or ``"per-target"``; see the module docstring);
    ``per_edge_labeling`` selects the paper-literal per-edge subgraph
    solve and overrides ``labeling`` when set.
    """

    branch_nodes: bool = True
    multiway_threshold: int = 2
    per_edge_labeling: bool = False
    labeling: str = "batched"
    convention: CallingConvention = field(default_factory=lambda: NT_ALPHA)

    def __post_init__(self) -> None:
        if self.labeling not in ("batched", "per-target"):
            raise ValueError(
                f"unknown labeling strategy {self.labeling!r} "
                f"(expected 'batched' or 'per-target')"
            )


#: The label of a resolved call-return edge until phase 1 writes it.
_UNLABELED = SummaryTriple()


def unknown_call_label(convention: CallingConvention) -> SummaryTriple:
    """The §3.5 calling-standard label for unknown-target calls."""
    return SummaryTriple(
        may_use=mask_of(convention.unknown_call_used()),
        may_def=mask_of(convention.unknown_call_killed()),
        must_def=mask_of(convention.unknown_call_defined()),
    )


class PsgAssembly:
    """The one way a PSG comes into being: nodes, call-return edges and
    routines are appended to the lists below, flow edges go through
    :meth:`add_flow_edges`, and :meth:`finish` hands the lot to a
    :class:`ProgramSummaryGraph`.

    Each flow edge is written once, into the arena's edge table and
    the per-node rows the solver iterates (:mod:`repro.psg.arena`).
    Labels are interned in a table the build owns: equal triples share
    one index — and one set of boxed masks — across the graph (labels
    repeat heavily).
    """

    def __init__(self) -> None:
        self.nodes: List[PSGNode] = []
        self.call_return_edges: List[CallReturnEdge] = []
        self.routines: Dict[str, RoutinePSG] = {}
        #: raw label -> (index in ``labels``, its three masks, ~MUST-DEF).
        self.interned: Dict[Triple, Tuple[int, int, int, int, int]] = {}
        self.labels: List[Triple] = []
        self.edge_src = array("i")
        self.edge_dst = array("i")
        self.edge_label = array("i")
        # Per-node rows, lists until finish() freezes them.
        self.flow_rows: List[List[Tuple[int, int, int]]] = []
        self.defs_static: List[int] = []
        self.uses_static: List[int] = []
        self.dependents: List[List[int]] = []
        #: ``psg.label.visits``: map entries the labeling sweeps wrote;
        #: ``psg.label.pairs``: (source, target) pairs read off the maps.
        self.label_visits = self.label_pairs = 0

    def _grow_rows(self) -> None:
        """Extend the per-node rows to cover every node appended so far."""
        missing = len(self.nodes) - len(self.dependents)
        self.flow_rows.extend([[] for _ in range(missing)])
        self.dependents.extend([[] for _ in range(missing)])
        self.defs_static.extend([0] * missing)
        self.uses_static.extend([0] * missing)

    def add_flow_edges(self, labeled: Sequence[Tuple[int, int, Triple]]) -> range:
        """Append ``(src, dst, raw label)`` edges in order; returns
        their indices in the program-level edge table."""
        self._grow_rows()
        interned, labels = self.interned, self.labels
        edge_src, edge_dst = self.edge_src, self.edge_dst
        edge_label = self.edge_label
        flow_rows = self.flow_rows
        defs_static, uses_static = self.defs_static, self.uses_static
        dependents = self.dependents
        first = len(edge_src)
        for src, dst, key in labeled:
            label = interned.get(key)
            if label is None:
                may_use, may_def, must_def = key
                label = interned[key] = (
                    len(labels), may_use, may_def, must_def, ~must_def
                )
                labels.append(key)
            index, may_use, may_def, must_def, not_must_def = label
            edge_src.append(src)
            edge_dst.append(dst)
            edge_label.append(index)
            flow_rows[src].append((dst, must_def, not_must_def))
            defs_static[src] |= may_def
            uses_static[src] |= may_use
            dependents[dst].append(src)
        return range(first, len(edge_src))

    def finish(self, partial: bool) -> ProgramSummaryGraph:
        """Freeze the rows, fill the arena's call-return side (every
        entry node is known by now), check the graph and record its
        sizes in the obs registry.

        Partial builds (incremental cones, parallel shards) add into the
        same size counters — the totals then read as "PSG construction
        work performed this run", which is the Table-5 quantity that
        matters.
        """
        self._grow_rows()
        nodes, routines = self.nodes, self.routines
        count = len(nodes)

        # Call-return successor (at most one per node): a resolved call
        # carries its callees' entry node ids (``cr_callees[n]`` empty +
        # successor present <=> unknown call, whose fixed label is in
        # ``cr_unknown``), its return node copies liveness to the
        # RETURN-kind exits of every possible callee, and a callee's
        # entry is re-read (phase 1 only) by every call site.  What a
        # site needs of a callee is worked out once per routine, so the
        # many monomorphic sites of a popular routine share its tuples.
        empty: Tuple[int, ...] = ()
        cr_dst = [-1] * count
        #: Fast path for the overwhelmingly common monomorphic call:
        #: the callee's entry node when a call resolves to exactly one
        #: routine, else -1 (polymorphic or unknown).
        cr_single = [-1] * count
        cr_callees: List[Tuple[int, ...]] = [empty] * count
        cr_unknown: Dict[int, Triple] = {}
        ret_view: List[Tuple[int, ...]] = [empty] * count
        dependents = self.dependents
        #: routine -> (entry, (entry,), RETURN exits, its call nodes)
        targets = {
            name: (
                routine_psg.entry_node, (routine_psg.entry_node,),
                tuple(routine_psg.return_exit_nodes()), [],
            )
            for name, routine_psg in routines.items()
        }
        for edge in self.call_return_edges:
            src, dst, callees = edge.src, edge.dst, edge.callees
            cr_dst[src] = dst
            dependents[dst].append(src)
            if len(callees) == 1:
                target = targets[callees[0]]
                target[3].append(src)
                cr_single[src], cr_callees[src], ret_view[dst], _ = target
            elif callees:
                site = [targets[callee] for callee in callees]
                for target in site:
                    target[3].append(src)
                cr_callees[src] = tuple(target[0] for target in site)
                ret_view[dst] = tuple(
                    node for target in site for node in target[2]
                )
            else:
                label = edge.label
                cr_unknown[src] = (label.may_use, label.may_def, label.must_def)
        dep2_view = list(map(tuple, dependents))
        dep1_view = list(dep2_view)
        for entry, _entries, _exits, call_nodes in targets.values():
            if call_nodes:
                dep1_view[entry] += tuple(call_nodes)
        arena = PsgArena(
            edge_src=self.edge_src,
            edge_dst=self.edge_dst,
            edge_label=self.edge_label,
            labels=self.labels,
            flow_view=list(map(tuple, self.flow_rows)),
            defs_static=self.defs_static,
            uses_static=self.uses_static,
            cr_dst=cr_dst,
            cr_single=cr_single,
            cr_nodes=[edge.src for edge in self.call_return_edges],
            cr_callees=cr_callees,
            cr_unknown=cr_unknown,
            dep1_view=dep1_view,
            dep2_view=dep2_view,
            ret_view=ret_view,
        )
        psg = ProgramSummaryGraph(
            nodes, self.call_return_edges, routines, arena
        )
        psg.check()
        REGISTRY.inc("psg.partial_builds" if partial else "psg.builds")
        REGISTRY.inc("psg.nodes", count)
        REGISTRY.inc("psg.flow_edges", psg.flow_edge_count)
        REGISTRY.inc("psg.call_return_edges", len(psg.call_return_edges))
        REGISTRY.inc("psg.branch_nodes", psg.branch_node_count)
        REGISTRY.inc("psg.label.visits", self.label_visits)
        REGISTRY.inc("psg.label.pairs", self.label_pairs)
        return psg


def build_psg(
    program: Program,
    cfgs: Dict[str, ControlFlowGraph],
    local_sets: Dict[str, Sequence[LocalSets]],
    config: Optional[PsgConfig] = None,
) -> ProgramSummaryGraph:
    """Build the whole-program PSG."""
    config = config or PsgConfig()
    assembly = PsgAssembly()
    with span("psg.build", routines=len(cfgs)):
        for routine in program:
            build_routine_psg(
                cfgs[routine.name], local_sets[routine.name], config, assembly
            )
        psg = assembly.finish(partial=False)
    _log.debug(
        "built PSG: %d routines, %d nodes, %d flow edges, %d call-return edges",
        len(psg.routines), len(psg.nodes), psg.flow_edge_count,
        len(psg.call_return_edges),
    )
    return psg


@dataclass
class PartialPsg:
    """A PSG over a subset of the program's routines.

    ``external_entries`` maps each callee *outside* the subset to a
    dummy entry node: the incremental engine pins those nodes at the
    callee's already-known phase-1 triple (via ``run_phase1``'s
    ``fixed_entries``), so calls leaving the subset read converged
    summaries instead of re-solving the callee.  Dummy routines carry
    no exit nodes, so phase 2's return-to-exit liveness copies stop at
    the subset boundary (the boundary flow is injected as
    ``extra_exit_live`` seeds instead).
    """

    psg: ProgramSummaryGraph
    members: List[str]
    external_entries: Dict[str, int]


def build_partial_psg(
    cfgs: Dict[str, ControlFlowGraph],
    local_sets: Dict[str, Sequence[LocalSets]],
    members: Sequence[str],
    config: Optional[PsgConfig] = None,
) -> PartialPsg:
    """Build a PSG containing only ``members``, with dummy pinned-entry
    nodes standing in for callees outside the subset."""
    config = config or PsgConfig()
    assembly = PsgAssembly()
    member_set = set(members)
    with span("psg.build_partial", members=len(members)):
        for name in members:
            build_routine_psg(cfgs[name], local_sets[name], config, assembly)
        external_entries: Dict[str, int] = {}
        for edge in assembly.call_return_edges:
            for callee in edge.callees:
                if callee in member_set or callee in external_entries:
                    continue
                node_id = len(assembly.nodes)
                assembly.nodes.append(PSGNode(node_id, NodeKind.ENTRY, callee, 0))
                external_entries[callee] = node_id
                assembly.routines[callee] = RoutinePSG(callee, node_id, [], [], [])
        psg = assembly.finish(partial=True)
    _log.debug(
        "built partial PSG: %d members, %d external entries, %d nodes",
        len(members), len(external_entries), len(psg.nodes),
    )
    return PartialPsg(
        psg=psg, members=list(members), external_entries=external_entries
    )


def build_routine_psg(
    cfg: ControlFlowGraph,
    local_sets: Sequence[LocalSets],
    config: PsgConfig,
    assembly: PsgAssembly,
) -> RoutinePSG:
    """Build one routine's nodes and edges into ``assembly``."""
    name, blocks, nodes = cfg.routine.name, cfg.blocks, assembly.nodes

    # ------------------------------------------------------------------
    # Nodes — entry, exits, a call/return pair per site, branch nodes,
    # ids consecutive — and with them the edge sources (node, start
    # blocks), the targets (node, block) and the boundary cut
    # ------------------------------------------------------------------
    entry_node = node_id = len(nodes)
    nodes.append(PSGNode(node_id, NodeKind.ENTRY, name, cfg.entry_index))
    sources: List[Tuple[int, Sequence[int]]] = [(node_id, (cfg.entry_index,))]
    targets: List[Tuple[int, int]] = []
    blocked: Set[int] = set()
    exit_nodes: List[Tuple[int, ExitKind]] = []
    for block_index, exit_kind in cfg.exits:
        node_id += 1
        nodes.append(PSGNode(node_id, NodeKind.EXIT, name, block_index, exit_kind))
        exit_nodes.append((node_id, exit_kind))
        targets.append((node_id, block_index))
    call_pairs: List[Tuple[int, int, CallSite]] = []
    for site in cfg.call_sites:
        call_node, return_node, node_id = node_id + 1, node_id + 2, node_id + 2
        nodes.append(PSGNode(call_node, NodeKind.CALL, name, site.block, None, site))
        nodes.append(
            PSGNode(return_node, NodeKind.RETURN, name, site.block, None, site)
        )
        call_pairs.append((call_node, return_node, site))
        targets.append((call_node, site.block))
        sources.append((return_node, blocks[site.block].successors))
        blocked.add(site.block)
        label = unknown_call_label(config.convention) if site.is_unknown else _UNLABELED
        assembly.call_return_edges.append(
            CallReturnEdge(call_node, return_node, site.targets, label)
        )
    branch_nodes: List[int] = []
    if config.branch_nodes:
        for block in blocks:
            if (
                block.terminator == TerminatorKind.MULTIWAY
                and len(block.successors) >= config.multiway_threshold
            ):
                node_id += 1
                nodes.append(PSGNode(node_id, NodeKind.BRANCH, name, block.index))
                branch_nodes.append(node_id)
                targets.append((node_id, block.index))
                sources.append((node_id, block.successors))
                blocked.add(block.index)

    # ------------------------------------------------------------------
    # Edges: grouped by target, sources in order within a target — the
    # order decides the solvers' visit counts, so every strategy keeps it
    # ------------------------------------------------------------------
    if config.per_edge_labeling or config.labeling != "batched":
        reaching, labeled = _label_by_region(
            blocks, local_sets, blocked, sources, targets,
            config.per_edge_labeling,
        )
    else:
        # One sweep labels every target; the edges are then read off the
        # maps at each source's start blocks, one (source, target) pair
        # examined per edge produced.
        position = {block: index for index, (_node, block) in enumerate(targets)}
        maps, visits = sweep_targets(blocks, local_sets, blocked, set(position))
        reaching = {index for index, reached in enumerate(maps) if reached}
        by_target: List[List[Tuple[int, Triple]]] = [[] for _ in targets]
        for src_node, starts in sources:
            reached = meet_target_maps(maps, starts)
            assembly.label_pairs += len(reached)
            for block, triple in reached.items():
                by_target[position[block]].append((src_node, triple))
        labeled = [
            (src_node, dst_node, triple)
            for (dst_node, _block), arrivals in zip(targets, by_target)
            for src_node, triple in arrivals
        ]
        assembly.label_visits += visits

    # Soundness check: every block reachable from a source must reach a
    # target, or its register uses would be lost (see PsgBuildError).
    all_starts = {start for _node, starts in sources for start in starts}
    divergent = forward_reachable(blocks, all_starts, blocked) - reaching
    if divergent:
        raise PsgBuildError(
            f"routine {name!r}: blocks {sorted(divergent)} cannot reach any "
            f"exit or call (boundary-free infinite loop); the PSG cannot "
            f"represent their register usage"
        )

    routine_psg = assembly.routines[name] = RoutinePSG(
        name, entry_node, exit_nodes, call_pairs, branch_nodes,
        assembly.add_flow_edges(labeled),
    )
    return routine_psg


def _label_by_region(
    blocks: Sequence[BasicBlock],
    local_sets: Sequence[LocalSets],
    blocked: Set[int],
    sources: Sequence[Tuple[int, Sequence[int]]],
    targets: Sequence[Tuple[int, int]],
    per_edge: bool,
) -> Tuple[Set[int], List[Tuple[int, int, Triple]]]:
    """The two reference strategies: one Figure-6 solve per target over
    ``backward(dst)``, or (``per_edge``) the paper's literal one per
    edge over ``forward(src) ∩ backward(dst)``.  Returns the blocks that
    reach some target and the ``(src, dst, raw label)`` edges.
    """
    forward_sets = [
        forward_reachable(blocks, starts, blocked) if per_edge else None
        for _node, starts in sources
    ]
    reaching: Set[int] = set()
    labeled: List[Tuple[int, int, Triple]] = []
    for dst_node, target_block in targets:
        bwd = backward_reachable(blocks, target_block, blocked)
        reaching |= bwd
        solution = (
            None if per_edge
            else solve_summary_subgraph(blocks, local_sets, bwd, blocked)
        )
        for (src_node, starts), fwd in zip(sources, forward_sets):
            valid_starts = [s for s in starts if s in bwd]
            if not valid_starts:
                continue
            if fwd is not None:
                solution = solve_summary_subgraph(
                    blocks, local_sets, fwd & bwd, blocked
                )
            label = label_from_starts(solution, valid_starts)
            labeled.append(
                (src_node, dst_node,
                 (label.may_use, label.may_def, label.must_def))
            )
    return reaching, labeled
