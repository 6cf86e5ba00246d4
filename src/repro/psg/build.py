"""PSG construction (§3.1, §3.6).

For each routine Spike produces an entry node, exit nodes, a call and a
return node per call instruction and — when enabled — a branch node per
multiway branch.  Flow-summary edges connect a *source* (entry, return
or branch node) to a *target* (exit, call or branch node) whenever a
control-flow path exists between their locations that does not pass
through another boundary, and each edge is labeled by the Figure-6
equations over the CFG subgraph its paths cover.

The build reads a routine's CFG rows (:class:`repro.cfg.cfg.
ControlFlowGraph`: successor tuples, DEF/UBD masks, terminators, exits
and call sites).  One successors-first sweep of the boundary-cut graph
— in block order, SCC work only inside back-arc regions — labels
*every* target of the routine at once
(:func:`~repro.dataflow.equations.sweep_targets`): every target is a
sink of that graph, so each block carries its converged triple for
each target it reaches, one 64-bit lane per target and set.  Edges are
then read off the lanes at each source's start blocks — work
proportional to the edges produced, not to sources × targets — and
emitted grouped by target, sources in order within a target (the order
decides the solvers' visit counts).  The paper's literal procedure, one
solve per edge over ``forward(src) ∩ backward(dst)``, and the one solve
per target it simplifies to are the test suite's oracles
(``tests/label_oracle.py``).

Construction itself is kept cheap too: nodes are rows, written a run
of nodes at a time, each flow edge is appended once — into the edge
table and the rows the solver iterates (:class:`PsgAssembly`,
:mod:`repro.psg.arena`) — labels are interned in a table the build
owns, and the graph's ``check()`` — still run on every build — tests
each distinct label once.

A routine's labeled part of the graph — its exits, branch blocks and
flow edges, numbered from its entry node — depends on nothing but the
routine's shape and the configuration, so a built PSG can hand it out
(:func:`fragment_rows`) and a later build can append it without the
CFG (:func:`append_fragment`): the incremental sidecar carries one
:class:`PsgFragment` per routine body for that.
"""

from __future__ import annotations

import functools
import logging
import struct
from array import array
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import add
from typing import (
    Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence,
    Set, Tuple, Union,
)

from repro.obs.metrics import REGISTRY, Counts
from repro.obs.tracer import span

from repro.isa.calling_convention import CallingConvention, NT_ALPHA
from repro.dataflow.equations import (
    Lanes,
    SummaryTriple,
    Triple,
    meet_lanes,
    sweep_targets,
)
from repro.dataflow.regset import FULL_MASK, mask_of
from repro.program.model import Program
from repro.cfg.cfg import CallSite, ControlFlowGraph, ExitKind, TerminatorKind
from repro.psg.arena import PsgArena
from repro.psg.graph import Extent, ProgramSummaryGraph, RoutinePSG, since_start
from repro.psg.nodes import NodeKind


_log = logging.getLogger(__name__)

# Enum members bound once (a member lookup costs ~100 ns, once per node
# and block here).
_ENTRY, _EXIT, _CALL, _RETURN, _BRANCH = (
    NodeKind.ENTRY, NodeKind.EXIT, NodeKind.CALL, NodeKind.RETURN,
    NodeKind.BRANCH,
)
_MULTIWAY = TerminatorKind.MULTIWAY


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
    off).
    """

    branch_nodes: bool = True


#: The distinct successor blocks a multiway branch needs before it
#: earns a §3.6 branch node.
MULTIWAY_THRESHOLD = 2


#: The label of a resolved call-return edge until phase 1 writes it.
_UNLABELED = SummaryTriple()


@functools.lru_cache(maxsize=None)
def unknown_call_label(convention: CallingConvention) -> SummaryTriple:
    """The §3.5 calling-standard label for unknown-target calls."""
    return SummaryTriple(
        may_use=mask_of(convention.unknown_call_used()),
        may_def=mask_of(convention.unknown_call_killed()),
        must_def=mask_of(convention.unknown_call_defined()),
    )


class PsgAssembly:
    """The one way a PSG comes into being: nodes (one entry in each of
    the four node rows), call-return edges (one in each ``cr_*``
    column) and routines are appended to the lists below, flow edges
    go through :meth:`add_flow_edges`, and :meth:`finish` hands the lot
    to a :class:`ProgramSummaryGraph`.

    An assembly stays open after :meth:`finish`: more routines may be
    appended and finished again, which grows the same graph (the
    incremental engine appends each region it solves).  Each finish
    fills the solver rows of, checks and counts only what was appended
    since the last one.

    Each flow edge is written once, into the arena's edge table and
    the per-node rows the solver iterates (:mod:`repro.psg.arena`).
    Labels are interned in a table the build owns: equal triples share
    one index — and one set of boxed masks — across the graph (labels
    repeat heavily).
    """

    def __init__(
        self, convention: CallingConvention = NT_ALPHA, counts: Counts = REGISTRY
    ) -> None:
        #: The label of an unknown-target call's call-return edge.
        self.unknown_label = unknown_call_label(convention)
        self.counts = counts
        #: Node rows by node id (see :class:`ProgramSummaryGraph`).
        self.node_kind: List[NodeKind] = []
        self.node_routine: List[str] = []
        self.node_block: List[int] = []
        self.node_detail: List[Union[ExitKind, CallSite, None]] = []
        #: Call-return columns (see :class:`ProgramSummaryGraph`).
        self.cr_call: List[int] = []
        self.cr_return: List[int] = []
        self.cr_targets: List[Tuple[str, ...]] = []
        self.cr_label: List[SummaryTriple] = []
        self.routines: Dict[str, RoutinePSG] = {}
        #: Callees outside every region appended so far, each a routine
        #: of a lone pinned entry node (see :class:`PartialPsg`).
        self.stubs: Set[str] = set()
        #: raw label -> (index in ``labels``, its three masks, ~MUST-DEF).
        self.interned: Dict[Triple, Tuple[int, int, int, int, int]] = {}
        self.labels: List[Triple] = []
        self.edge_src = array("i")
        self.edge_dst = array("i")
        self.edge_label = array("i")
        # Per-node rows, lists until finish() freezes them into the
        # arena (and lets them go: ``None`` from then on).
        self.flow_rows: List[Optional[List[Tuple[int, int, int]]]] = []
        self.defs_static: List[int] = []
        self.uses_static: List[int] = []
        self.dependents: List[Optional[List[int]]] = []
        #: ``psg.label.visits``: map entries the labeling sweeps wrote;
        #: ``psg.label.pairs``: (source, target) pairs read off the maps;
        #: ``psg.label.region_blocks``: blocks handed to region walks.
        self.label_visits = self.label_pairs = self.label_region_blocks = 0
        #: The graph, once finished.
        self.psg: Optional[ProgramSummaryGraph] = None
        # What the last finish covered, the routines appended since and
        # the stubs among them that became routines.
        self._finished = Extent()
        self._appended: List[str] = []
        self._unstubbed: List[str] = []
        # Stub name -> the call-return edges that can reach it.
        self._calls_to: Dict[str, List[int]] = {}

    def _grow_rows(self) -> None:
        """Extend the per-node rows to cover every node appended so far."""
        missing = len(self.node_kind) - len(self.dependents)
        self.flow_rows.extend([[] for _ in range(missing)])
        self.dependents.extend([[] for _ in range(missing)])
        self.defs_static.extend([0] * missing)
        self.uses_static.extend([0] * missing)

    def add_routine(self, routine_psg: RoutinePSG) -> None:
        """Record an appended routine (a stub of the same name becomes
        it: the calls into the stub are resolved again at finish)."""
        name = routine_psg.routine
        if name in self.stubs:
            self.stubs.discard(name)
            self._unstubbed.append(name)
        self.routines[name] = routine_psg
        self._appended.append(name)

    def add_stub(self, name: str) -> int:
        """Append a stub for routine ``name``; returns its node."""
        node = len(self.node_kind)
        self.node_kind.append(_ENTRY)
        self.node_routine.append(name)
        self.node_block.append(0)
        self.node_detail.append(None)
        self.add_routine(RoutinePSG(name, node, (), (), ()))
        self.stubs.add(name)
        return node

    def add_flow_edges(self, labeled: Iterable[Tuple[int, int, Triple]]) -> range:
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

    def _resolve(
        self,
        arena: PsgArena,
        targets: "_CallTargets",
        edges: Iterable[int],
        new: bool,
    ) -> None:
        """Fill the arena's call-return rows of the call-return
        ``edges``: the call's successor and callee entries, the return's
        copy targets, or an unknown call's fixed label.  ``new`` edges
        are also listed: each call among its return node's dependents
        and its callees' (``targets``) call nodes."""
        cr_dst, cr_single = arena.cr_dst, arena.cr_single
        cr_callees, ret_view = arena.cr_callees, arena.ret_view
        cr_call, cr_return, cr_targets = self.cr_call, self.cr_return, self.cr_targets
        dependents = self.dependents
        for edge in edges:
            src, dst, callees = cr_call[edge], cr_return[edge], cr_targets[edge]
            cr_dst[src] = dst
            if new:
                dependents[dst].append(src)
            if len(callees) == 1:
                target = targets[callees[0]]
                if new:
                    target[3].append(src)
                cr_single[src], cr_callees[src], ret_view[dst], _ = target
            elif callees:
                site = [targets[callee] for callee in callees]
                if new:
                    for target in site:
                        target[3].append(src)
                cr_callees[src] = tuple(target[0] for target in site)
                ret_view[dst] = tuple(
                    node for target in site for node in target[2]
                )
            else:
                label = self.cr_label[edge]
                arena.cr_unknown[src] = (label.may_use, label.may_def, label.must_def)

    def finish(self, partial: bool) -> ProgramSummaryGraph:
        """Freeze the rows appended since the last finish, fill the
        arena's call-return side for them (every entry node they reach
        is known by now), check them and record their sizes in
        ``counts`` (the registry, or a run's tally); the first finish
        makes the graph, and counts it.

        Partial builds (incremental and query regions) add into the
        same size counters — the totals then read as "PSG construction
        work performed this run", which is the Table-5 quantity that
        matters.
        """
        self._grow_rows()
        since, psg = self._finished, self.psg
        if psg is None:
            arena = PsgArena(
                edge_src=self.edge_src,
                edge_dst=self.edge_dst,
                edge_label=self.edge_label,
                labels=self.labels,
                flow_view=[],
                defs_static=self.defs_static,
                uses_static=self.uses_static,
                cr_dst=[],
                cr_single=[],
                cr_nodes=self.cr_call,
                cr_callees=[],
                cr_unknown={},
                dep1_view=[],
                dep2_view=[],
                ret_view=[],
            )
            psg = self.psg = ProgramSummaryGraph(
                self.node_kind, self.node_routine, self.node_block,
                self.node_detail, self.cr_call, self.cr_return, self.cr_targets,
                self.cr_label, self.routines, arena,
            )
            self.counts.inc("psg.partial_builds" if partial else "psg.builds")
        arena = psg.arena
        first = since.nodes
        added = len(self.node_kind) - first

        # Call-return successor (at most one per node): a resolved call
        # carries its callees' entry node ids (``cr_callees[n]`` empty +
        # successor present <=> unknown call, whose fixed label is in
        # ``cr_unknown``), its return node copies liveness to the
        # RETURN-kind exits of every possible callee, and a callee's
        # entry is re-read (phase 1 only) by every call site.  What a
        # site needs of a callee is worked out once per routine, so the
        # many monomorphic sites of a popular routine share its tuples.
        empty: Tuple[int, ...] = ()
        arena.cr_dst += [-1] * added
        #: Fast path for the overwhelmingly common monomorphic call:
        #: the callee's entry node when a call resolves to exactly one
        #: routine, else -1 (polymorphic or unknown).
        arena.cr_single += [-1] * added
        arena.cr_callees += [empty] * added
        arena.ret_view += [empty] * added
        # The first finish checks every routine (a hand-built graph
        # records its own), a later one those appended since.
        names = self._appended if first else None
        routines = self.routines
        appended = routines if names is None else names
        targets = _CallTargets(routines)
        targets.update((name, _call_target(routines[name])) for name in appended)
        # The calls an earlier finish resolved to a stub reach its
        # routine now.
        cr_call, calls_to = self.cr_call, self._calls_to
        for name in self._unstubbed:
            edges = calls_to.pop(name, ())
            self._resolve(arena, targets, edges, new=False)
            targets[name][3].extend(cr_call[edge] for edge in edges)
        edges = range(since.call_returns, len(cr_call))
        self._resolve(arena, targets, edges, new=True)
        stubs = self.stubs
        if stubs:
            for edge in edges:
                for callee in self.cr_targets[edge]:
                    if callee in stubs:
                        calls_to.setdefault(callee, []).append(edge)
        arena.flow_view += map(tuple, since_start(self.flow_rows, first))
        dep2_view = list(map(tuple, since_start(self.dependents, first)))
        arena.dep2_view += dep2_view
        dep1_view = arena.dep1_view
        dep1_view += dep2_view
        for entry, _entries, _exits, call_nodes in targets.values():
            if call_nodes:
                dep1_view[entry] += tuple(call_nodes)

        psg.check(since, names)
        counts = self.counts
        counts.inc("psg.nodes", added)
        counts.inc("psg.flow_edges", len(self.edge_src) - since.flow_edges)
        counts.inc("psg.call_return_edges", len(cr_call) - since.call_returns)
        counts.inc(
            "psg.branch_nodes",
            sum(len(routines[name].branch_nodes) for name in appended),
        )
        counts.inc("psg.label.visits", self.label_visits)
        counts.inc("psg.label.pairs", self.label_pairs)
        counts.inc("psg.label.region_blocks", self.label_region_blocks)
        self.label_visits = self.label_pairs = self.label_region_blocks = 0
        self.flow_rows[first:] = self.dependents[first:] = [None] * added
        self._finished = psg.extent()
        self._appended, self._unstubbed = [], []
        return psg


def _call_target(routine_psg: RoutinePSG):
    """What a call site needs of its callee ``routine_psg``: its entry
    node, ``(entry,)`` and its RETURN exits, and a list for the call
    nodes a finish resolves to it."""
    entry = routine_psg.entry_node
    return entry, (entry,), tuple(routine_psg.return_exit_nodes()), []


class _CallTargets(dict):
    """Routine -> its :func:`_call_target`, worked out on first ask."""

    def __init__(self, routines: Mapping[str, RoutinePSG]) -> None:
        super().__init__()
        self.routines = routines

    def __missing__(self, name: str):
        found = self[name] = _call_target(self.routines[name])
        return found


def build_psg(
    program: Program,
    cfgs: Mapping[str, ControlFlowGraph],
    local_sets: object = None,
    config: Optional[PsgConfig] = None,
    convention: CallingConvention = NT_ALPHA,
) -> ProgramSummaryGraph:
    """Build the whole-program PSG from every routine's CFG, in program
    order: the region of every routine (:func:`build_partial_psg`),
    which has no external entries.  ``local_sets`` is not read — the
    DEF/UBD masks are the CFGs' own rows — and is accepted for the
    stage replay in ``perf/workloads.py``, which passes
    :func:`~repro.dataflow.local.compute_local_sets` of each CFG."""
    return build_partial_psg(
        [cfgs[routine.name] for routine in program], config, True, convention
    ).psg


@dataclass
class PartialPsg:
    """A region of a PSG: a list of the program's routines, appended to
    ``psg`` together.

    ``external_entries`` maps each callee outside the graph the region
    was appended to — not a member, nor a routine or stub appended
    before — to a *stub*, a lone entry node: the region solve pins those
    nodes at the callee's already-known phase-1 triple (via
    ``run_phase1``'s ``fixed_entries``), so calls leaving the region
    read converged summaries instead of re-solving the callee.  Stubs
    carry no exit nodes, so phase 2's return-to-exit liveness copies
    stop at them (the boundary flow is injected as ``extra_exit_live``
    seeds instead); a stub's routine appended later takes its calls
    over.  The region of every routine has none: it is the
    whole-program PSG.
    """

    psg: ProgramSummaryGraph
    members: List[str]
    external_entries: Dict[str, int]


class PsgFragment(NamedTuple):
    """One routine's labeled PSG without its call sites: what
    :func:`build_routine_psg` derives from the routine's CFG, kept so a
    later build can append it instead (:func:`append_fragment`).

    It is a function of the routine's shape key (code bytes and jump
    tables, :func:`repro.interproc.frontend.shape_key`) and the
    analysis configuration alone; the call sites — whose targets depend
    on the image around the routine — come from the call graph when it
    is appended.  Node numbers count from the routine's entry node
    ``entry``, in build order: the exits, a call and a return node per
    site, the branch nodes.  ``saved`` is the routine's §3.4
    saved/restored mask under the configuration the fragment was built
    with.  A fragment decoded from a sidecar has ``entry`` 0 and its
    own label table; one taken from a built graph
    (:func:`fragment_rows`) keeps the graph's numbering and shares its
    label table.
    """

    #: ``(block, kind)`` per exit, in block order.
    exits: Tuple[Tuple[int, ExitKind], ...]
    site_count: int
    #: The blocks that earned a §3.6 branch node, in block order.
    branch_blocks: Tuple[int, ...]
    saved: int
    #: The raw labels ``label_ids`` index.
    labels: Sequence[Triple]
    #: The flow edges, in build order: source and target node and
    #: index into ``labels``, one sequence per column.
    sources: Sequence[int]
    targets: Sequence[int]
    label_ids: Sequence[int]
    entry: int = 0


class StoredRoutine(NamedTuple):
    """A routine :func:`build_partial_psg` appends from its fragment:
    the fragment and the routine's call sites in this program."""

    name: str
    fragment: PsgFragment
    sites: Sequence[CallSite]


def build_partial_psg(
    routines: Iterable[Union[ControlFlowGraph, StoredRoutine]],
    config: Optional[PsgConfig] = None,
    whole: bool = False,
    convention: CallingConvention = NT_ALPHA,
    assembly: Optional[PsgAssembly] = None,
) -> PartialPsg:
    """Build the PSG of a region: the given routines, in that order,
    with a stub — a pinned entry node — for each callee the graph has no
    routine or stub of.  A routine given by its CFG is labeled here; one
    given as a :class:`StoredRoutine` is appended from its fragment.
    ``routines`` is iterated once, and nothing here keeps a CFG after
    labeling it, so a caller may hand over each as it goes.  ``whole``
    says the region is the whole program (counted ``psg.builds``,
    spanned ``psg.build``; any other is ``psg.partial_builds`` and
    ``psg.build_partial``).  Unknown-target calls are labeled from the
    analysis's ``convention`` (§3.5).

    With ``assembly`` — an open one, which earlier regions were appended
    to (and whose convention is used) — the region is appended to its
    graph, and the result is the appended part: the whole, grown graph,
    the region's members and its new stubs."""
    if assembly is None:
        assembly = PsgAssembly(convention)
    config = config or PsgConfig()
    members: List[str] = []
    first_call = len(assembly.cr_call)
    with span("psg.build" if whole else "psg.build_partial") as current:
        for routine in routines:
            members.append(routine.name)
            if isinstance(routine, StoredRoutine):
                append_fragment(*routine, config, assembly)
            else:
                build_routine_psg(routine, config, assembly)
        current.annotate(routines=len(members))
        known = assembly.routines
        external_entries: Dict[str, int] = {}
        for callees in assembly.cr_targets[first_call:]:
            for callee in callees:
                if callee not in known:
                    external_entries[callee] = assembly.add_stub(callee)
        assembly.counts.inc("psg.stubs", len(external_entries))
        psg = assembly.finish(partial=not whole)
    _log.debug(
        "appended to PSG: %d routines, %d external entries; now %d nodes, "
        "%d flow edges, %d call-return edges",
        len(members), len(external_entries), psg.node_count,
        psg.flow_edge_count, len(psg.cr_call),
    )
    return PartialPsg(psg=psg, members=members, external_entries=external_entries)


def _append_nodes(
    assembly: PsgAssembly,
    name: str,
    exits: Sequence[Tuple[int, ExitKind]],
    sites: Sequence[CallSite],
    branch_blocks: Sequence[int],
) -> RoutinePSG:
    """One routine's nodes — entry, exits, a call/return pair (and its
    call-return edge) per site, branch nodes, ids consecutive — and its
    :class:`RoutinePSG`, whose flow edges the caller adds."""
    kinds, blocks, details = (
        assembly.node_kind, assembly.node_block, assembly.node_detail
    )
    entry_node = len(kinds)
    first_call = entry_node + 1 + len(exits)
    first_branch = first_call + 2 * len(sites)
    exit_nodes = [
        (node, kind) for node, (_block, kind) in enumerate(exits, entry_node + 1)
    ]
    # The rows, a run of nodes at a time: entry, exits, sites, branches.
    kinds.append(_ENTRY)
    kinds += repeat(_EXIT, len(exits))
    kinds += (_CALL, _RETURN) * len(sites)
    kinds += repeat(_BRANCH, len(branch_blocks))
    assembly.node_routine += repeat(name, len(kinds) - entry_node)
    blocks.append(0)
    blocks += [block for block, _kind in exits]
    details.append(None)
    details += [kind for _node, kind in exit_nodes]
    call_pairs: List[Tuple[int, int, CallSite]] = []
    unknown, cr_targets, cr_label = (
        assembly.unknown_label, assembly.cr_targets, assembly.cr_label
    )
    for call_node, site in zip(range(first_call, first_branch, 2), sites):
        block, _index, targets, _indirect = site
        blocks += (block, block)
        details += (site, site)
        call_pairs.append((call_node, call_node + 1, site))
        cr_targets.append(targets)
        cr_label.append(_UNLABELED if targets else unknown)
    assembly.cr_call += range(first_call, first_branch, 2)
    assembly.cr_return += range(first_call + 1, first_branch, 2)
    blocks += branch_blocks
    details += repeat(None, len(branch_blocks))
    branch_nodes = list(range(first_branch, len(kinds)))
    routine_psg = RoutinePSG(name, entry_node, exit_nodes, call_pairs, branch_nodes)
    assembly.add_routine(routine_psg)
    return routine_psg


def build_routine_psg(
    cfg: ControlFlowGraph, config: PsgConfig, assembly: PsgAssembly
) -> RoutinePSG:
    """Build one routine's nodes and edges into ``assembly``."""
    successors = cfg.successors
    branch_blocks = (
        [
            block
            for block, terminator in enumerate(cfg.terminators)
            if terminator is _MULTIWAY
            and len(successors[block]) >= MULTIWAY_THRESHOLD
        ]
        if config.branch_nodes and _MULTIWAY in cfg.terminators
        else []
    )
    routine_psg = _append_nodes(
        assembly, cfg.name, cfg.exits, cfg.call_sites, branch_blocks
    )
    # The edge sources (node, start blocks), the targets (node, block)
    # and the boundary cut, in node order.
    sources: List[Tuple[int, Sequence[int]]] = [(routine_psg.entry_node, (0,))]
    targets: List[Tuple[int, int]] = [
        (node, block)
        for (node, _kind), (block, _same) in zip(routine_psg.exit_nodes, cfg.exits)
    ]
    blocked: Set[int] = set(branch_blocks)
    for call_node, return_node, site in routine_psg.call_pairs:
        targets.append((call_node, site.block))
        sources.append((return_node, successors[site.block]))
        blocked.add(site.block)
    for node, block in zip(routine_psg.branch_nodes, branch_blocks):
        targets.append((node, block))
        sources.append((node, successors[block]))
    routine_psg.flow_edge_indices = assembly.add_flow_edges(
        _label_edges(cfg, blocked, sources, targets, assembly)
    )
    return routine_psg


def append_fragment(
    name: str,
    fragment: PsgFragment,
    sites: Sequence[CallSite],
    config: PsgConfig,
    assembly: PsgAssembly,
) -> RoutinePSG:
    """Append one routine from its fragment: the nodes and edges
    :func:`build_routine_psg` would build from its CFG, with ``sites``
    (the call graph's, as many as ``fragment.site_count``) for its call
    and return nodes."""
    routine_psg = _append_nodes(
        assembly, name, fragment.exits, sites, fragment.branch_blocks
    )
    base = repeat(routine_psg.entry_node - fragment.entry)
    routine_psg.flow_edge_indices = assembly.add_flow_edges(zip(
        map(add, fragment.sources, base),
        map(add, fragment.targets, base),
        map(fragment.labels.__getitem__, fragment.label_ids),
    ))
    return routine_psg


def fragment_rows(
    psg: ProgramSummaryGraph, name: str, saved: int
) -> PsgFragment:
    """Routine ``name``'s fragment as ``psg`` holds it (``saved`` is its
    §3.4 mask): copies of its rows, numbered as in ``psg`` and sharing
    its label table, so the rest of the graph can go."""
    routine_psg = psg.routines[name]
    blocks, arena = psg.node_block, psg.arena
    edges = routine_psg.flow_edge_indices
    first, stop = edges.start, edges.stop
    return PsgFragment(
        tuple([(blocks[node], kind) for node, kind in routine_psg.exit_nodes]),
        len(routine_psg.call_pairs),
        tuple([blocks[node] for node in routine_psg.branch_nodes]),
        saved,
        arena.labels,
        arena.edge_src[first:stop],
        arena.edge_dst[first:stop],
        arena.edge_label[first:stop],
        routine_psg.entry_node,
    )


def _label_edges(
    cfg: ControlFlowGraph,
    blocked: Set[int],
    sources: Sequence[Tuple[int, Sequence[int]]],
    targets: Sequence[Tuple[int, int]],
    assembly: PsgAssembly,
) -> List[Tuple[int, int, Triple]]:
    """One routine's ``(src, dst, raw label)`` flow-summary edges:
    grouped by target, sources in order within a target.

    One sweep labels every target (its lane: its position in
    ``targets``); the edges are then read off the states at each
    source's start blocks, one (source, target) pair examined per edge
    produced.  Raises :class:`PsgBuildError` when a block some source
    reaches reaches no target: its register uses would have no edge to
    live on.  The test suite's region labelers
    (``tests/label_oracle.py``) stand in for this function.
    """
    position = {block: index for index, (_node, block) in enumerate(targets)}
    ubd, defs = cfg.ubd, cfg.defs
    states, visits, region_blocks = sweep_targets(
        cfg.successors, ubd, defs, blocked, position
    )
    assembly.label_visits += visits
    assembly.label_region_blocks += region_blocks
    if not all(states):
        divergent = _unlabeled_reachable(cfg.successors, blocked, sources, states)
        if divergent:
            raise PsgBuildError(
                f"routine {cfg.name!r}: blocks {divergent} cannot reach any "
                f"exit or call (boundary-free infinite loop); the PSG cannot "
                f"represent their register usage"
            )
    by_target: List[List[Tuple[int, Triple]]] = [[] for _ in targets]
    for src_node, starts in sources:
        if len(starts) == 1 and starts[0] in position:  # a target: its own masks
            start = starts[0]
            block_def = defs[start]
            by_target[position[start]].append((src_node, (ubd[start], block_def, block_def)))
            continue
        state = meet_lanes(states, starts)
        if state is None:
            continue
        base, reached, use, may, not_must = state
        if reached == 1:
            by_target[base].append((src_node, (use, may, not_must ^ FULL_MASK)))
            continue
        width = (reached.bit_length() + 63) >> 6
        unpack = _lane_unpacker(width)
        size = width << 3
        for lane, lane_use, lane_may, lane_not in compress(
            zip(
                count(base),
                unpack(use.to_bytes(size, "little")),
                unpack(may.to_bytes(size, "little")),
                unpack(not_must.to_bytes(size, "little")),
            ),
            reached.to_bytes(size, "little")[::8],
        ):
            by_target[lane].append(
                (src_node, (lane_use, lane_may, lane_not ^ FULL_MASK))
            )
    assembly.label_pairs += sum(map(len, by_target))
    return [
        (src_node, dst_node, triple)
        for (dst_node, _block), arrivals in zip(targets, by_target)
        for src_node, triple in arrivals
    ]


@functools.lru_cache(maxsize=None)
def _lane_unpacker(width: int) -> Callable[[bytes], Tuple[int, ...]]:
    """The ``width`` 64-bit lanes of an int's little-endian bytes."""
    return struct.Struct(f"<{width}Q").unpack


def _unlabeled_reachable(
    successors: Sequence[Sequence[int]],
    blocked: Set[int],
    sources: Sequence[Tuple[int, Sequence[int]]],
    states: Sequence[Optional[Lanes]],
) -> List[int]:
    """The blocks, sorted, that some source reaches in the cut graph
    (a blocked block may be reached, never left) whose state is empty."""
    seen: Set[int] = set()
    stack = [start for _node, starts in sources for start in starts]
    while stack:
        block = stack.pop()
        if block in seen:
            continue
        seen.add(block)
        if block not in blocked:
            stack.extend(successors[block])
    return sorted(block for block in seen if states[block] is None)
