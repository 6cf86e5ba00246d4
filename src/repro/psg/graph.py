"""The assembled Program Summary Graph."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.cfg.cfg import CallSite, ExitKind
from repro.dataflow.equations import SummaryTriple
from repro.psg.arena import PsgArena
from repro.psg.nodes import NodeKind


_SOURCE_KINDS = (NodeKind.ENTRY, NodeKind.RETURN, NodeKind.BRANCH)
_TARGET_KINDS = (NodeKind.EXIT, NodeKind.CALL, NodeKind.BRANCH)


def since_start(rows: Sequence, start: int) -> Sequence:
    """``rows`` from index ``start`` on: the rows themselves from 0 (a
    whole graph is not copied to be read)."""
    return rows[start:] if start else rows


def _require_node_ids(what: str, ids: Sequence[int], count: int) -> None:
    if len(ids) and not 0 <= min(ids) <= max(ids) < count:
        raise ValueError(f"{what} names a node outside 0..{count - 1}")


class Extent(NamedTuple):
    """How much of a graph exists: its nodes, flow edges, call-return
    edges and interned labels.  A graph only grows, so an extent taken
    earlier marks where the part appended since begins."""

    nodes: int = 0
    flow_edges: int = 0
    call_returns: int = 0
    labels: int = 0


@dataclass(slots=True)
class RoutinePSG:
    """The PSG nodes belonging to one routine."""

    routine: str
    entry_node: int
    #: (node id, exit kind) per exit block, in block order.
    exit_nodes: Sequence[Tuple[int, ExitKind]]
    #: (call node id, return node id, call site) per call site.
    call_pairs: Sequence[Tuple[int, int, CallSite]]
    #: branch node ids (one per multiway block), in block order.
    branch_nodes: Sequence[int]
    #: indices into the program-level flow edge table.
    flow_edge_indices: Sequence[int] = range(0)

    @property
    def node_count(self) -> int:
        return 1 + len(self.exit_nodes) + 2 * len(self.call_pairs) + len(
            self.branch_nodes
        )

    def return_exit_nodes(self) -> List[int]:
        """Exit nodes of RETURN kind (the ones callers return through)."""
        return [
            node for node, kind in self.exit_nodes if kind == ExitKind.RETURN
        ]


@dataclass
class ProgramSummaryGraph:
    """The whole-program PSG: nodes, flow edges, call-return edges.

    Built only by :class:`~repro.psg.build.PsgAssembly`.  Nodes are
    rows by node id: ``node_kind``, ``node_routine``, ``node_block`` and
    ``node_detail`` (an EXIT's exit kind, a CALL's or RETURN's call
    site, else ``None``).  A node's block is the one its program
    location belongs to: the entry block for ENTRY, the exit block for
    EXIT, the call-ending block for CALL *and* RETURN (the return
    node's paths start at that block's successors), and the
    multiway-branch block for BRANCH.  Flow-summary edges live once, in
    ``arena`` (:mod:`repro.psg.arena`): a compact edge table this class
    counts and checks, and the per-node rows the two phases iterate.

    Call-return edges are the ``cr_*`` columns, one entry per edge in
    node order: the call node, its return node, the routines the call
    can reach (one name resolved, several hinted, none for an unknown
    target) and the edge's label — the §3.5 calling-standard triple of
    an unknown target, fixed at construction, else written by phase 1
    (:func:`repro.interproc.flatcore.label_call_return_edges`).
    """

    node_kind: List[NodeKind]
    node_routine: List[str]
    node_block: List[int]
    node_detail: List[Union[ExitKind, CallSite, None]]
    cr_call: List[int]
    cr_return: List[int]
    cr_targets: List[Tuple[str, ...]]
    cr_label: List[SummaryTriple]
    routines: Dict[str, RoutinePSG]
    arena: PsgArena

    def describe(self, node: int) -> str:
        """A short human-readable identity of ``node``, e.g.
        ``call@main:3``."""
        kind = self.node_kind[node].name.lower()
        return f"{kind}@{self.node_routine[node]}:{self.node_block[node]}"

    # ------------------------------------------------------------------
    # Statistics (Tables 3-5)
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.node_kind)

    @property
    def edge_count(self) -> int:
        """Flow-summary plus call-return edges."""
        return len(self.arena.edge_src) + len(self.cr_call)

    @property
    def flow_edge_count(self) -> int:
        return len(self.arena.edge_src)

    @property
    def branch_node_count(self) -> int:
        return sum(len(r.branch_nodes) for r in self.routines.values())

    def per_routine_averages(self) -> Dict[str, float]:
        """Average PSG nodes and edges per routine (Table 3 units)."""
        count = max(len(self.routines), 1)
        return {
            "psg_nodes_per_routine": self.node_count / count,
            "psg_edges_per_routine": self.edge_count / count,
        }

    def extent(self) -> Extent:
        return Extent(
            len(self.node_kind), len(self.arena.edge_src), len(self.cr_call),
            len(self.arena.labels),
        )

    def check(
        self, since: Extent = Extent(), routines: Optional[Iterable[str]] = None
    ) -> None:
        """Structural invariants of the part of the graph appended after
        ``since`` (all of it by default), whose routines are
        ``routines`` (every routine when ``None``); raises
        :class:`ValueError` on failure.  A graph checked after each
        append has each node, edge and label checked once."""
        arena = self.arena
        kind_of, routine_of, detail_of = (
            self.node_kind, self.node_routine, self.node_detail
        )
        count = len(kind_of)
        lengths = {count, len(routine_of), len(self.node_block), len(detail_of)}
        if len(lengths) > 1:
            raise ValueError(f"node rows of unequal length {sorted(lengths)}")
        first = since.nodes
        # Kinds are read through locals (a member lookup costs ~100 ns):
        # this runs on every build.
        exit_kind, call_kind, return_kind = (
            NodeKind.EXIT, NodeKind.CALL, NodeKind.RETURN
        )
        needs_detail = (exit_kind, call_kind, return_kind)
        kinds = since_start(kind_of, first)
        details = since_start(detail_of, first)
        for index, (kind, detail) in enumerate(zip(kinds, details), first):
            if detail is None and kind in needs_detail:
                raise ValueError(
                    f"{kind.name} node {index} requires "
                    + ("an exit kind" if kind is exit_kind else "a call site")
                )
        exit_count = kinds.count(exit_kind)
        # The rows are the edge table regrouped by source: as many
        # entries, every one (and every dependent) naming a node.  Flow
        # edges stay inside a routine, so new rows hold the new edges.
        dsts = list(map(
            itemgetter(0), chain.from_iterable(since_start(arena.flow_view, first))
        ))
        edges = len(arena.edge_src) - since.flow_edges
        if len(dsts) != edges:
            raise ValueError(
                f"flow rows hold {len(dsts)} edges, the edge table {edges}"
            )
        _require_node_ids("flow rows", dsts, count)
        for view in (arena.dep1_view, arena.dep2_view):
            _require_node_ids(
                "dependent rows",
                list(chain.from_iterable(since_start(view, first))), count,
            )
        # Labels are interned per build, so an image has a few hundred
        # distinct ones behind its thousands of edges: test each index
        # once.
        labels = since_start(arena.labels, since.labels)
        for index, (_may_use, may_def, must_def) in enumerate(labels, since.labels):
            if must_def & ~may_def:
                raise ValueError(f"label {index} has MUST-DEF ⊄ MAY-DEF")
        sources, targets = _SOURCE_KINDS, _TARGET_KINDS
        for src_id, dst_id in zip(
            since_start(arena.edge_src, since.flow_edges),
            since_start(arena.edge_dst, since.flow_edges),
        ):
            if (
                routine_of[src_id] != routine_of[dst_id]
                or kind_of[src_id] not in sources
                or kind_of[dst_id] not in targets
            ):
                src, dst = self.describe(src_id), self.describe(dst_id)
                raise ValueError(
                    f"flow edge {src} -> {dst} crosses routines, leaves a "
                    f"non-source or enters a non-target"
                )
        columns = (self.cr_call, self.cr_return, self.cr_targets, self.cr_label)
        if len({len(column) for column in columns}) > 1:
            raise ValueError("call-return columns of unequal length")
        calls = set()
        cut = since.call_returns
        for src_id, dst_id in zip(
            since_start(self.cr_call, cut), since_start(self.cr_return, cut)
        ):
            if (
                kind_of[src_id] is not call_kind
                or kind_of[dst_id] is not return_kind
            ):
                raise ValueError("call-return edge must link CALL -> RETURN")
            if detail_of[src_id] is not detail_of[dst_id]:
                raise ValueError("call-return edge links different call sites")
            if src_id in calls:
                raise ValueError(f"node {src_id} has two call-return edges")
            calls.add(src_id)
        if routines is None:
            routines = self.routines
        for name in routines:
            routine_psg = self.routines[name]
            entry = routine_psg.entry_node
            if kind_of[entry] is not NodeKind.ENTRY or routine_of[entry] != name:
                raise ValueError(f"routine {name!r} has a bad entry node")
            # The phases freeze the exits the routines list.
            for node_id, kind in routine_psg.exit_nodes:
                if kind_of[node_id] is not exit_kind or detail_of[node_id] is not kind:
                    raise ValueError(
                        f"routine {name!r} lists {self.describe(node_id)} "
                        f"as a {kind.name} exit"
                    )
                exit_count -= 1
        if exit_count:
            raise ValueError(f"{exit_count} EXIT nodes are in no routine's exits")
