"""The assembled Program Summary Graph."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from repro.cfg.cfg import CallSite, ExitKind
from repro.dataflow.equations import SummaryTriple
from repro.psg.arena import PsgArena
from repro.psg.nodes import CallReturnEdge, FlowEdge, NodeKind, PSGNode


_SOURCE_KINDS = (NodeKind.ENTRY, NodeKind.RETURN, NodeKind.BRANCH)
_TARGET_KINDS = (NodeKind.EXIT, NodeKind.CALL, NodeKind.BRANCH)


def _require_node_ids(what: str, ids: Sequence[int], count: int) -> None:
    if len(ids) and not 0 <= min(ids) <= max(ids) < count:
        raise ValueError(f"{what} names a node outside 0..{count - 1}")


@dataclass
class RoutinePSG:
    """The PSG nodes belonging to one routine."""

    routine: str
    entry_node: int
    #: (node id, exit kind) per exit block, in block order.
    exit_nodes: List[Tuple[int, ExitKind]]
    #: (call node id, return node id, call site) per call site.
    call_pairs: List[Tuple[int, int, CallSite]]
    #: branch node ids (one per multiway block), in block order.
    branch_nodes: List[int]
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

    Built only by :class:`~repro.psg.build.PsgAssembly`.  Flow-summary
    edges live once, in ``arena`` (:mod:`repro.psg.arena`): a compact
    edge table this class counts and checks, and the per-node rows the
    two phases iterate.  ``flow_edges`` materialises them as
    :class:`FlowEdge` objects on first read, for the readers that want
    objects (``reporting.dot``, tests).
    """

    nodes: List[PSGNode]
    call_return_edges: List[CallReturnEdge]
    routines: Dict[str, RoutinePSG]
    arena: PsgArena

    @cached_property
    def flow_edges(self) -> List[FlowEdge]:
        """The edge table as objects, in global edge order; equal labels
        share one :class:`SummaryTriple`."""
        arena = self.arena
        labels = [SummaryTriple(*key) for key in arena.labels]
        return [
            FlowEdge(src, dst, labels[index])
            for src, dst, index in zip(
                arena.edge_src, arena.edge_dst, arena.edge_label
            )
        ]

    # ------------------------------------------------------------------
    # Statistics (Tables 3-5)
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        """Flow-summary plus call-return edges."""
        return len(self.arena.edge_src) + len(self.call_return_edges)

    @property
    def flow_edge_count(self) -> int:
        return len(self.arena.edge_src)

    @property
    def branch_node_count(self) -> int:
        return sum(len(r.branch_nodes) for r in self.routines.values())

    def nodes_of_kind(self, kind: NodeKind) -> List[PSGNode]:
        return [node for node in self.nodes if node.kind == kind]

    def per_routine_averages(self) -> Dict[str, float]:
        """Average PSG nodes and edges per routine (Table 3 units)."""
        count = max(len(self.routines), 1)
        return {
            "psg_nodes_per_routine": self.node_count / count,
            "psg_edges_per_routine": self.edge_count / count,
        }

    def check(self) -> None:
        """Structural invariants; raises :class:`ValueError` on failure."""
        nodes, arena = self.nodes, self.arena
        count = len(nodes)
        # Kinds are compared by identity (IntEnum's == is a method call)
        # and through locals: this runs on every build.
        exit_kind, call_kind, return_kind = (
            NodeKind.EXIT, NodeKind.CALL, NodeKind.RETURN
        )
        exit_count = 0
        for index, node in enumerate(nodes):
            kind = node.kind
            if node.id != index:
                raise ValueError(f"node {index} has mismatched id {node.id}")
            if kind is exit_kind:
                if node.exit_kind is None:
                    raise ValueError("EXIT node requires an exit kind")
                exit_count += 1
            elif (kind is call_kind or kind is return_kind) and (
                node.call_site is None
            ):
                raise ValueError(f"{kind.name} node requires a call site")
        # The rows are the edge table regrouped by source: as many
        # entries, every one (and every dependent) naming a node.
        dsts = list(map(itemgetter(0), chain.from_iterable(arena.flow_view)))
        if len(dsts) != len(arena.edge_src):
            raise ValueError(
                f"flow rows hold {len(dsts)} edges, the edge table "
                f"{len(arena.edge_src)}"
            )
        _require_node_ids("flow rows", dsts, count)
        for view in (arena.dep1_view, arena.dep2_view):
            _require_node_ids(
                "dependent rows", list(chain.from_iterable(view)), count
            )
        # Labels are interned per build, so an image has a few hundred
        # distinct ones behind its thousands of edges: test each index
        # once.
        for index, (_may_use, may_def, must_def) in enumerate(arena.labels):
            if must_def & ~may_def:
                raise ValueError(f"label {index} has MUST-DEF ⊄ MAY-DEF")
        kind_of = [node.kind for node in nodes]
        routine_of = [node.routine for node in nodes]
        sources, targets = _SOURCE_KINDS, _TARGET_KINDS
        for src_id, dst_id in zip(arena.edge_src, arena.edge_dst):
            if (
                routine_of[src_id] != routine_of[dst_id]
                or kind_of[src_id] not in sources
                or kind_of[dst_id] not in targets
            ):
                src, dst = nodes[src_id].describe(), nodes[dst_id].describe()
                raise ValueError(
                    f"flow edge {src} -> {dst} crosses routines, leaves a "
                    f"non-source or enters a non-target"
                )
        calls = set()
        for edge in self.call_return_edges:
            src_id, dst_id = edge.src, edge.dst
            if (
                kind_of[src_id] is not call_kind
                or kind_of[dst_id] is not return_kind
            ):
                raise ValueError("call-return edge must link CALL -> RETURN")
            if nodes[src_id].call_site is not nodes[dst_id].call_site:
                raise ValueError("call-return edge links different call sites")
            if src_id in calls:
                raise ValueError(f"node {src_id} has two call-return edges")
            calls.add(src_id)
        for name, routine_psg in self.routines.items():
            entry = nodes[routine_psg.entry_node]
            if entry.kind is not NodeKind.ENTRY or entry.routine != name:
                raise ValueError(f"routine {name!r} has a bad entry node")
            # The phases freeze the exits the routines list.
            for node_id, kind in routine_psg.exit_nodes:
                node = nodes[node_id]
                if node.kind is not exit_kind or node.exit_kind is not kind:
                    raise ValueError(
                        f"routine {name!r} lists {node.describe()} as a "
                        f"{kind.name} exit"
                    )
                exit_count -= 1
        if exit_count:
            raise ValueError(f"{exit_count} EXIT nodes are in no routine's exits")
