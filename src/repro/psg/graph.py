"""The assembled Program Summary Graph."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cfg.cfg import CallSite, ExitKind
from repro.psg.nodes import CallReturnEdge, FlowEdge, NodeKind, PSGNode


_SOURCE_KINDS = (NodeKind.ENTRY, NodeKind.RETURN, NodeKind.BRANCH)
_TARGET_KINDS = (NodeKind.EXIT, NodeKind.CALL, NodeKind.BRANCH)
_CALL_KINDS = (NodeKind.CALL, NodeKind.RETURN)


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
    #: indices into the program-level flow edge list.
    flow_edge_indices: List[int] = field(default_factory=list)

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

    Adjacency is exposed as index lists so the dataflow engines can run
    over flat arrays: ``flow_out[n]`` / ``flow_in[n]`` give indices into
    ``flow_edges``; ``cr_out[n]`` / ``cr_in[n]`` give indices into
    ``call_return_edges``.  A builder that filled the flow adjacency as
    it appended edges hands it in; otherwise it is derived here.
    """

    nodes: List[PSGNode]
    flow_edges: List[FlowEdge]
    call_return_edges: List[CallReturnEdge]
    routines: Dict[str, RoutinePSG]
    flow_out: Optional[List[List[int]]] = None
    flow_in: Optional[List[List[int]]] = None

    def __post_init__(self) -> None:
        #: Generation stamp for cached lowerings.  Anything that mutates
        #: what a lowering snapshots — flow-edge labels, topology —
        #: must call :meth:`bump_version`; cached artifacts (the CSR
        #: arena, see :func:`repro.psg.arena.get_arena`) are keyed on
        #: the stamp and rebuild on the next use after a bump.
        self.version: int = 0
        count = len(self.nodes)
        if self.flow_out is None or self.flow_in is None:
            self.flow_out = [[] for _ in range(count)]
            self.flow_in = [[] for _ in range(count)]
            for index, edge in enumerate(self.flow_edges):
                self.flow_out[edge.src].append(index)
                self.flow_in[edge.dst].append(index)
        self.cr_out: List[Optional[int]] = [None] * count
        self.cr_in: List[Optional[int]] = [None] * count
        for index, edge in enumerate(self.call_return_edges):
            if self.cr_out[edge.src] is not None:
                raise ValueError(f"node {edge.src} has two call-return edges")
            self.cr_out[edge.src] = index
            self.cr_in[edge.dst] = index
        #: callee routine name -> indices of call-return edges that can
        #: target it (hinted edges appear under every possible callee).
        self.cr_edges_to: Dict[str, List[int]] = {}
        for index, edge in enumerate(self.call_return_edges):
            for callee in edge.callees:
                self.cr_edges_to.setdefault(callee, []).append(index)

    def bump_version(self) -> None:
        """Record that the graph was mutated after construction.

        Call this after changing anything a cached lowering captured
        (flow-edge labels, edges, nodes) so the next
        :func:`repro.psg.arena.get_arena` re-lowers instead of
        returning a stale arena.  Phase-1's per-solve relabeling of
        *resolved* call-return edges is exempt — the arena deliberately
        never snapshots those labels.
        """
        self.version += 1

    # ------------------------------------------------------------------
    # Statistics (Tables 3-5)
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        """Flow-summary plus call-return edges."""
        return len(self.flow_edges) + len(self.call_return_edges)

    @property
    def flow_edge_count(self) -> int:
        return len(self.flow_edges)

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
        nodes = self.nodes
        for index, node in enumerate(nodes):
            if node.id != index:
                raise ValueError(f"node {index} has mismatched id {node.id}")
            if node.kind == NodeKind.EXIT and node.exit_kind is None:
                raise ValueError("EXIT node requires an exit kind")
            if node.kind in _CALL_KINDS and node.call_site is None:
                raise ValueError(f"{node.kind.name} node requires a call site")
        # Labels are interned per build, so an image has a few hundred
        # distinct ones behind its thousands of edges: test each once.
        consistent: Set[int] = set()
        for edge in self.flow_edges:
            src, dst, label = nodes[edge.src], nodes[edge.dst], edge.label
            if src.routine != dst.routine:
                raise ValueError(
                    f"flow edge crosses routines: {src.describe()} -> "
                    f"{dst.describe()}"
                )
            if src.kind not in _SOURCE_KINDS:
                raise ValueError(f"flow edge from non-source {src.describe()}")
            if dst.kind not in _TARGET_KINDS:
                raise ValueError(f"flow edge into non-target {dst.describe()}")
            if id(label) not in consistent:
                if not label.is_consistent():
                    raise ValueError(
                        f"edge {src.describe()} -> {dst.describe()} has "
                        f"MUST-DEF ⊄ MAY-DEF"
                    )
                consistent.add(id(label))
        for edge in self.call_return_edges:
            src, dst = nodes[edge.src], nodes[edge.dst]
            if src.kind != NodeKind.CALL or dst.kind != NodeKind.RETURN:
                raise ValueError("call-return edge must link CALL -> RETURN")
            if src.call_site is not dst.call_site:
                raise ValueError("call-return edge links different call sites")
        for name, routine_psg in self.routines.items():
            entry = nodes[routine_psg.entry_node]
            if entry.kind != NodeKind.ENTRY or entry.routine != name:
                raise ValueError(f"routine {name!r} has a bad entry node")
