"""The per-target and per-edge labelers: the reference the one-sweep
labeler is tested against.

:func:`sweep_by_sccs` is the sweep as it was before it confined SCC
work to back-arc regions and kept one 64-bit lane per target — Tarjan
over every routine's whole cut graph, one dict entry per (block,
reached target) — the reference for its states (expanded to maps by
:func:`sweep_maps`) and, on the generated shapes, its visit counts.

The rest are the Figure-6 equations as written — one worklist problem
over one CFG subgraph (:func:`solve_summary_subgraph`, on the generic
:class:`WorklistSolver` kept at the end of this module), labeled from a
source's start blocks (:func:`label_from_starts`) — and the two region
strategies :mod:`repro.psg.build` used to offer beside the sweep:

* **per-edge** — the paper's literal procedure: carve
  ``forward(src) ∩ backward(dst)`` and solve it, once per edge;
* **per-target** — solve once per *target* over ``backward(dst)`` and
  read the converged IN sets at each source's start blocks (a backward
  solution at a block depends only on blocks it reaches, so the labels
  are the same).

They work over block records (:class:`tests.records.Block`) and
:class:`~repro.dataflow.local.LocalSets`.  :func:`region_labeler`
turns either into a drop-in for ``repro.psg.build._label_edges``, so a
whole analysis — a CLI run included — can be made to label through it
(:func:`labeling`); it checks for boundary-free loops the way the
builder once did, by subtracting reaching sets from a forward walk.
"""

from __future__ import annotations

import contextlib
from heapq import heappop, heappush
from typing import (
    Callable, Container, Dict, Generic, Iterable, Iterator, List, Optional,
    Sequence, Set, Tuple, TypeVar,
)
from unittest import mock

from collections import deque

from repro.dataflow.equations import Lanes, SummaryTriple, sweep_targets
from repro.dataflow.local import LocalSets
from repro.dataflow.regset import FULL_MASK, TRACKED_MASK
from repro.psg import build as psg_build
from tests import records
from tests.records import Block

Triple = Tuple[int, int, int]

State = TypeVar("State")

#: Boundary value: the target block's OUT sets (nothing beyond the edge).
_BOUNDARY: Triple = (0, 0, 0)

#: The strategies :func:`labeling` can install (``batched`` = production).
STRATEGIES = ("batched", "per-target", "per-edge")

#: One block's answer for every target it reaches: target block ->
#: converged IN triple (the lane states of
#: :func:`repro.dataflow.equations.sweep_targets`, one entry per lane).
TargetMap = Dict[int, Triple]

_NO_TARGETS: TargetMap = {}

#: Interior start value: MAY sets at ⊥ (∅), MUST-DEF at ⊤.
_INTERIOR: Triple = (0, 0, TRACKED_MASK)


def forward_reachable(
    blocks: Sequence[Block], starts: Iterable[int], blocked: Set[int]
) -> Set[int]:
    """Blocks reachable from ``starts`` without leaving a blocked block.

    A block in ``blocked`` may be *reached* (it can be the endpoint of a
    path) but its outgoing arcs are never traversed.
    """
    reached: Set[int] = set()
    stack: List[int] = []
    for start in starts:
        if start not in reached:
            reached.add(start)
            stack.append(start)
    while stack:
        index = stack.pop()
        if index in blocked:
            continue
        for successor in blocks[index].successors:
            if successor not in reached:
                reached.add(successor)
                stack.append(successor)
    return reached


def backward_reachable(
    blocks: Sequence[Block], target: int, blocked: Set[int]
) -> Set[int]:
    """Blocks from which ``target`` is reachable in the cut graph.

    An arc ``u -> v`` is traversable only when ``u`` is not blocked, so
    a blocked block can end a path at ``target`` only by *being*
    ``target``.
    """
    reached: Set[int] = {target}
    stack: List[int] = [target]
    while stack:
        index = stack.pop()
        for predecessor in blocks[index].predecessors:
            if predecessor in blocked or predecessor in reached:
                continue
            reached.add(predecessor)
            stack.append(predecessor)
    return reached


def _combine(left: Triple, right: Triple) -> Triple:
    return (left[0] | right[0], left[1] | right[1], left[2] & right[2])


def solve_summary_subgraph(
    blocks: Sequence[Block],
    local_sets: Sequence[LocalSets],
    subgraph: Set[int],
    blocked: Set[int],
) -> Dict[int, SummaryTriple]:
    """Solve the Figure-6 equations over one subgraph.

    ``subgraph`` holds the block indices on some X→Y path; ``blocked``
    holds the blocks whose outgoing arcs are cut (call and branch-node
    blocks).  Returns the converged IN triple for every subgraph block:
    MAY sets from ∅, MUST-DEF from ⊤ inside, ∅ at the boundary.
    """
    members = sorted(subgraph)
    dense: Dict[int, int] = {index: i for i, index in enumerate(members)}
    edges: List[Tuple[int, int]] = []
    for index in members:
        if index in blocked:
            continue
        for successor in blocks[index].successors:
            if successor in subgraph:
                edges.append((dense[index], dense[successor]))

    ubd = [local_sets[index].ubd_mask for index in members]
    defs = [local_sets[index].def_mask for index in members]

    def transfer(node: int, out_state: Triple) -> Triple:
        may_use_out, may_def_out, must_def_out = out_state
        block_def = defs[node]
        return (
            ubd[node] | (may_use_out & ~block_def),
            may_def_out | block_def,
            must_def_out | block_def,
        )

    solver: WorklistSolver[Triple] = WorklistSolver(len(members), edges)
    successor_lists = [solver.successors(i) for i in range(len(members))]
    order = postorder(len(members), successor_lists, range(len(members)))
    states = solver.solve(
        transfer=transfer,
        combine=_combine,
        boundary=(0, 0, 0),
        initial=(0, 0, TRACKED_MASK),
        order=order,
    )
    return {index: SummaryTriple(*states[dense[index]]) for index in members}


def label_from_starts(
    solution: Dict[int, SummaryTriple], starts: Sequence[int]
) -> SummaryTriple:
    """Combine the IN triples at an edge source's start blocks: MAY sets
    union over the fan-out, MUST-DEF intersects."""
    present = [solution[s] for s in starts if s in solution]
    if not present:
        return SummaryTriple()
    may_use = 0
    may_def = 0
    must_def = present[0].must_def
    for triple in present:
        may_use |= triple.may_use
        may_def |= triple.may_def
        must_def &= triple.must_def
    return SummaryTriple(may_use=may_use, may_def=may_def, must_def=must_def)


def label_by_region(
    blocks: Sequence[Block],
    local_sets: Sequence[LocalSets],
    blocked: Set[int],
    sources: Sequence[Tuple[int, Sequence[int]]],
    targets: Sequence[Tuple[int, int]],
    per_edge: bool,
) -> Tuple[Set[int], List[Tuple[int, int, Triple]]]:
    """One Figure-6 solve per target over ``backward(dst)``, or
    (``per_edge``) one per edge over ``forward(src) ∩ backward(dst)``.
    Returns the blocks that reach some target and the ``(src, dst, raw
    label)`` edges, grouped by target, sources in order."""
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


def _tarjan_sccs(successors: Sequence[Sequence[int]]) -> List[List[int]]:
    """Strongly connected components of a dense digraph (iterative).

    Components come in Tarjan emission order — a component is emitted
    only after every component reachable from it — which is a
    successors-first (reverse topological) order, exactly the order a
    backward dataflow pass wants.
    """
    n = len(successors)
    index_of = [0] * n  # 0 = unvisited (indices start at 1)
    lowlink = [0] * n
    on_stack = bytearray(n)
    scc_stack: List[int] = []
    components: List[List[int]] = []
    counter = 1
    for root in range(n):
        if index_of[root]:
            continue
        index_of[root] = lowlink[root] = counter
        counter += 1
        scc_stack.append(root)
        on_stack[root] = 1
        work = [(root, iter(successors[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if not index_of[child]:
                    index_of[child] = lowlink[child] = counter
                    counter += 1
                    scc_stack.append(child)
                    on_stack[child] = 1
                    work.append((child, iter(successors[child])))
                    break
                if on_stack[child] and index_of[child] < lowlink[node]:
                    lowlink[node] = index_of[child]
            else:
                work.pop()
                low = lowlink[node]
                if low == index_of[node]:
                    members = [scc_stack.pop()]
                    while members[-1] != node:
                        members.append(scc_stack.pop())
                    for member in members:
                        on_stack[member] = 0
                    components.append(members)
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low
    return components


def sweep_by_sccs(
    successors: Sequence[Sequence[int]],
    ubd: Sequence[int],
    defs: Sequence[int],
    blocked: Container[int],
    targets: Container[int],
) -> Tuple[List[TargetMap], int]:
    """The one-sweep labeler as it was before the region sweep, one map
    entry per (block, reached target): Tarjan over the whole cut graph,
    every component in emission order.  Same maps as
    :func:`sweep_maps` expands from
    :func:`repro.dataflow.equations.sweep_targets`'s lanes, which
    confines the SCC work to back-arc regions, and the same visit count
    unless an arc from below enters a region above its lowest block."""
    cut_succ: List[Sequence[int]] = [
        () if index in blocked else successors[index]
        for index in range(len(successors))
    ]
    maps: List[TargetMap] = [_NO_TARGETS] * len(successors)
    visits = 0
    for members in _tarjan_sccs(cut_succ):
        block = members[0]
        succs = cut_succ[block]
        if len(members) > 1 or block in succs:
            visits += _solve_cyclic(members, cut_succ, ubd, defs, maps)
            continue
        if block in targets:
            assert not succs, "a flow-summary target must be a cut-graph sink"
            out = {block: _BOUNDARY}
        else:
            out = meet_target_maps(maps, succs)
        if out:
            maps[block] = _transfer(out, ubd[block], defs[block])
            visits += len(out)
    return maps, visits


def meet_target_maps(maps: Sequence[TargetMap], blocks: Sequence[int]) -> TargetMap:
    """Per-target ∪/∪/∩ of the maps at ``blocks``; a target missing
    from one map is not reached from that block, so it is skipped."""
    out: TargetMap = {}
    for block in blocks:
        for target, triple in maps[block].items():
            current = out.get(target)
            out[target] = triple if current is None else _combine(current, triple)
    return out


def _transfer(out: TargetMap, ubd: int, block_def: int) -> TargetMap:
    """OUT map -> IN map of one block (the Figure-6 transfer)."""
    keep = ~block_def
    return {
        target: (ubd | (triple[0] & keep), triple[1] | block_def, triple[2] | block_def)
        for target, triple in out.items()
    }


def _solve_cyclic(
    members: List[int],
    cut_succ: Sequence[Sequence[int]],
    ubd: Sequence[int],
    defs: Sequence[int],
    maps: List[TargetMap],
) -> int:
    """Iterate one cyclic component to its fixed point from ⊥/⊥/⊤ over
    the targets its out-of-component successors reach; returns the map
    entries written."""
    in_comp = set(members)
    reached: TargetMap = {}
    preds: Dict[int, List[int]] = {block: [] for block in members}
    for block in members:
        for successor in cut_succ[block]:
            if successor in in_comp:
                preds[successor].append(block)
            else:
                reached.update(maps[successor])
    if not reached:
        return 0
    seed = dict.fromkeys(reached, _INTERIOR)
    for block in members:
        maps[block] = seed
    visits = 0
    queue = deque(members)
    queued = set(members)
    while queue:
        block = queue.popleft()
        queued.discard(block)
        value = _transfer(
            meet_target_maps(maps, cut_succ[block]), ubd[block], defs[block]
        )
        if value != maps[block]:
            maps[block] = value
            visits += len(value)
            for predecessor in preds[block]:
                if predecessor not in queued:
                    queued.add(predecessor)
                    queue.append(predecessor)
    return visits


def expand_lanes(state: Optional[Lanes], target_of_lane: Sequence[int]) -> TargetMap:
    """A lane state as a ``{target block: triple}`` map, one lane at a
    time (quadratic in the lanes; the builder reads them in one pass)."""
    if state is None:
        return {}
    base, reached, may_use, may_def, not_must = state
    out: TargetMap = {}
    for lane in range(reached.bit_length() // 64 + 1):
        shift = lane * 64
        if reached >> shift & 1:
            out[target_of_lane[base + lane]] = (
                may_use >> shift & FULL_MASK,
                may_def >> shift & FULL_MASK,
                ~(not_must >> shift) & FULL_MASK,
            )
    return out


def sweep_maps(
    successors: Sequence[Sequence[int]],
    ubd: Sequence[int],
    defs: Sequence[int],
    blocked: Iterable[int],
    targets: Iterable[int],
) -> Tuple[List[TargetMap], int, int, List[Optional[Lanes]], List[int]]:
    """:func:`repro.dataflow.equations.sweep_targets` with ``targets``
    given lanes in ascending block order, its states expanded to maps:
    the maps, visits and region blocks, then the raw states and the
    target of each lane (for :func:`expand_lanes`)."""
    target_of_lane = sorted(targets)
    lanes = {target: lane for lane, target in enumerate(target_of_lane)}
    states, visits, region_blocks = sweep_targets(
        successors, ubd, defs, blocked, lanes
    )
    maps = [expand_lanes(state, target_of_lane) for state in states]
    return maps, visits, region_blocks, states, target_of_lane


def blocks_of(cfg) -> Tuple[List[Block], List[LocalSets]]:
    """Block records (successors and predecessors wired) and local sets
    for the CFG rows the PSG build hands its labeler."""
    local_sets = [
        LocalSets(def_mask=defs, ubd_mask=ubd)
        for ubd, defs in zip(cfg.ubd, cfg.defs)
    ]
    return records.blocks_of(cfg), local_sets


def region_labeler(per_edge: bool):
    """A stand-in for ``repro.psg.build._label_edges`` that labels
    through :func:`label_by_region` (and counts no sweep work)."""

    def label_edges(cfg, blocked, sources, targets, assembly):
        blocks, local_sets = blocks_of(cfg)
        reaching, labeled = label_by_region(
            blocks, local_sets, blocked, sources, targets, per_edge
        )
        all_starts = {start for _node, starts in sources for start in starts}
        divergent = forward_reachable(blocks, all_starts, blocked) - reaching
        if divergent:
            raise psg_build.PsgBuildError(
                f"routine {cfg.name!r}: blocks {sorted(divergent)} cannot "
                f"reach any exit or call (boundary-free infinite loop); the "
                f"PSG cannot represent their register usage"
            )
        return labeled

    return label_edges


@contextlib.contextmanager
def labeling(strategy: str) -> Iterator[None]:
    """Run the body with ``strategy`` (one of :data:`STRATEGIES`)
    labeling every PSG built in this process."""
    if strategy == "batched":
        yield
        return
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown labeling strategy {strategy!r}")
    with mock.patch.object(
        psg_build, "_label_edges", region_labeler(strategy == "per-edge")
    ):
        yield


# ----------------------------------------------------------------------
# The generic worklist solver the equations above are solved with
# ----------------------------------------------------------------------


class SolverDivergence(RuntimeError):
    """Raised when the iteration count exceeds the safety bound.

    A correct monotone problem over a finite lattice cannot diverge;
    hitting this bound indicates a non-monotone transfer function.
    """


class WorklistSolver(Generic[State]):
    """Worklist fixed-point engine over an explicit digraph.

    Parameters
    ----------
    node_count:
        Number of nodes; nodes are the ints ``0 .. node_count-1``.
    edges:
        Directed edges ``(src, dst)``.  Information flows from ``dst``
        (successor) to ``src`` (predecessor), i.e. backward.
    """

    def __init__(self, node_count: int, edges: Iterable[Tuple[int, int]]) -> None:
        self._node_count = node_count
        self._successors: List[List[int]] = [[] for _ in range(node_count)]
        self._predecessors: List[List[int]] = [[] for _ in range(node_count)]
        for src, dst in edges:
            if not (0 <= src < node_count and 0 <= dst < node_count):
                raise ValueError(f"edge ({src}, {dst}) out of range")
            self._successors[src].append(dst)
            self._predecessors[dst].append(src)

    @property
    def node_count(self) -> int:
        return self._node_count

    def successors(self, node: int) -> Sequence[int]:
        return self._successors[node]

    def predecessors(self, node: int) -> Sequence[int]:
        return self._predecessors[node]

    def solve(
        self,
        transfer: Callable[[int, State], State],
        combine: Callable[[State, State], State],
        boundary: State,
        initial: State,
        order: Optional[Sequence[int]] = None,
        max_passes: int = 10_000_000,
    ) -> List[State]:
        """Iterate to a fixed point; returns the ``IN`` state per node.

        ``boundary`` is the OUT value for nodes with no successors;
        ``initial`` seeds every node's IN.  ``order`` optionally gives
        the *priority* order: the worklist is a rank-keyed min-heap, so
        a node earlier in ``order`` is always revisited before a later
        one (e.g. postorder for fast backward convergence); all nodes
        are seeded regardless.
        """
        node_count = self._node_count
        states: List[State] = [initial] * node_count
        by_rank = list(order) if order is not None else list(range(node_count))
        if len(set(by_rank)) != node_count:
            raise ValueError("order must enumerate every node exactly once")
        rank_of = [0] * node_count
        for rank, node in enumerate(by_rank):
            rank_of[node] = rank
        heap = list(range(node_count))  # ascending ranks: a valid heap
        queued = [True] * node_count
        passes = 0
        while heap:
            passes += 1
            if passes > max_passes:
                raise SolverDivergence(
                    f"no fixed point after {max_passes} node visits"
                )
            node = by_rank[heappop(heap)]
            queued[node] = False
            succs = self._successors[node]
            if succs:
                out_state = states[succs[0]]
                for i in range(1, len(succs)):
                    out_state = combine(out_state, states[succs[i]])
            else:
                out_state = boundary
            new_state = transfer(node, out_state)
            if new_state != states[node]:
                states[node] = new_state
                for predecessor in self._predecessors[node]:
                    if not queued[predecessor]:
                        queued[predecessor] = True
                        heappush(heap, rank_of[predecessor])
        return states


def postorder(
    node_count: int, successors: Sequence[Sequence[int]], roots: Iterable[int]
) -> List[int]:
    """Iterative DFS postorder from ``roots`` (unreached nodes appended).

    Backward analyses converge fastest when seeded in postorder of the
    forward graph (so successors are processed before predecessors).
    """
    visited = [False] * node_count
    order: List[int] = []
    for root in roots:
        if visited[root]:
            continue
        stack: List[Tuple[int, int]] = [(root, 0)]
        visited[root] = True
        while stack:
            node, child = stack[-1]
            if child < len(successors[node]):
                stack[-1] = (node, child + 1)
                next_node = successors[node][child]
                if not visited[next_node]:
                    visited[next_node] = True
                    stack.append((next_node, 0))
            else:
                stack.pop()
                order.append(node)
    for node in range(node_count):
        if not visited[node]:
            order.append(node)
    return order
