"""A generic iterative worklist solver.

All of the paper's dataflow problems — the Figure-6 equations over
flow-summary-edge subgraphs, the two interprocedural phases over the
PSG, the full-CFG baseline, and the client-side liveness used by the
optimizer — are monotone bit-vector problems.  This module provides one
worklist engine for them.

The solver is *backward* oriented (information flows against the
arcs, as in every analysis in the paper): for each node ``n``,

.. code-block:: none

    OUT[n] = fold(combine, IN[s] for s in successors(n))   (boundary if none)
    IN[n]  = transfer(n, OUT[n])

States are arbitrary hashable values supplied by the client (in
practice tuples of int masks).  Nodes whose ``IN`` changes push their
predecessors back onto the worklist; the engine iterates to a fixed
point.  Forward problems are solved by handing the solver the reversed
edge set.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Generic, Iterable, List, Optional, Sequence, Tuple, TypeVar

State = TypeVar("State")

Transfer = Callable[[int, State], State]
#: Binary combine: folds two states into one.  The solver folds a
#: node's successor states pairwise, so a visit allocates no
#: intermediate list and a single-successor node (the common case)
#: never calls combine at all.
Combine = Callable[[State, State], State]


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
        transfer: Transfer,
        combine: Combine,
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


class SubgraphWorklist:
    """A chaotic-iteration worklist over a *subgraph view* of a node set.

    The PSG phases (and the sharded parallel solver built on them) all
    iterate the same way: a universe of ``node_count`` nodes, a subset
    of **frozen** boundary nodes whose values are fixed (exit nodes,
    entries pinned at cached or shard-published triples), and a
    ``dependents`` map saying which nodes must be revisited when a
    node's value changes.  This class owns the queue/dedup machinery so
    every client iterates the *interior* of its subgraph identically;
    the frozen mask is what makes the view a subgraph — frozen nodes
    are never visited and never enqueued, so iteration cannot escape
    the region they bound.

    ``transfer(node) -> bool`` recomputes one node's value in place and
    reports whether it changed; clients needing extra propagation (the
    phase-2 return-to-exit copies) call :meth:`enqueue` from inside
    their transfer function.

    Scheduling is a **priority worklist**: ``seed_order`` doubles as
    the rank key, and the queue is a min-heap of ranks with an in-queue
    bitmap, so the most-upstream pending node (callee-first for
    phase 1, caller-first for phase 2 — i.e. reverse postorder of the
    dependency direction) is always visited next.  That ordering visits
    a node only after its typical suppliers have settled, cutting
    revisits sharply versus a first-in-first-out queue (chaotic
    iteration of a monotone system reaches the same fixed point in any
    order).
    """

    __slots__ = (
        "_dependents", "_queued",
        "_heap", "_by_rank", "_rank_of",
        "max_depth", "pushes", "skipped", "revisits", "_seen",
    )

    def __init__(
        self,
        node_count: int,
        dependents: Sequence[Sequence[int]],
        frozen: Sequence[bool],
        seed_order: Sequence[int],
    ) -> None:
        self._dependents = dependents
        # Frozen boundary nodes are marked permanently in-queue: the
        # enqueue fast path then suppresses them with the bitmap test
        # alone (they are never seeded, so never popped).
        self._queued = bytearray(node_count)
        for node in range(node_count):
            if frozen[node]:
                self._queued[node] = 1
        self._seen = bytearray(node_count)
        seeds = [node for node in seed_order if not frozen[node]]
        for node in seeds:
            self._queued[node] = 1
        by_rank = list(seed_order)
        rank_of = [0] * node_count
        listed = bytearray(node_count)
        for rank, node in enumerate(by_rank):
            rank_of[node] = rank
            listed[node] = 1
        for node in range(node_count):  # robustness: partial orders
            if not listed[node]:
                rank_of[node] = len(by_rank)
                by_rank.append(node)
        self._by_rank = by_rank
        self._rank_of = rank_of
        # Seed ranks are ascending by construction: a valid heap.
        self._heap: List[int] = [rank_of[n] for n in seeds]
        #: Deepest the queue has been, including the initial seed — a
        #: convergence gauge surfaced as ``solver.max_queue_depth``.
        self.max_depth = len(seeds)
        #: Nodes scheduled (seeds included) — ``solver.pushes``.
        self.pushes = len(seeds)
        #: Enqueues suppressed by the in-queue bitmap —
        #: ``solver.skipped_inqueue``.
        self.skipped = 0
        #: Visits of a node already visited in this run —
        #: ``solver.revisits``.
        self.revisits = 0

    def enqueue(self, node: int) -> None:
        """Schedule ``node`` for (re)visiting unless frozen or queued."""
        if self._queued[node]:
            self.skipped += 1
            return
        self._queued[node] = 1
        self.pushes += 1
        heappush(self._heap, self._rank_of[node])

    def run(
        self,
        transfer: Callable[[int], bool],
        counts: Optional[List[int]] = None,
    ) -> int:
        """Iterate to a fixed point; returns the number of node visits.

        ``counts`` (one slot per node in the universe) accumulates
        per-node visit counts when provided; the phase engines use it
        to attribute worklist work to routines for ``report``.
        """
        queued = self._queued
        seen = self._seen
        dependents = self._dependents
        heap = self._heap
        by_rank = self._by_rank
        visits = 0
        revisits = self.revisits
        max_depth = self.max_depth
        while heap:
            depth = len(heap)
            node = by_rank[heappop(heap)]
            if depth > max_depth:
                max_depth = depth
            queued[node] = 0
            visits += 1
            if seen[node]:
                revisits += 1
            else:
                seen[node] = 1
            if counts is not None:
                counts[node] += 1
            if transfer(node):
                for dependent in dependents[node]:
                    self.enqueue(dependent)
        self.max_depth = max_depth
        self.revisits = revisits
        return visits


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
