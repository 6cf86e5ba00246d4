"""The priority worklist of the PSG problems.

The two interprocedural phases and the whole-CFG baseline are monotone
bit-vector problems over a node universe with a frozen boundary.
:class:`SubgraphWorklist` is their scheduling — a rank-keyed heap and
its statistics: the baseline iterates with it, and the phase loops
(:mod:`repro.interproc.flatcore`) realize the same visit sequence
inline.  The optimizer's intraprocedural liveness is
:func:`repro.dataflow.liveness.solve`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional, Sequence


class SubgraphWorklist:
    """A chaotic-iteration worklist over a *subgraph view* of a node set.

    The PSG phases all iterate the same way: a universe of
    ``node_count`` nodes, a subset of **frozen** boundary nodes whose
    values are fixed (exit nodes, entries pinned at cached triples),
    and a
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

