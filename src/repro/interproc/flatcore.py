"""Scheduling shared by the two phase loops.

:func:`repro.interproc.phase1.run_phase1` and
:func:`repro.interproc.phase2.run_phase2` run directly over the rows of
the PSG's arena (:mod:`repro.psg.arena`): the hot path iterates
per-node tuples of pre-boxed ints and indexes dense state lists — no
edge objects, no ``SummaryTriple`` attribute reads, no per-node
closures.  Scheduling realizes the same rank-keyed priority worklist as
:class:`repro.dataflow.solver.SubgraphWorklist` as a *sweep + pocket*
pair: the seeds are pushed in ascending rank order, so the seed queue
is consumed by a plain index scan (O(1) pops, no heap sift), with a
small heap ("pocket") holding only the dynamically re-enqueued nodes.
The next node is the smaller of the sweep head and the pocket minimum —
exactly the global-heap minimum, since the two partition the queued set
— so the visit sequence, and with it every counter (iterations, pushes,
skips, revisits, max depth), is that of a single rank-keyed heap.  The
object-graph engines in ``tests/phase_oracle.py`` are that single heap,
and the test suite holds the two to equal bytes *and* equal counters.

Why the fixed point does not depend on the schedule: every solve is
chaotic iteration of a monotone system over a finite lattice from an
extremal starting point (⊥ for the union problems, ⊤ for MUST-DEF), so
the fixed point reached is the unique least (resp. greatest) fixed
point regardless of visit order — the visit *order* only changes how
many visits it takes.  The phase-2 return-to-exit copies preserve this:
they only ever union new bits into exit values, so they are part of the
same monotone system.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataflow.equations import SummaryTriple
from repro.dataflow.regset import TRACKED_MASK
from repro.interproc.errors import AnalysisError
from repro.obs.metrics import REGISTRY, Counts
from repro.psg.graph import ProgramSummaryGraph


# Read only by the frozen stage replay in perf/workloads.py (as is the
# ``core=`` keyword of the two phases, which lands here); re-pointing
# that replay deletes it.
def resolve_solver_core(core: Optional[str] = None) -> str:
    """``"flat"``, the one solver core; any other name — the removed
    cores included — is an :class:`AnalysisError`."""
    if core not in (None, "flat"):
        raise AnalysisError(
            f"solver core {core!r} does not exist (the selectable cores "
            f"were removed; 'flat' is the only one)"
        )
    return "flat"


def label_call_return_edges(
    psg: ProgramSummaryGraph,
    may_use: Sequence[int],
    may_def: Sequence[int],
    must_def: Sequence[int],
    first: int = 0,
) -> None:
    """Write the converged phase-1 labels into the ``cr_label`` column
    at every resolved call-return edge from index ``first`` on, reading
    the callees' entry nodes off the arena and interning equal triples
    so the many call sites of a popular routine share one label object
    (phase 2 and the summary assembly re-read these; "retained for the
    second dataflow phase").
    """
    interned: Dict[Tuple[int, int, int], SummaryTriple] = {}
    labels, cr_callees = psg.cr_label, psg.arena.cr_callees
    for edge in range(first, len(labels)):
        entries = cr_callees[psg.cr_call[edge]]
        if not entries:
            continue
        label_mu = 0
        label_md = 0
        label_xd = -1
        for entry in entries:
            label_mu |= may_use[entry]
            label_md |= may_def[entry]
            label_xd &= must_def[entry]
        key = (label_mu, label_md, label_xd & TRACKED_MASK)
        label = interned.get(key)
        if label is None:
            label = interned[key] = SummaryTriple(*key)
        labels[edge] = label


class SolveState:
    """What a phase keeps between the solves of one growing graph.

    The incremental engine appends each region it solves to one graph
    (:func:`repro.psg.build.build_partial_psg`) and solves it there, every
    earlier node frozen at its final value.  So the per-node state is
    kept, not rebuilt: a solve extends it to the nodes appended since
    (:meth:`grow`), ranks and sweeps only its seeds (:meth:`schedule`)
    and freezes them once done (:meth:`settle`), and its cost is the
    region's, not the graph's.  Phases add their value rows.

    * ``frozen[n]`` — a boundary node (an exit, a pinned entry): never
      seeded;
    * ``queued[n]`` — the in-queue bitmap.  Every node starts and ends
      in-queue: only a solve's seeds leave it, when popped, so a node no
      solve seeds — an earlier region's, a stub, a routine no phase has
      opened — is never pushed and keeps its value;
    * ``rank_of[n]`` — the node's position in the seed order of the
      solve that seeded it;
    * ``labeled`` — the call-return edges whose labels the phase has
      read (phase 1 writes them, phase 2 unzips them);
    * ``counts`` — where each solve records its convergence numbers.
    """

    __slots__ = ("frozen", "queued", "rank_of", "labeled", "counts")

    def __init__(self, counts: Counts = REGISTRY) -> None:
        self.frozen = bytearray()
        self.queued = bytearray()
        self.rank_of: List[int] = []
        self.labeled = 0
        self.counts = counts

    def grow(self, node_count: int) -> int:
        """Cover ``node_count`` nodes; returns the first new one."""
        first = len(self.queued)
        added = node_count - first
        self.frozen += bytes(added)
        self.queued += b"\x01" * added
        self.rank_of += [0] * added
        return first

    def schedule(self, seed_order: Sequence[int]) -> Tuple[List[int], List[int]]:
        """The rank->node table of a solve seeded in ``seed_order``, and
        its sweep: the ranks of the seeds not frozen, ascending — so a
        valid min-heap as built."""
        by_rank = list(seed_order)
        rank_of, frozen = self.rank_of, self.frozen
        for rank, node in enumerate(by_rank):
            rank_of[node] = rank
        return by_rank, [rank for rank, node in enumerate(by_rank) if not frozen[node]]

    def settle(self, seed_order: Sequence[int]) -> None:
        """Put a finished solve's seeds back in-queue: frozen from now
        on."""
        queued = self.queued
        if len(seed_order) == len(queued):
            queued[:] = b"\x01" * len(queued)
        else:
            for node in seed_order:
                queued[node] = 1
