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
    entry_of: Dict[str, int],
    may_use: Sequence[int],
    may_def: Sequence[int],
    must_def: Sequence[int],
) -> None:
    """Write the converged phase-1 labels into the ``cr_label`` column
    at every resolved call-return edge, interning equal triples so the
    many call sites of a popular routine share one label object (phase 2
    and the summary assembly re-read these; "retained for the second
    dataflow phase").
    """
    interned: Dict[Tuple[int, int, int], SummaryTriple] = {}
    labels = psg.cr_label
    for edge, callees in enumerate(psg.cr_targets):
        if not callees:
            continue
        label_mu = 0
        label_md = 0
        label_xd = -1
        for callee in callees:
            entry = entry_of[callee]
            label_mu |= may_use[entry]
            label_md |= may_def[entry]
            label_xd &= must_def[entry]
        key = (label_mu, label_md, label_xd & TRACKED_MASK)
        label = interned.get(key)
        if label is None:
            label = SummaryTriple(
                may_use=key[0], may_def=key[1], must_def=key[2]
            )
            interned[key] = label
        labels[edge] = label


def seed_priority(
    node_count: int, seed_order: Sequence[int], frozen: bytearray
) -> Tuple[List[int], List[int], List[int], bytearray]:
    """Rank table, rank->node table, seeded heap and in-queue bitmap.

    Ranks follow ``seed_order`` (nodes it omits sort last), so the seed
    heap — ranks in ascending order — is a valid min-heap as built.
    Frozen boundary nodes are marked permanently in-queue: the enqueue
    fast path then needs only the bitmap test to suppress them.
    """
    by_rank = list(seed_order)
    rank_of = [0] * node_count
    for rank, node in enumerate(by_rank):
        rank_of[node] = rank
    if len(by_rank) == node_count:
        # The usual case — the seed order is a full permutation (the
        # drivers seed every node) — so every node is initially queued
        # and the rank table is already complete.
        queued = bytearray(b"\x01") * node_count
    else:
        listed = bytearray(node_count)
        for node in seed_order:
            listed[node] = 1
        for node in range(node_count):
            if not listed[node]:
                rank_of[node] = len(by_rank)
                by_rank.append(node)
        queued = bytearray(frozen)
        for node in seed_order:
            queued[node] = 1
    heap = [rank_of[node] for node in seed_order if not frozen[node]]
    return by_rank, rank_of, heap, queued
