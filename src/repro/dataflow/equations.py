"""The Figure-6 equations: labeling a flow-summary edge.

For a flow-summary edge ``E = (N_X, N_Y)``, the paper runs conventional
backward dataflow over the CFG subgraph containing exactly the blocks
on some path from X to Y:

.. code-block:: none

    MAY-USE_IN[B]  = UBD[B] ∪ (MAY-USE_OUT[B] − DEF[B])
    MAY-DEF_IN[B]  = MAY-DEF_OUT[B] ∪ DEF[B]
    MUST-DEF_IN[B] = MUST-DEF_OUT[B] ∪ DEF[B]

    MAY-USE_OUT[B]  = ∪_S MAY-USE_IN[S]     over subgraph successors S
    MAY-DEF_OUT[B]  = ∪_S MAY-DEF_IN[S]
    MUST-DEF_OUT[B] = ∩_S MUST-DEF_IN[S]

The paper initializes every set to ∅.  For the MAY sets (∪ meet) that
is the correct ⊥; for MUST-DEF (∩ meet) a ∅ start computes a least
fixed point that loses must-definitions around loops (a cycle of
∅-initialized blocks can never acquire the defs that every path out of
the cycle performs).  We use the standard must-analysis initialization
instead — interior MUST-DEF starts at ⊤ (every register) and shrinks —
which yields the meet-over-paths solution; the boundary (the target
block's OUT) is ∅ as in the paper.  This is a documented deviation (see
DESIGN.md); it is sound, strictly more precise, and makes the PSG
engine agree exactly with the whole-CFG baseline.

After convergence the edge is labeled with the IN sets at X's start
block(s); a source with several start blocks (a branch node fans out to
many targets) combines them with ∪ for the MAY sets and ∩ for
MUST-DEF.

:func:`sweep_targets` labels all T targets of a routine in one
successors-first pass over its block rows instead of solving T
overlapping subgraphs, with SCC work only inside back-arc regions; its
docstring says why the labels cannot differ.  Like the paper's C code
it pays a machine word per set: one 64-bit lane per target reached.
The equations as written — one worklist problem per subgraph, solved
once per target or per edge — and the whole-routine SCC sweep are the
test suite's oracles (``tests/label_oracle.py``).
"""

from __future__ import annotations

from collections import deque
from typing import (
    Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple,
)

from repro.dataflow.regset import FULL_MASK, RegisterSet, TRACKED_MASK

Triple = Tuple[int, int, int]  # (may_use, may_def, must_def) masks


class SummaryTriple(NamedTuple):
    """An immutable (MAY-USE, MAY-DEF, MUST-DEF) triple of masks: a
    :data:`Triple` row, so it equals the plain tuple of its masks."""

    may_use: int = 0
    may_def: int = 0
    must_def: int = 0

    @property
    def may_use_set(self) -> RegisterSet:
        return RegisterSet.from_mask(self.may_use)

    @property
    def may_def_set(self) -> RegisterSet:
        return RegisterSet.from_mask(self.may_def)

    @property
    def must_def_set(self) -> RegisterSet:
        return RegisterSet.from_mask(self.must_def)

    def is_consistent(self) -> bool:
        """MUST-DEF must be a subset of MAY-DEF."""
        return self.must_def & ~self.may_def == 0

    def __repr__(self) -> str:
        return (
            f"SummaryTriple(may_use={self.may_use_set!r}, "
            f"may_def={self.may_def_set!r}, must_def={self.must_def_set!r})"
        )


#: A block's answer for every target it reaches (``None``: none), shared
#: so never mutated: lane ``base + k`` is bits ``64k .. 64k + 63`` of each
#: int, ``reached`` sets bit ``64k`` per lane reached (bit 0 among them),
#: and MUST-DEF is complemented: an unreached lane, all zero, is the
#: identity of every meet.
Lanes = Tuple[int, int, int, int, int]

#: One lane of the interior start (see module doc): ⊥, ⊥, ⊤ complemented.
_NOT_TOP = FULL_MASK & ~TRACKED_MASK
_NO_LANES: Dict[int, int] = {}


def meet_lanes(
    states: Sequence[Optional[Lanes]], blocks: Sequence[int]
) -> Optional[Lanes]:
    """Per-lane ∪/∪/∩ of the states at ``blocks``, on the lowest base: a
    lane a block does not reach is zero in its state, so it is skipped
    there.  Used for cut successors and an edge source's start blocks."""
    out = None
    for block in blocks:
        other = states[block]
        if other is None or other is out:
            continue
        if out is None:
            out = other
            continue
        if other[0] < out[0]:
            out, other = other, out
        base, reached, use, may, not_must = out
        shift = (other[0] - base) << 6
        out = (base, reached | other[1] << shift, use | other[2] << shift,
               may | other[3] << shift, not_must | other[4] << shift)
    return out


def sweep_targets(
    successors: Sequence[Sequence[int]],
    ubd: Sequence[int],
    defs: Sequence[int],
    blocked: Iterable[int],
    lanes: Mapping[int, int],
) -> Tuple[List[Optional[Lanes]], int, int]:
    """Label every target of one routine in a single backward sweep.

    ``successors``, ``ubd`` and ``defs`` are the routine's block rows
    (:class:`repro.cfg.cfg.ControlFlowGraph`); ``lanes`` numbers the
    blocks flow-summary edges end at (exit, call and branch-node blocks).
    Each is a *sink* of the boundary-cut graph — an exit has no
    successors, a ``blocked`` block's outgoing arcs are cut — so the
    Figure-6 boundary ∅ applies at the targets and nowhere else.
    Returns, per block ``b``, a :data:`Lanes` state holding, for every
    target ``t`` that ``b`` reaches, the converged IN triple of the
    subgraph of blocks that reach ``t`` (``None`` if ``b`` reaches no
    target — a boundary-free loop); the number of target lanes written,
    the sweep's unit of work (``psg.label.visits``); and the number of
    blocks handed to a region walk (``psg.label.region_blocks``).

    Blocks are swept in reverse index order.  The intervals ``[j, i]``
    of the cut graph's *back arcs* ``i → j`` (``j ≤ i``), merged where
    they overlap, are the *regions*.  A block in none has only final
    successors above it: one transfer of every lane it reaches.  A
    region is walked when the sweep passes below it, by a Tarjan over
    its blocks (roots in index order) that solves each component as it
    is emitted; one that carries a cycle iterates on a local worklist
    seeded at ⊥/⊥/⊤ over the lanes it reaches.  Every cycle lies in
    one region: for each index level ``x`` it spans, the cycle climbs
    from ``≤ x`` to ``> x`` and comes back over a back arc whose
    interval holds ``x`` and ``x + 1``, so its back arcs' intervals
    chain into one.  No arc leaves a region downward or enters it from
    above (its interval would overlap), so a region reaches only final
    blocks.

    **Equivalence.** For a fixed target the Figure-6 system is three
    independent problems (two lfps from ∅ under ∪, one gfp from ⊤ under
    ∩), each with a *unique* solution for a given boundary.  Lane ``t``
    of the states obeys exactly the equations one worklist solve over
    the blocks reaching ``t`` solves — a successor outside that region
    is one whose state lacks lane ``t`` — and solving downstream
    components before upstream ones reaches that solution, so the
    labels are bit-identical to the per-target and per-edge solves
    (docs/performance.md has the full argument; the test suite checks
    it against ``tests/label_oracle.py``); masks are 64 bits wide, so
    ``def * reached`` spreads DEF into the lanes with no carry.  Visits
    count this sweep's own work: a whole-routine Tarjan can start a
    cyclic component's worklist in another order when an arc from below
    enters the region above its lowest block.
    """
    count = len(successors)
    cut_succ: List[Sequence[int]] = list(successors)
    for block in blocked:
        cut_succ[block] = ()
    states: List[Optional[Lanes]] = [None] * count
    visits = region_blocks = 0
    lo, hi = count, -1  # the open region; none while hi < 0
    for block in range(count - 1, -1, -1):
        if block < lo <= hi:  # the sweep passed below the open region
            visits += _walk_region(lo, hi, cut_succ, ubd, defs, lanes, states)
            region_blocks += hi - lo + 1
            hi = -1
        succs = cut_succ[block]
        if succs:
            low = min(succs)
            if low <= block:  # a back arc: [low, block] joins the open region
                if hi < 0:
                    hi = block
                lo = min(lo, low)  # a closed region's lo is above block
                continue
        if hi < 0:
            visits += _solve_block(block, succs, ubd, defs, lanes, states)
    if hi >= 0:
        visits += _walk_region(lo, hi, cut_succ, ubd, defs, lanes, states)
        region_blocks += hi - lo + 1
    return states, visits, region_blocks


def _walk_region(
    lo: int,
    hi: int,
    cut_succ: Sequence[Sequence[int]],
    ubd: Sequence[int],
    defs: Sequence[int],
    lanes: Mapping[int, int],
    states: List[Optional[Lanes]],
) -> int:
    """Tarjan over blocks ``lo..hi`` (roots in index order, arcs above
    ``hi`` ignored: their heads are final), solving each component as
    it is emitted; returns the target lanes written."""
    index_of: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    visits = 0
    for root in range(lo, hi + 1):
        if root in index_of:
            continue
        index_of[root] = lowlink[root] = len(index_of)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(cut_succ[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if child > hi:
                    continue
                if child not in index_of:
                    index_of[child] = lowlink[child] = len(index_of)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(cut_succ[child])))
                    break
                if child in on_stack and index_of[child] < lowlink[node]:
                    lowlink[node] = index_of[child]
            else:
                work.pop()
                low = lowlink[node]
                if low == index_of[node]:
                    members = [stack.pop()]
                    while members[-1] != node:
                        members.append(stack.pop())
                    on_stack.difference_update(members)
                    succs = cut_succ[node]
                    if len(members) > 1 or node in succs:
                        visits += _solve_cyclic(members, cut_succ, ubd, defs, states)
                    else:
                        visits += _solve_block(node, succs, ubd, defs, lanes, states)
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low
    return visits


def _solve_block(
    block: int,
    succs: Sequence[int],
    ubd: Sequence[int],
    defs: Sequence[int],
    lanes: Mapping[int, int],
    states: List[Optional[Lanes]],
) -> int:
    """One block's transfer from its successors' states (final ones, or
    a cyclic component's current ones); returns the target lanes
    written.  A target's state is the ∅ boundary's transfer."""
    lane = lanes.get(block)
    if lane is not None:
        assert not succs, "a flow-summary target must be a cut-graph sink"
        block_def = defs[block]
        states[block] = (lane, 1, ubd[block], block_def, FULL_MASK ^ block_def)
        return 1
    if len(succs) == 1:
        out = states[succs[0]]
    elif len(succs) == 2:
        out, other = states[succs[0]], states[succs[1]]
        if out is None:
            out = other
        elif other is not None and other is not out:
            if other[0] < out[0]:
                out, other = other, out
            base, reached, use, may, not_must = out
            shift = (other[0] - base) << 6
            out = (base, reached | other[1] << shift, use | other[2] << shift,
                   may | other[3] << shift, not_must | other[4] << shift)
    else:
        out = meet_lanes(states, succs)
    if out is None:
        return 0
    base, reached, use, may, not_must = out
    block_ubd, block_def = ubd[block], defs[block]
    if block_ubd or block_def:
        spread = block_def * reached  # DEF in every reached lane
        out = (base, reached, block_ubd * reached | (use & ~spread),
               may | spread, not_must & ~spread)
    states[block] = out
    return reached.bit_count()


def _solve_cyclic(
    members: List[int],
    cut_succ: Sequence[Sequence[int]],
    ubd: Sequence[int],
    defs: Sequence[int],
    states: List[Optional[Lanes]],
) -> int:
    """Iterate one cyclic component to its (unique) fixed point;
    returns the target lanes written.  Every member reaches every target
    any member reaches, so all share one set of lanes: those of the
    component's out-of-component successors, which are final already.
    """
    in_comp = set(members)
    outside: List[int] = []
    preds: Dict[int, List[int]] = {block: [] for block in members}
    for block in members:
        for successor in cut_succ[block]:
            if successor in in_comp:
                preds[successor].append(block)
            else:
                outside.append(successor)
    exits = meet_lanes(states, outside)
    if exits is None:
        return 0  # a boundary-free loop: the caller reports it
    reached = exits[1]
    seed = (exits[0], reached, 0, 0, _NOT_TOP * reached)
    for block in members:
        states[block] = seed
    width = reached.bit_count()
    visits = 0
    queue = deque(members)
    queued = set(members)
    while queue:
        block = queue.popleft()
        queued.discard(block)
        value = states[block]
        _solve_block(block, cut_succ[block], ubd, defs, _NO_LANES, states)
        if value != states[block]:
            visits += width
            for predecessor in preds[block]:
                if predecessor not in queued:
                    queued.add(predecessor)
                    queue.append(predecessor)
    return visits
