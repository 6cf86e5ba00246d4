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

Two implementations live here.  :func:`solve_summary_subgraph` is the
equations as written, one worklist problem over one subgraph; the
``per-target`` and ``per-edge`` reference strategies of
:mod:`repro.psg.build` call it once per target or per edge.
:func:`sweep_targets`, the default, labels all T targets of a routine
in one successors-first pass instead of walking T overlapping regions;
its docstring says why the labels cannot differ.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.dataflow.local import LocalSets
from repro.dataflow.regset import RegisterSet, TRACKED_MASK
from repro.dataflow.solver import WorklistSolver, postorder
from repro.cfg.cfg import BasicBlock

Triple = Tuple[int, int, int]  # (may_use, may_def, must_def) masks

#: Boundary value: the target block's OUT sets (nothing beyond the edge).
_BOUNDARY: Triple = (0, 0, 0)

#: Interior start value: MAY sets at ⊥ (∅), MUST-DEF at ⊤ (see module doc).
_INTERIOR: Triple = (0, 0, TRACKED_MASK)


@dataclass(frozen=True)
class SummaryTriple:
    """An immutable (MAY-USE, MAY-DEF, MUST-DEF) triple of masks."""

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


def _combine(left: Triple, right: Triple) -> Triple:
    return (left[0] | right[0], left[1] | right[1], left[2] & right[2])


def solve_summary_subgraph(
    blocks: Sequence[BasicBlock],
    local_sets: Sequence[LocalSets],
    subgraph: Set[int],
    blocked: Set[int],
) -> Dict[int, SummaryTriple]:
    """Solve the Figure-6 equations over one subgraph.

    ``subgraph`` holds the block indices on some X→Y path; ``blocked``
    holds the blocks whose outgoing arcs are cut (call and branch-node
    blocks).  Returns the converged IN triple for every subgraph block;
    the caller labels the edge from the start block(s).
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
        boundary=_BOUNDARY,
        initial=_INTERIOR,
        order=order,
    )
    return {
        index: SummaryTriple(*states[dense[index]])
        for index in members
    }


def label_from_starts(
    solution: Dict[int, SummaryTriple], starts: Sequence[int]
) -> SummaryTriple:
    """Combine the IN triples at an edge source's start blocks.

    MAY sets union over the fan-out; MUST-DEF intersects (a register is
    must-defined along the edge only if it is must-defined from *every*
    start block).
    """
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


#: One block's answer for every target it reaches: target block ->
#: converged IN triple.  Maps are shared between blocks (a one-successor
#: block with no defs *is* its successor's view), so never mutated.
TargetMap = Dict[int, Triple]

_NO_TARGETS: TargetMap = {}


def meet_target_maps(maps: Sequence[TargetMap], blocks: Sequence[int]) -> TargetMap:
    """Per-target ∪/∪/∩ of the maps at ``blocks``.

    A target missing from one map is simply not reached from that
    block, so it is skipped there — the "successors inside the region"
    of the per-target formulation.  Used for a block's cut successors
    and for the start blocks of an edge source alike.
    """
    if len(blocks) == 1:
        return maps[blocks[0]]
    out = _NO_TARGETS
    owned = False
    for block in blocks:
        other = maps[block]
        if not other or other is out:
            continue
        if not out:
            out = other
            continue
        if not owned:
            out = dict(out)
            owned = True
        for target, triple in other.items():
            current = out.get(target)
            if current is None:
                out[target] = triple
            elif current is not triple:
                out[target] = (
                    current[0] | triple[0],
                    current[1] | triple[1],
                    current[2] & triple[2],
                )
    return out


def sweep_targets(
    blocks: Sequence[BasicBlock],
    local_sets: Sequence[LocalSets],
    blocked: Set[int],
    targets: Set[int],
) -> Tuple[List[TargetMap], int]:
    """Label every target of one routine in a single backward sweep.

    ``targets`` are the blocks flow-summary edges end at (exit, call
    and branch-node blocks).  Each is a *sink* of the boundary-cut graph
    — an exit has no successors, a blocked block's outgoing arcs are
    cut — so the Figure-6 boundary ∅ applies at the targets and nowhere
    else.  Returns, per block ``b``, a map from every target ``t`` that
    ``b`` reaches to the converged IN triple at ``b`` of the subgraph
    ``backward_reachable(t)`` (a block that reaches no target — a
    non-target sink, a boundary-free loop — gets the empty map), and
    the number of map entries written: the sweep's unit of work,
    ``psg.label.visits``.

    The cut graph's SCCs are visited successors-first, so a block's
    out-of-component successors are final before its own transfer
    runs.  An acyclic component (a lone block without a self-loop)
    takes one transfer per target it reaches; a component that carries
    a cycle iterates on a local worklist seeded at ⊥/⊥/⊤ over the
    targets the component reaches.

    **Equivalence.** For a fixed target the Figure-6 system is three
    independent problems (two lfps from ∅ under ∪, one gfp from ⊤ under
    ∩), each with a *unique* solution for a given boundary.  Entry
    ``t`` of the maps obeys exactly the equations
    :func:`solve_summary_subgraph` solves over ``backward_reachable(t)``
    — a successor outside that region is one whose map lacks ``t`` —
    and solving downstream components before upstream ones reaches
    that solution, so the labels are bit-identical to the reference
    strategies' (docs/performance.md has the full argument).
    """
    n = len(blocks)
    cut_succ: List[Sequence[int]] = [
        () if index in blocked else blocks[index].successors
        for index in range(n)
    ]
    maps: List[TargetMap] = [_NO_TARGETS] * n
    visits = 0
    for members in _tarjan_sccs(cut_succ):
        block = members[0]
        succs = cut_succ[block]
        if len(members) > 1 or block in succs:
            visits += _solve_cyclic(members, cut_succ, local_sets, maps)
            continue
        if block in targets:
            assert not succs, "a flow-summary target must be a cut-graph sink"
            out = {block: _BOUNDARY}
        else:
            out = meet_target_maps(maps, succs)
        if out:
            sets = local_sets[block]
            maps[block] = _transfer(out, sets.ubd_mask, sets.def_mask)
            visits += len(out)
    return maps, visits


def _transfer(out: TargetMap, ubd: int, block_def: int) -> TargetMap:
    """OUT map -> IN map of one block (the Figure-6 transfer)."""
    if not ubd and not block_def:
        return out
    keep = ~block_def
    return {
        target: (
            ubd | (triple[0] & keep),
            triple[1] | block_def,
            triple[2] | block_def,
        )
        for target, triple in out.items()
    }


def _solve_cyclic(
    members: List[int],
    cut_succ: Sequence[Sequence[int]],
    local_sets: Sequence[LocalSets],
    maps: List[TargetMap],
) -> int:
    """Iterate one cyclic component to its (unique) fixed point;
    returns the map entries written.  Every member reaches every target
    any member reaches, so all share one key set: the targets of the
    component's out-of-component successors, which are final already.
    """
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
        return 0  # a boundary-free loop: the caller reports it
    seed = dict.fromkeys(reached, _INTERIOR)
    for block in members:
        maps[block] = seed
    visits = 0
    queue = deque(members)
    queued = set(members)
    while queue:
        block = queue.popleft()
        queued.discard(block)
        sets = local_sets[block]
        value = _transfer(
            meet_target_maps(maps, cut_succ[block]), sets.ubd_mask, sets.def_mask
        )
        if value != maps[block]:
            maps[block] = value
            visits += len(value)
            for predecessor in preds[block]:
                if predecessor not in queued:
                    queued.add(predecessor)
                    queue.append(predecessor)
    return visits
