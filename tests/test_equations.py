"""The Figure-6 equations, validated on the paper's Figure 4/5/7 example.

The fixture program (``FIGURE4_SOURCE`` in conftest.py) reconstructs
the CFG of the paper's Figure 4(a) — four basic blocks, a single call
ending block 3 — with register contents chosen so that the published
label of flow-summary edge E_A (Figure 7) comes out exactly:

    MUST-DEF = {R2, R3}, MAY-DEF = {R2, R3}, MAY-USE = {R1}

with the paper's abstract R1, R2, R3 mapped to t1, t2, t3.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfg.build import build_all_cfgs, build_cfg
from repro.cfg.cfg import TerminatorKind
from repro.dataflow.equations import SummaryTriple, meet_lanes
from repro.dataflow.local import compute_local_sets
from repro.psg.build import build_psg
from repro.dataflow.regset import RegisterSet, TRACKED_MASK, mask_of
from tests.records import blocks_of
from tests.label_oracle import (
    backward_reachable,
    expand_lanes,
    forward_reachable,
    label_from_starts,
    solve_summary_subgraph,
    sweep_by_sccs,
    sweep_maps,
)


@pytest.fixture()
def figure4(figure4_program):
    routine = figure4_program.routine("f")
    cfg = build_cfg(figure4_program, routine)
    local_sets = compute_local_sets(cfg)
    blocked = {site.block for site in cfg.call_sites}
    return cfg, local_sets, blocked


def names(mask: int):
    return RegisterSet.from_mask(mask).names()


class TestFigure4Structure:
    def test_four_blocks_and_one_call(self, figure4):
        cfg, _sets, _blocked = figure4
        assert cfg.block_count == 4
        assert len(cfg.call_sites) == 1
        assert cfg.terminators[2] == TerminatorKind.CALL

    def test_block_local_sets_as_designed(self, figure4):
        _cfg, sets, _blocked = figure4
        # Block 1 (index 0): UBD {R1}, DEF {R2}.
        assert "t1" in sets[0].used_before_defined.names()
        assert "t2" in sets[0].defs.names()
        # Block 2 (index 1): DEF {R3}.
        assert "t3" in sets[1].defs.names()
        # Block 4 (index 3): DEF {R3}.
        assert "t3" in sets[3].defs.names()


class TestFlowSummaryLabels:
    def _solve_edge(self, figure4, starts, target):
        cfg, sets, blocked = figure4
        blocks = blocks_of(cfg)
        subgraph = backward_reachable(blocks, target, blocked)
        solution = solve_summary_subgraph(blocks, sets, subgraph, blocked)
        return label_from_starts(solution, [s for s in starts if s in subgraph])

    def test_edge_ea_matches_figure7(self, figure4):
        """Entry -> exit: the paper publishes this label explicitly."""
        cfg, _sets, _blocked = figure4
        exit_block = cfg.return_exits()[0]
        label = self._solve_edge(figure4, [cfg.entry_index], exit_block)
        assert {"t2", "t3"} <= names(label.must_def)
        assert {"t2", "t3"} <= names(label.may_def)
        assert "t1" in names(label.may_use)
        # Projected onto the paper's registers, nothing else appears.
        paper = mask_of(["t0", "t1", "t2", "t3"])
        assert names(label.must_def & paper) == {"t2", "t3"}
        assert names(label.may_use & paper) == {"t1"}

    def test_edge_eb_entry_to_call(self, figure4):
        cfg, _sets, _blocked = figure4
        call_block = cfg.call_sites[0].block
        label = self._solve_edge(figure4, [cfg.entry_index], call_block)
        paper = mask_of(["t0", "t1", "t2", "t3"])
        assert names(label.must_def & paper) == {"t2"}
        assert names(label.may_def & paper) == {"t2"}
        assert names(label.may_use & paper) == {"t1"}

    def test_edge_ec_return_to_exit(self, figure4):
        cfg, _sets, _blocked = figure4
        call_block = cfg.call_sites[0].block
        return_point = cfg.successors[call_block][0]
        exit_block = cfg.return_exits()[0]
        label = self._solve_edge(figure4, [return_point], exit_block)
        paper = mask_of(["t0", "t1", "t2", "t3"])
        assert names(label.must_def & paper) == {"t3"}
        assert names(label.may_use & paper) == {"t2"}  # block 4 reads t2

    def test_subgraphs_match_figure5(self, figure4):
        """E_B covers blocks {1,3}; E_C covers {4} (paper's Figure 5)."""
        cfg, _sets, blocked = figure4
        call_block = cfg.call_sites[0].block
        blocks = blocks_of(cfg)
        eb = forward_reachable(blocks, [cfg.entry_index], blocked) & (
            backward_reachable(blocks, call_block, blocked)
        )
        assert eb == {0, 2}  # blocks "1" and "3" in the paper's numbering
        return_point = cfg.successors[call_block][0]
        exit_block = cfg.return_exits()[0]
        ec = forward_reachable(blocks, [return_point], blocked) & (
            backward_reachable(blocks, exit_block, blocked)
        )
        assert ec == {3}  # block "4"


class TestMustDefOverLoops:
    def test_loop_does_not_lose_must_defs(self):
        """The ⊤ initialization keeps defs that every path performs.

        A ∅-initialized MUST-DEF (the paper's literal initialization)
        would drop t2 here because of the loop; see the module note in
        repro.dataflow.equations.
        """
        from repro.program.asm import assemble
        from repro.program.disasm import disassemble_image

        program = disassemble_image(
            assemble(
                """
                .routine main
                loop:
                    subq t0, #1, t0
                    bgt  t0, loop
                    lda  t2, 1(zero)
                    ret  (ra)
                """
            )
        )
        cfg = build_cfg(program, program.routine("main"))
        sets = compute_local_sets(cfg)
        exit_block = cfg.return_exits()[0]
        blocks = blocks_of(cfg)
        subgraph = backward_reachable(blocks, exit_block, set())
        solution = solve_summary_subgraph(blocks, sets, subgraph, set())
        label = solution[cfg.entry_index]
        assert "t2" in names(label.must_def)


class _FakeBlock:
    """Just enough of a block record for the subgraph/equations layer."""

    __slots__ = ("successors", "predecessors")

    def __init__(self):
        self.successors = []
        self.predecessors = []


class _FakeLocal:
    __slots__ = ("ubd_mask", "def_mask")

    def __init__(self, ubd_mask, def_mask):
        self.ubd_mask = ubd_mask
        self.def_mask = def_mask


@st.composite
def cut_graphs(draw):
    """An arbitrary digraph (cycles, self-loops and unreachable blocks
    included) with random blocked blocks, random per-block UBD/DEF
    masks, and a random subset of the cut graph's sinks as targets —
    so some sinks are *not* targets, like a block the PSG model has no
    node for."""
    n = draw(st.integers(min_value=1, max_value=8))
    blocks = [_FakeBlock() for _ in range(n)]
    for src in range(n):
        for dst in draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), max_size=3)
        ):
            blocks[src].successors.append(dst)
            blocks[dst].predecessors.append(src)
    blocked = draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)
    )
    masks = st.integers(min_value=0, max_value=0xFF)
    local_sets = [
        _FakeLocal(draw(masks) << 2, draw(masks) << 2) for _ in range(n)
    ]
    sinks = [
        index for index in range(n)
        if index in blocked or not blocks[index].successors
    ]
    targets = {sink for sink in sinks if draw(st.booleans())}
    return blocks, local_sets, blocked, targets


def _raw(triple):
    return (triple.may_use, triple.may_def, triple.must_def)


def _sweep(blocks, local_sets, blocked, targets):
    """:func:`sweep_maps` over block and local-set objects' rows."""
    return sweep_maps(
        [block.successors for block in blocks],
        [sets.ubd_mask for sets in local_sets],
        [sets.def_mask for sets in local_sets],
        blocked,
        targets,
    )


class TestBatchedEquivalence:
    """The one-sweep labeler must agree with the per-target solver on
    arbitrary cut graphs: for every target and every block, the
    target's lane is the converged triple of the target's own region."""

    @settings(max_examples=300, deadline=None)
    @given(cut_graphs())
    def test_batched_matches_per_target(self, data):
        blocks, local_sets, blocked, targets = data
        maps, visits, _region_blocks, _states, _lanes = _sweep(
            blocks, local_sets, blocked, targets
        )
        assert len(maps) == len(blocks)
        for target in targets:
            region = backward_reachable(blocks, target, blocked)
            expected = solve_summary_subgraph(
                blocks, local_sets, region, blocked
            )
            for block in range(len(blocks)):
                if block in region:
                    assert maps[block][target] == _raw(expected[block])
                else:
                    assert target not in maps[block]
        for reached in maps:
            assert set(reached) <= targets
        # Every entry was written at least once; cycles rewrite some.
        assert visits >= sum(len(reached) for reached in maps)

    @settings(max_examples=100, deadline=None)
    @given(cut_graphs(), st.data())
    def test_fan_out_labels_match_label_from_starts(self, data, draw):
        """A source with several start blocks: the per-target meet of
        the starts' maps is ``label_from_starts`` of each region."""
        blocks, local_sets, blocked, targets = data
        _maps, _visits, _region_blocks, states, target_of_lane = _sweep(
            blocks, local_sets, blocked, targets
        )
        starts = draw.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(blocks) - 1),
                min_size=1, max_size=3,
            )
        )
        labels = expand_lanes(meet_lanes(states, starts), target_of_lane)
        for target in targets:
            region = backward_reachable(blocks, target, blocked)
            valid = [start for start in starts if start in region]
            if not valid:
                assert target not in labels
                continue
            expected = solve_summary_subgraph(
                blocks, local_sets, region, blocked
            )
            assert labels[target] == _raw(label_from_starts(expected, valid))

    def test_non_target_sink_reaches_nothing(self):
        """The sweep seeds only targets: a successor-free block that is
        not one — and everything that can only reach it — gets the
        empty map, which is what the divergence check keys on."""
        blocks = [_FakeBlock() for _ in range(3)]
        blocks[0].successors = [1, 2]
        local_sets = [_FakeLocal(0, 0) for _ in range(3)]
        maps, visits, _region_blocks, _states, _lanes = _sweep(
            blocks, local_sets, set(), {2}
        )
        assert maps[1] == {}
        assert set(maps[0]) == set(maps[2]) == {2}
        assert visits == 2

    def test_target_with_cut_successors_rejected(self):
        blocks = [_FakeBlock() for _ in range(2)]
        blocks[0].successors = [1]
        local_sets = [_FakeLocal(0, 0) for _ in range(2)]
        with pytest.raises(AssertionError, match="sink"):
            _sweep(blocks, local_sets, set(), {0, 1})


@st.composite
def region_graphs(draw):
    """Cut graphs built to stress the region sweep: a fall-through chain
    with gaps, drawn back arcs (nested and overlapping intervals, arcs
    into block 0, self-loops), forward arcs (some entering a region
    above its lowest block), blocked blocks (some with back arcs, which
    the cut removes), successor lists in drawn orders, and a random
    subset of the sinks as targets."""
    n = draw(st.integers(min_value=1, max_value=12))
    succ = [set() for _ in range(n)]
    for block in range(n - 1):
        if draw(st.integers(min_value=0, max_value=4)):
            succ[block].add(block + 1)
    pair = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    for one, other in draw(st.lists(pair, max_size=6)):
        succ[max(one, other)].add(min(one, other))
    for one, other in draw(st.lists(pair, max_size=3)):
        if one != other:
            succ[min(one, other)].add(max(one, other))
    successors = [tuple(draw(st.permutations(sorted(arcs)))) for arcs in succ]
    blocked = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n // 2))
    masks = st.integers(min_value=0, max_value=0xFF)
    ubd = [draw(masks) << 2 for _ in range(n)]
    defs = [draw(masks) << 2 for _ in range(n)]
    sinks = [
        block for block in range(n) if block in blocked or not successors[block]
    ]
    targets = {sink for sink in sinks if draw(st.booleans())}
    return successors, ubd, defs, blocked, targets


def expected_regions(successors, blocked):
    """The intervals a region sweep walks, worked out apart from it: the
    cut back arcs' intervals, merged where they share a block."""
    intervals = sorted(
        (low, block)
        for block, arcs in enumerate(successors)
        if block not in blocked
        for low in arcs
        if low <= block
    )
    regions = []
    for low, high in intervals:
        if regions and low <= regions[-1][1]:
            regions[-1][1] = max(regions[-1][1], high)
        else:
            regions.append([low, high])
    return regions


def entered_mid_region(successors, blocked):
    """Whether an arc from below enters a region above its lowest block:
    only then may a whole-routine Tarjan order a cyclic component's
    members differently from the region walk."""
    return any(
        block not in blocked and low < head <= high
        for low, high in expected_regions(successors, blocked)
        for block in range(low)
        for head in successors[block]
    )


class TestRegionSweep:
    """The block-order lane sweep with SCC work confined to back-arc
    regions must write the same maps (its lanes expanded) as the
    whole-routine, dict-per-block Tarjan sweep it replaced
    (``sweep_by_sccs``), and as many lanes as that writes entries
    wherever every region is entered from below only at its lowest
    block (the generated shapes' case)."""

    @staticmethod
    def _both(successors, ubd, defs, blocked, targets):
        maps, visits, region_blocks, _states, _lanes = sweep_maps(
            successors, ubd, defs, blocked, targets
        )
        old_maps, old_visits = sweep_by_sccs(
            successors, ubd, defs, blocked, targets
        )
        assert maps == old_maps
        if entered_mid_region(successors, blocked):
            assert visits >= sum(len(reached) for reached in maps)
        else:
            assert visits == old_visits
        return maps, visits, region_blocks

    @settings(max_examples=400, deadline=None)
    @given(region_graphs())
    def test_maps_and_visits_match_the_scc_sweep(self, graph):
        successors, _ubd, _defs, blocked, _targets = graph
        _maps, _visits, region_blocks = self._both(*graph)
        assert region_blocks == sum(
            high - low + 1 for low, high in expected_regions(successors, blocked)
        )

    @settings(max_examples=200, deadline=None)
    @given(cut_graphs())
    def test_arbitrary_cut_graphs_match_the_scc_sweep(self, data):
        blocks, local_sets, blocked, targets = data
        self._both(
            [block.successors for block in blocks],
            [sets.ubd_mask for sets in local_sets],
            [sets.def_mask for sets in local_sets],
            blocked,
            targets,
        )

    @staticmethod
    def _chain(n, *arcs):
        """Blocks 0..n-1 falling through, plus ``(src, dst)`` arcs."""
        successors = [[block + 1] if block + 1 < n else [] for block in range(n)]
        for src, dst in arcs:
            successors[src].append(dst)
        masks = [(block + 1) << 2 for block in range(n)]
        return successors, masks, masks[::-1]

    @pytest.mark.parametrize(
        "n, arcs, region_blocks",
        [
            # Nested (4 -> 1 holds 3 -> 2) and overlapping (6 -> 4 shares
            # block 4): one region [1, 6].
            (8, [(4, 1), (3, 2), (6, 4)], 6),
            # A back arc into block 0.
            (5, [(3, 0)], 4),
            # A self-loop at a region's end, and one alone.
            (6, [(3, 1), (3, 3), (5, 5)], 4),
            # Several disjoint regions; [1, 2] and [3, 4] only touch.
            (8, [(2, 1), (4, 3), (7, 6)], 6),
            # An arc from below into the region's lowest block, and one
            # above it: neither widens the region.
            (6, [(4, 2), (0, 2)], 3),
            (6, [(4, 2), (0, 3)], 3),
        ],
    )
    def test_regions(self, n, arcs, region_blocks):
        successors, ubd, defs = self._chain(n, *arcs)
        targets = {n - 1}
        _maps, _visits, walked = self._both(successors, ubd, defs, set(), targets)
        assert walked == region_blocks

    def test_back_arc_out_of_a_blocked_block_opens_no_region(self):
        successors, ubd, defs = self._chain(5, (2, 0))
        maps, visits, walked = self._both(successors, ubd, defs, {2}, {2, 4})
        assert walked == 0
        assert set(maps[0]) == {2}  # 2 -> 3 and 2 -> 0 are cut

    @pytest.mark.parametrize(
        "successors",
        [
            # Target 2 is in no region: the block-order path.
            [[1], [2], [3], [4], []],
            # Target 2 sits in region [0, 3], on no cycle: a region walk.
            [[1], [3, 2], [4], [0, 4], []],
        ],
    )
    def test_target_must_be_a_cut_graph_sink(self, successors):
        masks = [0] * len(successors)
        for sweep in (sweep_maps, sweep_by_sccs):
            with pytest.raises(AssertionError, match="sink"):
                sweep(successors, masks, masks, set(), {2, 4})


class TestInternTriple:
    """Labels are interned in a table each PSG build owns."""

    def _labels(self, program):
        cfgs = build_all_cfgs(program)
        arena = build_psg(program, cfgs).arena
        return [arena.labels[index] for index in arena.edge_label]

    def test_returns_canonical_instance(self, small_benchmark):
        canonical = {}
        labels = self._labels(small_benchmark)
        for label in labels:
            assert canonical.setdefault(tuple(label), label) is label
        assert len(canonical) < len(labels)  # labels do repeat

    def test_distinct_masks_distinct_triples(self, small_benchmark):
        by_identity = {id(label): label for label in self._labels(small_benchmark)}
        assert len({tuple(label) for label in by_identity.values()}) == len(
            by_identity
        )

    def test_table_dies_with_the_build(self, small_benchmark):
        """Two builds share no label objects: nothing process-wide
        holds them (the old global table grew for the daemon's life)."""
        first = self._labels(small_benchmark)
        second = self._labels(small_benchmark)
        assert {id(label) for label in first}.isdisjoint(
            id(label) for label in second
        )
        import repro.dataflow.equations as equations

        assert not hasattr(equations, "_TRIPLE_CACHE")


class TestSummaryTriple:
    def test_consistency(self):
        assert SummaryTriple(may_def=0b11, must_def=0b01).is_consistent()
        assert not SummaryTriple(may_def=0b01, must_def=0b10).is_consistent()

    def test_accessors(self):
        triple = SummaryTriple(may_use=0b1, may_def=0b10, must_def=0b10)
        assert triple.may_use_set == RegisterSet([0])
        assert triple.may_def_set == RegisterSet([1])
        assert triple.must_def_set == RegisterSet([1])

    def test_label_from_starts_intersects_must(self):
        solution = {
            0: SummaryTriple(may_use=0b1, may_def=0b1, must_def=0b11),
            1: SummaryTriple(may_use=0b10, may_def=0b10, must_def=0b01),
        }
        label = label_from_starts(solution, [0, 1])
        assert label.may_use == 0b11
        assert label.may_def == 0b11
        assert label.must_def == 0b01

    def test_label_from_starts_empty(self):
        assert label_from_starts({}, [0]) == SummaryTriple()
