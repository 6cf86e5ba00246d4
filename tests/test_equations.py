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
from repro.cfg.subgraph import backward_reachable, forward_reachable
from repro.dataflow.equations import (
    SummaryTriple,
    label_from_starts,
    meet_target_maps,
    solve_summary_subgraph,
    sweep_targets,
)
from repro.dataflow.local import compute_local_sets, compute_program_local_sets
from repro.psg.build import build_psg
from repro.dataflow.regset import RegisterSet, TRACKED_MASK, mask_of


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
        assert cfg.blocks[2].terminator == TerminatorKind.CALL

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
        subgraph = backward_reachable(cfg.blocks, target, blocked)
        solution = solve_summary_subgraph(cfg.blocks, sets, subgraph, blocked)
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
        return_point = cfg.blocks[call_block].successors[0]
        exit_block = cfg.return_exits()[0]
        label = self._solve_edge(figure4, [return_point], exit_block)
        paper = mask_of(["t0", "t1", "t2", "t3"])
        assert names(label.must_def & paper) == {"t3"}
        assert names(label.may_use & paper) == {"t2"}  # block 4 reads t2

    def test_subgraphs_match_figure5(self, figure4):
        """E_B covers blocks {1,3}; E_C covers {4} (paper's Figure 5)."""
        cfg, _sets, blocked = figure4
        call_block = cfg.call_sites[0].block
        eb = forward_reachable(cfg.blocks, [cfg.entry_index], blocked) & (
            backward_reachable(cfg.blocks, call_block, blocked)
        )
        assert eb == {0, 2}  # blocks "1" and "3" in the paper's numbering
        return_point = cfg.blocks[call_block].successors[0]
        exit_block = cfg.return_exits()[0]
        ec = forward_reachable(cfg.blocks, [return_point], blocked) & (
            backward_reachable(cfg.blocks, exit_block, blocked)
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
        subgraph = backward_reachable(cfg.blocks, exit_block, set())
        solution = solve_summary_subgraph(cfg.blocks, sets, subgraph, set())
        label = solution[cfg.entry_index]
        assert "t2" in names(label.must_def)


class _FakeBlock:
    """Just enough of a BasicBlock for the subgraph/equations layer."""

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


class TestBatchedEquivalence:
    """The one-sweep labeler must agree with the per-target solver on
    arbitrary cut graphs: for every target and every block, the map
    entry is the converged triple of the target's own region."""

    @settings(max_examples=300, deadline=None)
    @given(cut_graphs())
    def test_batched_matches_per_target(self, data):
        blocks, local_sets, blocked, targets = data
        maps, visits = sweep_targets(blocks, local_sets, blocked, targets)
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
        maps, _visits = sweep_targets(blocks, local_sets, blocked, targets)
        starts = draw.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(blocks) - 1),
                min_size=1, max_size=3,
            )
        )
        labels = meet_target_maps(maps, starts)
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
        maps, visits = sweep_targets(blocks, local_sets, set(), {2})
        assert maps[1] == {}
        assert set(maps[0]) == set(maps[2]) == {2}
        assert visits == 2

    def test_target_with_cut_successors_rejected(self):
        blocks = [_FakeBlock() for _ in range(2)]
        blocks[0].successors = [1]
        local_sets = [_FakeLocal(0, 0) for _ in range(2)]
        with pytest.raises(AssertionError, match="sink"):
            sweep_targets(blocks, local_sets, set(), {0, 1})


class TestInternTriple:
    """Labels are interned in a table each PSG build owns."""

    def _labels(self, program):
        cfgs = build_all_cfgs(program)
        psg = build_psg(program, cfgs, compute_program_local_sets(cfgs))
        return [edge.label for edge in psg.flow_edges]

    def test_returns_canonical_instance(self, small_benchmark):
        canonical = {}
        labels = self._labels(small_benchmark)
        for label in labels:
            assert canonical.setdefault(_raw(label), label) is label
        assert len(canonical) < len(labels)  # labels do repeat

    def test_distinct_masks_distinct_triples(self, small_benchmark):
        by_identity = {id(label): label for label in self._labels(small_benchmark)}
        assert len({_raw(label) for label in by_identity.values()}) == len(
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
