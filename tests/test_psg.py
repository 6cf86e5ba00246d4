"""Tests for PSG construction: nodes, edges, branch nodes, and the
one-sweep labeler against the per-target and per-edge oracles
(``tests/label_oracle.py``)."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfg.build import build_all_cfgs
from repro.workloads.generator import GeneratorConfig, generate_benchmark
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image
from repro.psg.build import PsgBuildError, PsgConfig, build_psg, unknown_call_label
from repro.psg.nodes import NodeKind
from repro.obs.metrics import REGISTRY
from repro.isa.calling_convention import NT_ALPHA
from tests.label_oracle import labeling
from tests.records import call_return_edges_of, flow_edges_of


def build(program, config=None, strategy="batched"):
    """The PSG of ``program``, labeled by ``strategy`` (``batched`` is
    the production sweep, the others are the oracles)."""
    cfgs = build_all_cfgs(program)
    with labeling(strategy):
        return build_psg(program, cfgs, config=config)


def edges_between(psg, routine):
    """Set of (src kind, dst kind) pairs for one routine's flow edges."""
    arena, kind = psg.arena, psg.node_kind
    return {
        (kind[arena.edge_src[index]], kind[arena.edge_dst[index]])
        for index in psg.routines[routine].flow_edge_indices
    }


class TestFigure4Psg:
    """Figure 4(b): entry, exit, call+return nodes; edges E_A, E_B, E_C, E_CR."""

    def test_node_inventory(self, figure4_program):
        psg = build(figure4_program)
        routine = psg.routines["f"]
        assert routine.node_count == 4  # entry + exit + call + return
        kinds = [psg.node_kind[n] for n in (
            routine.entry_node,
            routine.exit_nodes[0][0],
            routine.call_pairs[0][0],
            routine.call_pairs[0][1],
        )]
        assert kinds == [
            NodeKind.ENTRY, NodeKind.EXIT, NodeKind.CALL, NodeKind.RETURN
        ]

    def test_three_flow_edges(self, figure4_program):
        psg = build(figure4_program)
        assert len(psg.routines["f"].flow_edge_indices) == 3
        assert edges_between(psg, "f") == {
            (NodeKind.ENTRY, NodeKind.EXIT),    # E_A
            (NodeKind.ENTRY, NodeKind.CALL),    # E_B
            (NodeKind.RETURN, NodeKind.EXIT),   # E_C
        }

    def test_call_return_edge(self, figure4_program):
        psg = build(figure4_program)
        routine = psg.routines["f"]
        call_node, return_node, site = routine.call_pairs[0]
        cr = [e for e in call_return_edges_of(psg) if e.src == call_node]
        assert len(cr) == 1
        assert cr[0].dst == return_node
        assert cr[0].callee == "g"

    def test_check_passes(self, figure4_program):
        build(figure4_program).check()


class TestBranchNodes:
    """Figure 12: a multiway branch with calls at each target in a loop."""

    SOURCE = """
        .routine main
            li a0, 3
            bsr ra, f
            halt
        .routine f
            lda sp, -16(sp)
            stq ra, 0(sp)
        loop:
            and  t0, #3, t1
            li   t2, &T
            sll  t1, #3, t1
            addq t2, t1, t2
            ldq  t2, 0(t2)
            jmp  t2, [T]
        c0: bsr ra, g
            br next
        c1: bsr ra, g
            br next
        c2: bsr ra, g
            br next
        c3: bsr ra, g
            br next
        .jumptable T: c0, c1, c2, c3
        next:
            subq t0, #1, t0
            bgt  t0, loop
            ldq  ra, 0(sp)
            lda  sp, 16(sp)
            ret  (ra)
        .routine g
            lda v0, 1(zero)
            ret (ra)
    """

    def _program(self):
        return disassemble_image(assemble(self.SOURCE))

    def test_branch_node_created(self):
        psg = build(self._program())
        assert len(psg.routines["f"].branch_nodes) == 1
        node = psg.routines["f"].branch_nodes[0]
        assert psg.node_kind[node] == NodeKind.BRANCH

    def test_branch_nodes_reduce_edges(self):
        program = self._program()
        with_nodes = build(program, PsgConfig(branch_nodes=True))
        without = build(program, PsgConfig(branch_nodes=False))
        assert with_nodes.flow_edge_count < without.flow_edge_count
        # Node count grows by exactly the branch nodes.
        assert with_nodes.node_count == without.node_count + 1

    def test_without_branch_nodes_quadratic_edges(self):
        """Every return reaches every call through the multiway branch."""
        program = self._program()
        psg = build(program, PsgConfig(branch_nodes=False))
        pairs = edges_between(psg, "f")
        assert (NodeKind.RETURN, NodeKind.CALL) in pairs


def _flow_labels(psg):
    return {(e.src, e.dst): e.label for e in flow_edges_of(psg)}


def _flow_sequence(psg):
    """The flow edges *in order*: the order decides the solvers' visit
    counts, so the strategies must agree on it, not just on the set."""
    return [(e.src, e.dst, e.label) for e in flow_edges_of(psg)]


def _assert_three_way_equal(program, config_extra=None):
    """Batched, per-target and per-edge labeling all agree, edge for
    edge and in the same order, on ``program``."""
    config = PsgConfig(**(config_extra or {}))
    batched = build(program, config)
    per_target = build(program, config, "per-target")
    per_edge = build(program, config, "per-edge")
    assert batched.node_count == per_target.node_count == per_edge.node_count
    sequence = _flow_sequence(batched)
    assert sequence == _flow_sequence(per_target)
    assert sequence == _flow_sequence(per_edge)
    for one, other in ((batched, per_target), (batched, per_edge)):
        for rows in ("flow_view", "dep1_view", "dep2_view"):
            assert getattr(one.arena, rows) == getattr(other.arena, rows)
        assert [r.flow_edge_indices for r in one.routines.values()] == [
            r.flow_edge_indices for r in other.routines.values()
        ]


def call_mesh(routines=24, calls=4, ring=8):
    """A small call-mesh: tiny routines that do nothing but call, in
    mutual-recursion rings — every block is a target, every region one
    block (the shape of ``perf/``'s solver-heavy image)."""
    lines = []
    for index in range(routines):
        base = index - index % ring
        callees = [base + (index + 1 - base) % ring] + [
            (index * 7 + step * 5) % routines for step in range(1, calls)
        ]
        lines.append(f".routine m{index}")
        lines.append("    lda sp, -16(sp)")
        lines.append("    stq ra, 0(sp)")
        for callee in callees:
            lines.append(f"    bsr ra, m{callee}")
        lines.append("    ldq ra, 0(sp)")
        lines.append("    lda sp, 16(sp)")
        lines.append("    halt" if index == 0 else "    ret (ra)")
    return disassemble_image(assemble("\n".join(lines)))


class TestLabelingModes:
    def test_per_edge_equals_per_target(self, small_benchmark):
        """The paper-literal per-edge solve and the per-target solve must
        produce identical edge labels."""
        fast = build(small_benchmark, strategy="per-target")
        slow = build(small_benchmark, strategy="per-edge")
        assert fast.node_count == slow.node_count
        assert _flow_labels(fast) == _flow_labels(slow)

    def test_batched_is_the_default(self, small_benchmark):
        """The sweep is the only labeler: nothing selects another."""
        assert not hasattr(PsgConfig(), "labeling")
        assert not hasattr(PsgConfig(), "per_edge_labeling")
        assert _flow_labels(build(small_benchmark)) == _flow_labels(
            build(small_benchmark, strategy="per-target")
        )

    def test_bad_labeling_rejected(self):
        with pytest.raises(TypeError, match="labeling"):
            PsgConfig(labeling="per-target")
        with pytest.raises(TypeError, match="per_edge_labeling"):
            PsgConfig(per_edge_labeling=True)

    #: Loops around call sites, a jump-table multiway branch, and an
    #: unknown-target indirect call — every structural feature the
    #: batched labeler special-cases — in one routine.
    GNARLY_SOURCE = """
        .routine main
            li a0, 3
            bsr ra, f
            halt
        .routine f
            lda sp, -16(sp)
            stq ra, 0(sp)
        loop:
            and  t0, #3, t1
            li   t2, &T
            sll  t1, #3, t1
            addq t2, t1, t2
            ldq  t2, 0(t2)
            jmp  t2, [T]
        c0: bsr ra, g
            br next
        c1: li   pv, &g
            jsr  ra, (pv)
            br next
        c2: addq t3, t0, t3
            bgt  t3, c0
            br next
        .jumptable T: c0, c1, c2
        next:
            subq t0, #1, t0
            bgt  t0, loop
            ldq  ra, 0(sp)
            lda  sp, 16(sp)
            ret  (ra)
        .routine g
            lda v0, 1(zero)
            ret (ra)
    """

    def test_three_way_equivalence_gnarly_routine(self):
        program = disassemble_image(assemble(self.GNARLY_SOURCE))
        for extra in ({}, {"branch_nodes": False}):
            _assert_three_way_equal(program, extra)

    def test_three_way_equivalence_small_benchmark(self, small_benchmark):
        _assert_three_way_equal(small_benchmark)

    @settings(max_examples=6, deadline=None)
    @given(
        bench=st.sampled_from(["compress", "li", "perl"]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_three_way_equivalence_generated(self, bench, seed):
        program, _shape = generate_benchmark(
            bench, scale=0.05, config=GeneratorConfig(seed=seed)
        )
        _assert_three_way_equal(program)


class TestEdgeSequence:
    """``batched`` (the one-sweep labeler) emits the very edge list the
    per-target oracle does, element by element."""

    @pytest.mark.parametrize("branch_nodes", [True, False])
    @pytest.mark.parametrize(
        "bench,scale", [("compress", 0.2), ("gcc", 0.02), ("sqlservr", 0.02)]
    )
    def test_table2_shapes(self, bench, scale, branch_nodes):
        program, _shape = generate_benchmark(
            bench, scale=scale, config=GeneratorConfig(seed=3)
        )
        config = PsgConfig(branch_nodes=branch_nodes)
        batched = build(program, config)
        per_target = build(program, config, "per-target")
        assert _flow_sequence(batched) == _flow_sequence(per_target)

    def test_call_mesh(self):
        _assert_three_way_equal(call_mesh())


def _label_work(program, strategy="batched"):
    """(blocks, flow edges, ``psg.label.*`` counter deltas) of one build."""
    cfgs = build_all_cfgs(program)
    base = REGISTRY.snapshot()
    with labeling(strategy):
        psg = build_psg(program, cfgs)
    delta = REGISTRY.delta_since(base)
    blocks = sum(cfg.block_count for cfg in cfgs.values())
    return blocks, psg.flow_edge_count, delta


class TestLabelWork:
    """``psg.label.visits`` / ``psg.label.pairs``: the sweep's work is
    counted, not timed, so a per-target solve or a source x target scan
    cannot creep back unnoticed."""

    def test_call_mesh_visits_every_block_once(self):
        blocks, edges, delta = _label_work(call_mesh())
        assert delta["psg.label.visits"] == blocks
        assert delta["psg.label.pairs"] == edges

    def test_gcc_shape_visits_stay_near_linear(self):
        # perf/'s gcc-shaped image: 12 569 blocks, whose targets' regions
        # sum to 3.41x that; the cyclic components' rewrites add ~1 %.
        program, _shape = generate_benchmark(
            "gcc", scale=0.1, config=GeneratorConfig(seed=0)
        )
        blocks, edges, delta = _label_work(program)
        assert blocks < delta["psg.label.visits"] <= 3.5 * blocks
        assert delta["psg.label.pairs"] == edges

    def test_reference_strategies_do_not_count(self, small_benchmark):
        _blocks, _edges, delta = _label_work(small_benchmark, "per-target")
        assert delta.get("psg.label.visits", 0) == 0
        assert delta.get("psg.label.pairs", 0) == 0


def _calls_routine(calls, conditional):
    """``main`` calling ``f``, a routine of ``calls`` calls to ``g``:
    each skipped by a conditional branch (``conditional``: the blocks
    above reach every later call, so their lane states are wide), or
    made in sequence with a diamond between each pair (every block
    reaches one call)."""
    lines = [".routine main", "    bsr ra, f", "    halt", ".routine f",
             "    lda sp, -16(sp)", "    stq ra, 0(sp)"]
    for index in range(calls):
        temp = f"t{index % 4}"
        if conditional:
            lines += [f"    beq a{index % 3}, s{index}", "    bsr ra, g",
                      f"s{index}:", f"    addq {temp}, #1, {temp}"]
        else:
            lines += ["    bsr ra, g", f"    beq {temp}, l{index}",
                      f"    addq t5, {temp}, t5", f"    br j{index}",
                      f"l{index}:", f"    subq t6, #{index % 7}, {temp}",
                      f"j{index}:"]
    lines += ["    ldq ra, 0(sp)", "    lda sp, 16(sp)", "    ret (ra)",
              ".routine g", "    lda v0, 1(zero)", "    ret (ra)"]
    return disassemble_image(assemble("\n".join(lines)))


class TestPathologicalRoutines:
    """Routines at the lane kernel's extremes, each labeled as the
    per-target oracle labels it."""

    def test_dense_conditional_calls(self):
        program = _calls_routine(150, conditional=True)
        batched = build(program)
        assert _flow_sequence(batched) == _flow_sequence(
            build(program, strategy="per-target")
        )
        assert len(batched.routines["f"].flow_edge_indices) > 150 * 150 // 2

    def test_sequential_calls_with_diamonds(self):
        program = _calls_routine(2000, conditional=False)
        assert _flow_sequence(build(program)) == _flow_sequence(
            build(program, strategy="per-target")
        )

    def test_labeling_memory_follows_the_routine(self):
        """A block's lanes span only the targets it reaches: labeling a
        routine of twice the sequential calls peaks at about twice the
        heap, not four times."""
        peaks = []
        for calls in (1000, 2000):
            program = _calls_routine(calls, conditional=False)
            cfgs = build_all_cfgs(program)
            tracemalloc.start()
            try:
                build_psg(program, cfgs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2.5 * peaks[0]


class TestDivergenceDetection:
    #: A loop no exit or call can be reached from, behind a conditional
    #: branch (so the routine also has an ordinary exit).
    DIVERGENT_SOURCE = """
        .routine main
            beq  t0, out
        spin:
            addq t0, #1, t0
            br spin
        out:
            ret (ra)
    """

    @pytest.mark.parametrize("strategy", ["batched", "per-target", "per-edge"])
    def test_divergent_loop_error_text(self, strategy):
        program = disassemble_image(assemble(self.DIVERGENT_SOURCE))
        with pytest.raises(PsgBuildError) as raised:
            build(program, strategy=strategy)
        assert str(raised.value) == (
            "routine 'main': blocks [1] cannot reach any exit or call "
            "(boundary-free infinite loop); the PSG cannot represent "
            "their register usage"
        )

    def test_boundary_free_infinite_loop_rejected(self):
        program = disassemble_image(
            assemble(
                """
                .routine main
                spin:
                    addq t0, #1, t0
                    br spin
                """
            )
        )
        with pytest.raises(PsgBuildError, match="infinite loop"):
            build(program)

    def test_loop_with_call_accepted(self):
        program = disassemble_image(
            assemble(
                """
                .routine main
                spin:
                    bsr ra, f
                    br spin
                .routine f
                    ret (ra)
                """
            )
        )
        build(program).check()


class TestUnknownCallLabel:
    def test_shape(self):
        label = unknown_call_label(NT_ALPHA)
        assert label.is_consistent()
        # Arguments and ra are used; return registers defined; temporaries
        # killed.
        assert "a0" in label.may_use_set.names()
        assert "ra" in label.may_use_set.names()
        assert label.must_def_set.names() == {"v0", "f0", "f1"}
        assert "t0" in label.may_def_set.names()
        assert "s0" not in label.may_def_set.names()


class TestStatistics:
    def test_per_routine_averages(self, small_benchmark):
        psg = build(small_benchmark)
        averages = psg.per_routine_averages()
        assert averages["psg_nodes_per_routine"] > 0
        assert averages["psg_edges_per_routine"] > 0

    def test_node_count_formula(self, small_benchmark):
        psg = build(small_benchmark)
        total = sum(r.node_count for r in psg.routines.values())
        assert total == psg.node_count

    def test_nodes_of_kind(self, figure4_program):
        psg = build(figure4_program)
        assert psg.node_kind.count(NodeKind.ENTRY) == 3  # main, f, g
        assert psg.node_kind.count(NodeKind.CALL) == 2


class TestArenaCache:
    """Nothing is derived from a built PSG, so nothing is cached: the
    arena the solver reads is the one the build wrote."""

    def test_cache_hit_on_unchanged_graph(self, small_benchmark):
        from repro.psg.arena import get_arena

        psg = build(small_benchmark)
        assert get_arena(psg) is psg.arena
        assert get_arena(psg) is get_arena(psg)


class TestOneConstructionPath:
    def test_rows_regroup_the_edge_table(self, small_benchmark):
        psg = build(small_benchmark)
        arena = psg.arena
        edges = flow_edges_of(psg)
        rows = [[] for _ in psg.node_kind]
        for edge in edges:
            must_def = edge.label.must_def
            rows[edge.src].append((edge.dst, must_def, ~must_def))
        assert arena.flow_view == [tuple(row) for row in rows]
        for node, (static_def, static_use) in enumerate(
            zip(arena.defs_static, arena.uses_static)
        ):
            out = [edge.label for edge in edges if edge.src == node]
            assert static_def == mask_or(label.may_def for label in out)
            assert static_use == mask_or(label.may_use for label in out)


def mask_or(masks):
    result = 0
    for mask in masks:
        result |= mask
    return result


def _two_node_assembly():
    """entry -> exit of one routine, one transparent flow edge."""
    from repro.cfg.cfg import ExitKind
    from repro.psg.build import PsgAssembly
    from repro.psg.graph import RoutinePSG
    from tests.psg_rows import add_node

    assembly = PsgAssembly()
    add_node(assembly, NodeKind.ENTRY, "f")
    add_node(assembly, NodeKind.EXIT, "f", exit_kind=ExitKind.RETURN)
    assembly.routines["f"] = RoutinePSG(
        "f", 0, [(1, ExitKind.RETURN)], [], [],
        assembly.add_flow_edges([(0, 1, (0, 0, 0))]),
    )
    return assembly


def _add_call_pair(assembly):
    """Nodes 2 and 3: a CALL and a RETURN of one site in ``f``."""
    from repro.cfg.cfg import CallSite
    from tests.psg_rows import add_node

    site = CallSite(block=0, instruction_index=0, targets=("f",), indirect=False)
    add_node(assembly, NodeKind.CALL, "f", call_site=site)
    add_node(assembly, NodeKind.RETURN, "f", call_site=site)


class TestCheckOnBrokenAssemblies:
    def test_exit_node_missing_from_its_routine(self):
        assembly = _two_node_assembly()
        assembly.routines["f"].exit_nodes.clear()
        with pytest.raises(ValueError, match="1 EXIT nodes are in no routine"):
            assembly.finish(partial=False)

    def test_two_call_return_edges_on_one_node(self):
        from tests.psg_rows import add_call_return

        assembly = _two_node_assembly()
        _add_call_pair(assembly)
        add_call_return(assembly, 2, 3, ("f",))
        add_call_return(assembly, 2, 3, ("f",))
        with pytest.raises(ValueError, match="node 2 has two call-return edges"):
            assembly.finish(partial=False)

    def test_row_naming_a_node_that_does_not_exist(self):
        # -1 indexes Python lists silently, so nothing fails before check().
        assembly = _two_node_assembly()
        assembly.add_flow_edges([(0, -1, (0, 0, 0))])
        with pytest.raises(ValueError, match="names a node outside 0..1"):
            assembly.finish(partial=False)

    def test_rows_and_edge_table_out_of_step(self):
        assembly = _two_node_assembly()
        assembly.flow_rows[0].append((1, 0, -1))
        with pytest.raises(ValueError, match="flow rows hold 2 edges"):
            assembly.finish(partial=False)

    def test_dependent_naming_a_node_that_does_not_exist(self):
        assembly = _two_node_assembly()
        assembly.dependents[1].append(7)
        with pytest.raises(ValueError, match="dependent rows names a node"):
            assembly.finish(partial=False)

    def test_node_rows_of_unequal_length(self):
        assembly = _two_node_assembly()
        assembly.node_block.append(0)
        with pytest.raises(ValueError, match=r"node rows of unequal length \[2, 3\]"):
            assembly.finish(partial=False)

    def test_exit_row_without_an_exit_kind(self):
        from tests.psg_rows import add_node

        assembly = _two_node_assembly()
        add_node(assembly, NodeKind.EXIT, "f")
        with pytest.raises(ValueError, match="EXIT node 2 requires an exit kind"):
            assembly.finish(partial=False)

    def test_call_row_without_a_site(self):
        from tests.psg_rows import add_call_return

        assembly = _two_node_assembly()
        _add_call_pair(assembly)
        assembly.node_detail[2] = None
        add_call_return(assembly, 2, 3, ("f",))
        with pytest.raises(ValueError, match="CALL node 2 requires a call site"):
            assembly.finish(partial=False)
