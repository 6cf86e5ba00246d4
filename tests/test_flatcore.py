"""Production phases versus the object-graph oracle.

``run_phase1``/``run_phase2`` iterate the rows the PSG build wrote into
the arena; ``tests/phase_oracle.py`` holds the object engines that read
the edge table as records and derive their own adjacency.  The two must agree
on the summaries byte for byte *and* on the five scheduling counters
(same visit sequence, so same row order) — cold and warm, through the
drivers and through the session facade.

Phase 1 solves Figure 8 in one worklist; :class:`TestTwoPassAnswers`
holds every solve a driver runs to the defs-then-uses two-pass solve's
three rows and call-return labels.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.api import AnalysisSession
from repro.interproc import analysis as analysis_module
from repro.interproc.analysis import (
    AnalysisConfig,
    _analyze_program,
    _assemble_summaries,
    node_seed_order,
)
from repro.interproc.errors import AnalysisError
from repro.interproc.flatcore import resolve_solver_core
from repro.interproc.incremental import _analyze_incremental
from repro.interproc.persist import dump_summaries
from repro.interproc.phase1 import Phase1State, run_phase1
from repro.interproc.phase2 import run_phase2
from repro.dataflow.regset import mask_of
from repro.obs.metrics import REGISTRY
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image
from repro.workloads.generator import GeneratorConfig, generate_benchmark
from repro.workloads.mutate import first_editable_routine, perturb_routine
from repro.workloads.shapes import ALL_SHAPES
from tests import phase_oracle
from tests.test_psg import call_mesh
from tests.test_hints import _dispatch_program
from tests.records import call_return_edges_of
from tests.test_regions import _chain, stub_takeover_case

#: ``solver.iterations{phase}``, ``solver.pushes``,
#: ``solver.skipped_inqueue``, ``solver.revisits{phase}`` and
#: ``solver.max_queue_depth{phase}``.
SCHEDULING = (
    "solver.iterations", "solver.pushes", "solver.skipped_inqueue",
    "solver.revisits", "solver.max_queue_depth",
)

#: The store would let the second of two identical runs adopt what the
#: first published instead of solving.
NO_STORE = AnalysisConfig(store="off")

def generated(name):
    program, _shape = generate_benchmark(
        name, scale=0.05, config=GeneratorConfig(seed=0)
    )
    return program


_programs = {}


def shape_program(name):
    """The small shapes several tests share, generated once."""
    if name not in _programs:
        _programs[name] = generated(name)
    return _programs[name]


def counted(run):
    """``run()`` from a clean registry: its result and the scheduling
    counters it left (maxima are high-water marks, hence the reset)."""
    REGISTRY.reset()
    result = run()
    counters = {
        key: value
        for key, value in REGISTRY.delta_since({}).items()
        if key.startswith(SCHEDULING)
    }
    return result, counters


@pytest.fixture
def oracle_engines(monkeypatch):
    """``with oracle_engines():`` — every driver solves with the object
    engines (every driver's phases run through the region solve in
    ``interproc.analysis``)."""

    @contextmanager
    def installed():
        with monkeypatch.context() as patch:
            patch.setattr(analysis_module, "run_phase1", phase_oracle.run_phase1)
            patch.setattr(analysis_module, "run_phase2", phase_oracle.run_phase2)
            yield

    return installed


def assert_same_work(run, oracle_engines):
    """``run() -> SummarySet`` gives the same bytes and the same
    scheduling counters under the production loops and the oracle."""
    result, counters = counted(run)
    with oracle_engines():
        oracle_result, oracle_counters = counted(run)
    assert dump_summaries(result) == dump_summaries(oracle_result)
    assert counters == oracle_counters
    assert counters["solver.iterations{phase=phase1}"] > 0
    assert counters["solver.iterations{phase=phase2}"] > 0
    return result


@pytest.fixture
def two_pass_checked(monkeypatch):
    """Every phase-1 solve a driver runs is first run by the two-pass
    oracle, on a copy of the solve's state, and must then give the
    oracle's three rows and call-return labels.  The fixture lists the
    solves checked: how many entries each pinned."""
    checked = []
    production = analysis_module.run_phase1

    def run_phase1(
        psg, saved_restored, preserved_mask, seed_order,
        fixed_entries=None, state=None, routines=None,
    ):
        copy = None
        if state is not None:
            copy = Phase1State()
            copy.may_use = list(state.may_use)
            copy.may_def = list(state.may_def)
            copy.must_def = list(state.must_def)
        labels = list(psg.cr_label)
        expected = phase_oracle.run_phase1_two_pass(
            psg, saved_restored, preserved_mask, seed_order,
            fixed_entries, copy,
        )
        expected_labels = list(psg.cr_label)
        psg.cr_label[:] = labels
        result = production(
            psg, saved_restored, preserved_mask, seed_order,
            fixed_entries=fixed_entries, state=state, routines=routines,
        )
        assert result.may_def == expected.may_def
        assert result.must_def == expected.must_def
        assert result.may_use == expected.may_use
        assert psg.cr_label == expected_labels
        checked.append(len(fixed_entries or ()))
        return result

    monkeypatch.setattr(analysis_module, "run_phase1", run_phase1)
    return checked


def assert_phases_match_oracle(program):
    """One front end and one PSG, solved twice: the arena rows and the
    edge table of the *same* graph must drive identical solves."""
    analysis, counters = counted(lambda: _analyze_program(program, NO_STORE))
    psg, config = analysis.psg, analysis.config
    callee_first = analysis.call_graph.reverse_topological_order()
    preserved = mask_of(
        {config.convention.stack_pointer, config.convention.global_pointer}
    )

    def oracle():
        phase1 = phase_oracle.run_phase1(
            psg, analysis.saved_restored, preserved,
            node_seed_order(psg, callee_first),
        )
        phase2 = phase_oracle.run_phase2(
            psg, analysis.call_graph.externally_callable, config.convention,
            node_seed_order(psg, list(reversed(callee_first))),
        )
        return _assemble_summaries(
            program, dict(analysis.cfgs), analysis.saved_restored, psg,
            phase1, phase2,
        )

    oracle_result, oracle_counters = counted(oracle)
    assert dump_summaries(analysis.result) == dump_summaries(oracle_result)
    assert counters == oracle_counters
    assert counters["solver.iterations{phase=phase1}"] > 0
    return analysis


class TestCoreSelection:
    """The compat surface the frozen ``perf/`` replay still calls."""

    def test_default_is_flat(self):
        assert resolve_solver_core(None) == "flat"
        assert resolve_solver_core("flat") == "flat"

    def test_environment_is_not_read(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_CORE", "no-such-core")
        assert resolve_solver_core(None) == "flat"
        analysis = _analyze_program(shape_program("compress"), NO_STORE)
        assert analysis.result.summaries

    def test_unknown_core_rejected(self):
        for core in ("simd", "object", "fifo"):
            with pytest.raises(AnalysisError, match=repr(core)):
                resolve_solver_core(core)

    def test_phases_reject_a_removed_core(self):
        analysis = _analyze_program(shape_program("compress"), NO_STORE)
        order = list(range(analysis.psg.node_count))
        with pytest.raises(AnalysisError, match="'object'"):
            run_phase1(analysis.psg, {}, 0, order, core="object")
        with pytest.raises(AnalysisError, match="'object'"):
            run_phase2(
                analysis.psg, set(), analysis.config.convention, order,
                core="object",
            )
        # ... and accept the one the replay passes.
        run_phase1(analysis.psg, {}, 0, order, core=None)
        run_phase1(analysis.psg, {}, 0, order, core="flat")


class TestColdEquivalence:
    @pytest.mark.parametrize("name", [shape.name for shape in ALL_SHAPES])
    def test_summaries_byte_identical_across_cores(self, name):
        assert_phases_match_oracle(generated(name))

    def test_counters_identical_flat_vs_object(self, oracle_engines):
        """The sweep+pocket scheduler pops in exactly the global-heap
        order, so every solver counter — not just the fixed point —
        must match the object engine's, through the whole driver."""
        program = shape_program("compress")
        assert_same_work(
            lambda: _analyze_program(program, NO_STORE).result, oracle_engines
        )

    def test_mutual_recursion_mesh(self):
        assert_phases_match_oracle(call_mesh(routines=48, calls=5, ring=12))

    def test_hinted_multi_callee_site(self):
        analysis = assert_phases_match_oracle(_dispatch_program())
        assert any(
            len(edge.callees) == 2 for edge in call_return_edges_of(analysis.psg)
        )

    #: A call through a pointer loaded from memory, inside a caller
    #: that is itself called: the §3.5 fixed label on one site, a
    #: resolved callee on another.
    UNKNOWN_CALL_SOURCE = """
        .data p: 0
        .routine main
            li  a0, 3
            bsr ra, f
            halt
        .routine f
            lda sp, -16(sp)
            stq ra, 0(sp)
            li  t0, @p
            ldq pv, 0(t0)
            jsr ra, (pv)
            bsr ra, g
            ldq ra, 0(sp)
            lda sp, 16(sp)
            ret (ra)
        .routine g
            lda v0, 1(zero)
            ret (ra)
    """

    def test_unknown_call_site(self):
        program = disassemble_image(assemble(self.UNKNOWN_CALL_SOURCE))
        analysis = assert_phases_match_oracle(program)
        assert any(edge.is_unknown for edge in call_return_edges_of(analysis.psg))


class TestTwoPassAnswers:
    """One worklist visit updates all three sets; the two-pass solve
    settles MAY-DEF/MUST-DEF first and MAY-USE second.  Chaotic
    iteration from (∅, ⊤, ∅) reaches the same fixed point, so every
    row and label must agree — cold, pinned, region by region."""

    @pytest.mark.parametrize("name", [shape.name for shape in ALL_SHAPES])
    def test_every_shape(self, name, two_pass_checked):
        _analyze_program(shape_program(name), NO_STORE)
        assert two_pass_checked

    def test_mutual_recursion_mesh(self, two_pass_checked):
        _analyze_program(call_mesh(routines=48, calls=5, ring=12), NO_STORE)
        assert two_pass_checked

    def test_unknown_and_hinted_sites(self, two_pass_checked):
        unknown = disassemble_image(
            assemble(TestColdEquivalence.UNKNOWN_CALL_SOURCE)
        )
        for program in (unknown, _dispatch_program()):
            _analyze_program(program, NO_STORE)
        assert len(two_pass_checked) == 2

    @pytest.mark.parametrize("name", ("compress", "li"))
    def test_pinned_external_entries(self, name, two_pass_checked):
        """A warm run solves the edited routine's cone with its callees
        pinned at their cached triples."""
        program = shape_program(name)
        cold = _analyze_incremental(program, config=NO_STORE)
        del two_pass_checked[:]
        victim = first_editable_routine(program)
        edited = perturb_routine(program, victim)
        run = _analyze_incremental(edited, cache=cold.cache, config=NO_STORE)
        assert run.metrics.dirty_routines == [victim]
        assert any(two_pass_checked)

    def test_regions_on_one_graph(self, two_pass_checked):
        """A warm edit that climbs a chain region by region over one
        graph, each solve reusing the run's ``Phase1State``; and a
        region that pins stubs phase 2 later takes over."""
        program = _chain(40)
        cold = _analyze_incremental(program, config=NO_STORE)
        del two_pass_checked[:]
        edited = _chain(40, leaf_reads="t5")
        _analyze_incremental(edited, cache=cold.cache, config=NO_STORE)
        assert len(two_pass_checked) > 1
        stubbed, memo = stub_takeover_case()
        _analyze_incremental(stubbed, cache=memo, config=NO_STORE)


class TestWarmEquivalence:
    @pytest.mark.parametrize("name", ("compress", "li"))
    def test_mutated_warm_runs_agree_across_cores(self, name, oracle_engines):
        """Cold run, mutate one routine, warm re-run from the cache: the
        warm path solves partial PSGs with pinned external entries and
        seeded exits.  Same bytes as a from-scratch analysis of the
        mutated program, same work under the oracle."""
        program = shape_program(name)
        victim = first_editable_routine(program)
        edited = perturb_routine(program, victim)
        reference = dump_summaries(_analyze_program(edited, NO_STORE).result)
        cold = _analyze_incremental(program, config=NO_STORE)

        def warm():
            run = _analyze_incremental(
                edited, cache=cold.cache, config=NO_STORE
            )
            assert run.metrics.dirty_routines == [victim]
            return run.result

        result = assert_same_work(warm, oracle_engines)
        assert dump_summaries(result) == reference


    def test_regions_on_one_graph_agree_across_cores(self, oracle_engines):
        """Many regions appended to one graph, each solved with the
        earlier ones frozen — an edit that climbs a chain level by
        level — and routines appended in phase 2 over the stubs phase 1
        left: same bytes and the same work under the oracle."""
        program = _chain(40)
        cold = _analyze_incremental(program, config=NO_STORE)
        edited = _chain(40, leaf_reads="t5")

        def climbing():
            run = _analyze_incremental(edited, cache=cold.cache, config=NO_STORE)
            assert run.metrics.phase1_solved == program.routine_count
            return run.result

        result = assert_same_work(climbing, oracle_engines)
        expected = _analyze_program(edited, NO_STORE).result
        assert dump_summaries(result) == dump_summaries(expected)
        stubbed, memo = stub_takeover_case()

        def takeover():
            return _analyze_incremental(stubbed, cache=memo, config=NO_STORE).result

        result = assert_same_work(takeover, oracle_engines)
        expected = _analyze_program(stubbed, NO_STORE).result
        assert dump_summaries(result) == dump_summaries(expected)


class TestFacadeEquivalence:
    def test_flat_matches_object_through_the_session(self, oracle_engines):
        program = shape_program("perl")

        def facade():
            session = AnalysisSession.from_program(program, config=NO_STORE)
            return session.analyze().result

        assert_same_work(facade, oracle_engines)


class TestVisitCounts:
    """One phase-1 visit updates all three sets, so a solve visits each
    node about once: a schedule that settled MAY-DEF/MUST-DEF and
    MAY-USE in separate passes visited every interior node twice and
    fails the gate.  Phase 2 is untouched, and its counts are pinned."""

    #: ``solver.{iterations,revisits,max_queue_depth}{phase=phase2}``.
    PHASE2 = {"gcc": (4128, 506, 3622), "mesh": (534, 6, 528)}

    @staticmethod
    def program(name):
        if name == "mesh":
            return call_mesh(routines=48, calls=5, ring=12)
        program, _shape = generate_benchmark(
            "gcc", scale=0.1, config=GeneratorConfig(seed=0)
        )
        return program

    @pytest.mark.parametrize("name", sorted(PHASE2))
    def test_phase1_visits_each_node_under_twice(self, name):
        program = self.program(name)
        REGISTRY.reset()
        _analyze_program(program, NO_STORE)
        counters = REGISTRY.delta_since({})
        nodes = counters["psg.nodes"]
        assert counters["solver.iterations{phase=phase1}"] < 2 * nodes
        assert tuple(
            counters[f"solver.{key}{{phase=phase2}}"]
            for key in ("iterations", "revisits", "max_queue_depth")
        ) == self.PHASE2[name]
