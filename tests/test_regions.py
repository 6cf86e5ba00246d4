"""The region solve on long call chains.

Every path solves the components it needs as regions, each appended to
the run's one graph: a cold query or incremental run solves one region
per phase, a warm run after an edit that climbs the whole chain one per
level, and either builds one graph, never larger than the cold run's,
and recurses nowhere.
"""

import pytest

from repro.api import AnalysisConfig, AnalysisSession
from repro.interproc.persist import dump_cache, dump_summaries, load_cache
from repro.interproc.store import SummaryStore
from repro.interproc.summaries import SummarySet
from repro.obs.metrics import REGISTRY
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image
from repro.psg.build import PsgAssembly

_OFF = AnalysisConfig(store="off")


def _chain(depth: int, leaf_reads: str = "a0"):
    """``f0`` (exported, the entry) calls ``f1``, which calls ``f2``, …
    down to the leaf ``f{depth - 1}``, which reads ``leaf_reads``: every
    component a singleton."""
    parts = []
    for index in range(depth):
        parts.append(f".routine f{index}" + (" export" if index == 0 else ""))
        parts += ["    lda sp, -16(sp)", "    stq ra, 0(sp)"]
        if index + 1 < depth:
            parts += ["    addq a0, #1, a0", f"    bsr ra, f{index + 1}"]
        else:
            parts.append(f"    bis zero, {leaf_reads}, v0")
        parts += ["    ldq ra, 0(sp)", "    lda sp, 16(sp)"]
        parts.append("    halt" if index == 0 else "    ret (ra)")
    return disassemble_image(assemble("\n".join(parts)))


def _caller_and_two_callees(main_step: str):
    """``main`` (exported) calls ``r`` and then ``q``, running
    ``main_step`` between the two calls."""
    return disassemble_image(assemble("\n".join([
        ".routine main export",
        "    lda sp, -16(sp)", "    stq ra, 0(sp)",
        "    bsr ra, r", main_step, "    bsr ra, q",
        "    ldq ra, 0(sp)", "    lda sp, 16(sp)", "    halt",
        ".routine q", "    bis zero, a0, v0", "    ret (ra)",
        ".routine r", "    bis zero, a1, v0", "    ret (ra)",
    ])))


def stub_takeover_case():
    """``(edited program, cache)`` for a warm run that appends routines
    in phase 2 where its phase-1 region left stubs: the cache is the
    memo of a query of ``main``, which holds phase-1-only rows of ``q``
    and ``r``, and the edit makes ``main`` read ``t5`` after calling
    ``r``.  Phase 1 re-solves ``main`` alone, pinning ``q`` and ``r``
    at stubs; phase 2 solves all three as one region, so ``main``'s
    liveness after each call must reach the callee's exits inside it."""
    memo = AnalysisSession.from_program(
        _caller_and_two_callees("    addq a0, #1, a0"), _OFF
    ).query("main").cache
    return _caller_and_two_callees("    addq t5, #1, a0"), load_cache(dump_cache(memo))


def _canon(summary) -> bytes:
    return dump_summaries(SummarySet(summaries={summary.name: summary}))


def _counted(run):
    """``run()``'s result and the counters it moved."""
    before = REGISTRY.snapshot()
    result = run()
    return result, REGISTRY.delta_since(before)


def _graphs_built(run):
    """``run()``'s result and the PSGs it built, whole or partial."""
    result, delta = _counted(run)
    return result, delta.get("psg.builds", 0) + delta.get("psg.partial_builds", 0)


@pytest.fixture(scope="module")
def chain_2000():
    program = _chain(2000)
    full = AnalysisSession.from_program(program, _OFF).analyze().result
    return program, full


class TestRegions:
    @pytest.mark.parametrize("routine", ["f1999", "f0"], ids=["leaf", "root"])
    def test_cold_query_builds_one_region_per_phase(self, chain_2000, routine):
        program, full = chain_2000
        session = AnalysisSession.from_program(program, _OFF)
        result, graphs = _graphs_built(lambda: session.query(routine))
        assert graphs <= 2
        assert _canon(result.summary) == _canon(full.summaries[routine])

    def test_cold_run_against_an_empty_store(self, chain_2000, tmp_path):
        program, full = chain_2000
        config = AnalysisConfig(store=SummaryStore(str(tmp_path / "store")))
        session = AnalysisSession.from_program(program, config)
        result, graphs = _graphs_built(session.analyze_incremental)
        assert graphs <= 2
        assert result.metrics.phase1_solved == program.routine_count
        assert dump_summaries(result.result) == dump_summaries(full)


    def test_warm_run_after_a_leaf_edit_builds_one_graph(self, chain_2000):
        """The leaf reads ``t5`` now, so every routine's triple moves and
        phase 1 re-solves the chain one level at a time: each level is
        appended to the run's one graph, which ends no larger than the
        cold run's."""
        program, _full = chain_2000
        cold, cold_counts = _counted(
            AnalysisSession.from_program(program, _OFF).analyze_incremental
        )
        edited = _chain(2000, leaf_reads="t5")
        warm, counts = _counted(
            lambda: AnalysisSession.from_program(edited, _OFF)
            .analyze_incremental(cache=cold.cache)
        )
        expected = AnalysisSession.from_program(edited, _OFF).analyze().result
        assert dump_summaries(warm.result) == dump_summaries(expected)
        assert warm.metrics.phase1_solved == program.routine_count
        assert counts["engine.regions{phase=phase1}"] == program.routine_count
        assert counts.get("psg.builds", 0) + counts.get("psg.partial_builds", 0) <= 1
        assert counts["psg.nodes"] <= cold_counts["psg.nodes"]


def test_registry_calls_of_a_warm_run_do_not_grow_with_depth(monkeypatch):
    """A warm run counts per region into its own tally and records it
    once: after the leaf edit that re-solves every level, a 200-deep
    and a 2 000-deep chain make the same number of ``REGISTRY.inc``
    calls."""
    calls = []
    inc = REGISTRY.inc

    def counting(name, amount=1, **labels):
        calls.append(name)
        inc(name, amount, **labels)

    made = {}
    for depth in (200, 2000):
        cold = AnalysisSession.from_program(_chain(depth), _OFF).analyze_incremental()
        warm = AnalysisSession.from_program(_chain(depth, leaf_reads="t5"), _OFF)
        monkeypatch.setattr(REGISTRY, "inc", counting)
        run = warm.analyze_incremental(cache=cold.cache)
        monkeypatch.undo()
        assert run.metrics.phase1_solved == depth
        assert run.metrics.ledger.value("engine.regions", phase="phase1") == depth
        made[depth], calls[:] = len(calls), []
    assert made[200] == made[2000]


def test_a_stubbed_callee_joining_the_graph_takes_its_calls_over(monkeypatch):
    program, memo = stub_takeover_case()
    unstubbed = []
    add_routine = PsgAssembly.add_routine

    def recording(assembly, routine_psg):
        if routine_psg.routine in assembly.stubs:
            unstubbed.append(routine_psg.routine)
        add_routine(assembly, routine_psg)

    monkeypatch.setattr(PsgAssembly, "add_routine", recording)
    warm, counts = _counted(
        lambda: AnalysisSession.from_program(program, _OFF)
        .analyze_incremental(cache=memo)
    )
    expected = AnalysisSession.from_program(program, _OFF).analyze().result
    assert sorted(unstubbed) == ["q", "r"]
    assert counts["engine.regions{phase=phase2}"] == 1
    assert warm.metrics.phase2_solved == 3
    assert dump_summaries(warm.result) == dump_summaries(expected)


def test_5000_deep_chain_solves_on_every_path(tmp_path):
    """No path recurses per call-graph level: the whole solve, a cold
    query of the deepest routine and a cold incremental run (store off,
    and against an empty store) all finish with the same summaries."""
    program = _chain(5000)
    leaf = "f4999"
    full = AnalysisSession.from_program(program, _OFF).analyze().result
    expected = dump_summaries(full)
    query = AnalysisSession.from_program(program, _OFF).query(leaf)
    assert _canon(query.summary) == _canon(full.summaries[leaf])
    store = AnalysisConfig(store=SummaryStore(str(tmp_path / "store")))
    for config in (_OFF, store):
        run = AnalysisSession.from_program(program, config).analyze_incremental()
        assert dump_summaries(run.result) == expected
