"""What an analysis keeps: its answer, not its graphs.

A serial run releases each routine's CFG rows once the PSG build has
labeled it (when the run built its own front end), the arena after
phase 2 and the PSG and both phase solutions after assembly.  The
graphs come back on request — solved again over the retained front
end, outside the run's ledger — and equal what the run solved.

The incremental engine (``analyze_incremental``, ``query``) releases a
routine's rows as its region's build labels it, and the session's
front end keeps the labeled fragment instead: a later run of the
session appends it, so no routine is walked twice.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.api import AnalysisConfig, AnalysisSession
from repro.interproc.analysis import (
    callee_saved_filter,
    solve_phase1,
    solve_phase2,
)
from repro.interproc.persist import dump_cache, dump_summaries
from repro.interproc.store import config_digest
from repro.obs.metrics import REGISTRY
from repro.opt.pipeline import PASS_NAMES
from repro.psg.build import build_partial_psg
from repro.workloads.generator import GeneratorConfig, generate_benchmark

STORE_OFF = AnalysisConfig(store="off")


@pytest.fixture(scope="module")
def compress():
    """A small Table-2 shape, its rows decoded before anything is
    measured (a program decodes them on first read and keeps them)."""
    program, _shape = generate_benchmark(
        "compress", scale=0.2, config=GeneratorConfig(seed=7)
    )
    for routine in program:
        routine.rows
    return program


def _read_graphs(analysis) -> None:
    analysis.psg, analysis.phase1, analysis.phase2
    for name in analysis.cfgs:
        analysis.cfgs[name]


def _traced_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_a_fresh_analysis_holds_no_graph(compress):
    analysis = AnalysisSession.from_program(compress, STORE_OFF).analyze()
    assert analysis.frontend.cfgs.built == {}
    assert "_graphs" not in vars(analysis)
    assert analysis.frontend.cfgs_built == compress.routine_count


def test_retained_heap_is_at_most_half_of_the_graphs(compress):
    tracemalloc.start()
    try:
        base = _traced_bytes()
        analysis = AnalysisSession.from_program(compress, STORE_OFF).analyze()
        retained = _traced_bytes() - base
        _read_graphs(analysis)
        full = _traced_bytes() - base
    finally:
        tracemalloc.stop()
    assert 0 < retained <= 0.5 * full, (retained, full)


def test_rederived_graphs_equal_a_region_solve(compress):
    analysis = AnalysisSession.from_program(compress, STORE_OFF).analyze()
    psg, phase1, phase2 = analysis.psg, analysis.phase1, analysis.phase2

    config = analysis.config
    cfgs = analysis.cfgs
    saved = {
        name: cfgs[name].saved & callee_saved_filter(config) for name in cfgs
    }
    assert saved == analysis.saved_restored
    region = build_partial_psg(
        [cfgs[name] for name in cfgs], config.psg, whole=True,
        convention=config.convention,
    )
    order = analysis.call_graph.reverse_topological_order()
    expected1 = solve_phase1(region, saved, config, order, {})
    expected2 = solve_phase2(
        region.psg, config, analysis.call_graph.externally_callable,
        order[::-1], {},
    )
    expected = region.psg

    arena, other = psg.arena, expected.arena
    for column in (
        "edge_src", "edge_dst", "edge_label", "labels", "flow_view",
        "dep1_view", "dep2_view", "ret_view", "cr_dst", "cr_single",
        "cr_nodes", "cr_callees", "cr_unknown",
    ):
        assert getattr(arena, column) == getattr(other, column), column
    for column in ("cr_call", "cr_return", "cr_targets", "cr_label"):
        assert getattr(psg, column) == getattr(expected, column), column
    assert (phase1.may_use, phase1.may_def, phase1.must_def) == (
        expected1.may_use, expected1.may_def, expected1.must_def
    )
    assert phase2.may_use == expected2.may_use
    assert (psg.node_count, psg.edge_count) == (
        analysis.psg_node_count, analysis.psg_edge_count
    )


def test_reports_walk_each_routine_once(compress):
    before = REGISTRY.snapshot()
    session = AnalysisSession.from_program(compress, STORE_OFF)
    analysis = session.analyze()
    payload = session.to_json(True)
    analysis.describe()
    assert payload["counters"]["frontend.rows"] == compress.routine_count
    assert REGISTRY.delta_since(before)["frontend.rows"] == compress.routine_count
    assert payload["psg_nodes"] == analysis.psg_node_count


def test_optimizer_walks_each_routine_once_per_analysis(compress):
    before = REGISTRY.snapshot()
    AnalysisSession.from_program(compress, STORE_OFF).optimize()
    walks = REGISTRY.delta_since(before)["frontend.rows"]
    assert walks == len(PASS_NAMES) * compress.routine_count


def test_reading_the_graphs_leaves_the_run_ledger_alone(compress):
    analysis = AnalysisSession.from_program(compress, STORE_OFF).analyze()
    counters = analysis.metrics.ledger.as_dict()
    before = REGISTRY.snapshot()
    _read_graphs(analysis)
    assert REGISTRY.delta_since(before)["frontend.rows"] == compress.routine_count
    assert analysis.metrics.ledger.as_dict() == counters
    assert analysis.metrics.cfgs_built == compress.routine_count
    assert analysis.frontend.cfgs_built == 2 * compress.routine_count


# ----------------------------------------------------------------------
# The incremental engine
# ----------------------------------------------------------------------


def _labeled(frontend):
    return frontend.labeled(config_digest(STORE_OFF))


def _figures(analysis):
    """``describe()``'s structure lines (not its seconds)."""
    return analysis.describe().splitlines()[:5]


def test_a_cold_incremental_run_holds_no_labeled_rows(compress):
    run = AnalysisSession.from_program(compress, STORE_OFF).analyze_incremental()
    labeled = _labeled(run.frontend)
    assert set(labeled) == set(compress.routine_names())
    assert run.frontend.cfgs.built == {}
    assert run.frontend.cfgs_built == compress.routine_count


def test_a_cold_query_holds_no_labeled_rows(compress):
    name = compress.routine_names()[-1]
    result = AnalysisSession.from_program(compress, STORE_OFF).query(name)
    labeled = _labeled(result.frontend)
    assert name in labeled
    assert labeled.keys().isdisjoint(result.frontend.cfgs.built)
    # The routines outside the cone were walked for the call graph and
    # keep their rows until a run labels them.
    assert len(labeled) + len(result.frontend.cfgs.built) == compress.routine_count


def test_engine_retained_heap_leaves_out_its_rows(compress):
    """A cold incremental run retains its fragments, summaries and
    sidecar records: at most 0.6 of what it would hold with every CFG
    row kept as well (0.55 on this program; 1.0 when nothing is
    released)."""
    tracemalloc.start()
    try:
        base = _traced_bytes()
        run = AnalysisSession.from_program(compress, STORE_OFF).analyze_incremental()
        retained = _traced_bytes() - base
        for name in run.cfgs:
            run.cfgs[name]
        full = _traced_bytes() - base
    finally:
        tracemalloc.stop()
    assert 0 < retained <= 0.6 * full, (retained, full)


def test_a_session_walks_each_routine_once(compress):
    fresh = AnalysisSession.from_program(compress, STORE_OFF).analyze()
    name = compress.routine_names()[-1]
    expected = AnalysisSession.from_program(compress, STORE_OFF).query(name)

    session = AnalysisSession.from_program(compress, STORE_OFF)
    session.analyze_incremental()
    before = REGISTRY.snapshot()
    full = session.analyze()
    queried = session.query(name)
    delta = REGISTRY.delta_since(before)
    assert delta["frontend.rows"] == 0
    assert full.metrics.ledger.value("frontend.fragment.hit") == compress.routine_count
    assert dump_summaries(full.result) == dump_summaries(fresh.result)
    assert _figures(full) == _figures(fresh)
    assert full.saved_restored == fresh.saved_restored
    assert queried.summary == expected.summary
    assert queried.metrics.cfgs_built == 0
    # The graphs are solved again, from rows walked again, on request.
    assert full.psg.edge_count == fresh.psg_edge_count


def test_a_cold_sidecar_is_the_same_after_a_query(compress):
    fresh = AnalysisSession.from_program(compress, STORE_OFF).analyze_incremental()
    session = AnalysisSession.from_program(compress, STORE_OFF)
    session.query(compress.routine_names()[-1])
    before = REGISTRY.snapshot()
    cold = session.analyze_incremental()
    assert REGISTRY.delta_since(before)["frontend.fragment.hit"] > 0
    assert dump_cache(cold.cache) == dump_cache(fresh.cache)
    assert dump_summaries(cold.result) == dump_summaries(fresh.result)
