"""Demand-driven query latency vs the whole-program solve.

An interactive consumer (a debugger plugin, an editor, a serving
deployment) asks about *one* routine; the demand engine
(:mod:`repro.interproc.demand`) answers by solving only that routine's
caller cone plus its callee closure, memoizing validated facts back
into the SUM5 cache so later queries amortize.  This bench measures
the interesting points on the gcc shape (the paper's largest SPEC
row — the worst case for "just solve everything"):

* **whole program** — the exhaustive serial solve, the baseline a
  query must beat;
* **query cold** — no cache: cone-restricted solve from scratch;
* **query warm** — repeat of the same query against the memoized
  cache: CFG build plus fingerprinting, zero phase solving (asserted);
* **query post-edit** — the queried routine itself is perturbed and
  re-queried against the now-stale cache: only its invalidation cone
  re-solves.

``REPRO_BENCH_REQUIRE_SPEEDUP=1`` turns the headline expectation into
an assertion: the warm query answers at least 5x faster than the
whole-program solve.
"""

import os
import time

import pytest

from benchmarks.conftest import analyze_serial, benchmark_program, record
from repro.api import AnalysisSession
from repro.interproc import dump_cache, load_cache
from repro.interproc.persist import dump_summaries
from repro.interproc.summaries import SummarySet
from repro.workloads.mutate import first_editable_routine, perturb_routine

REQUIRE_SPEEDUP = os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP") == "1"

DEMAND_BENCHMARKS = ["gcc"]

HEADERS = (
    "Benchmark",
    "Routines",
    "Routine",
    "P1/P2 cone",
    "Whole (s)",
    "Query cold (s)",
    "Query warm (s)",
    "Post-edit (s)",
    "Warm speedup",
)


def _canon(summary) -> bytes:
    return dump_summaries(SummarySet(summaries={summary.name: summary}))


@pytest.mark.parametrize("name", DEMAND_BENCHMARKS)
def test_demand_query_vs_whole_program(benchmark, name):
    program, _shape = benchmark_program(name)
    routine = first_editable_routine(program)

    def measure():
        start = time.perf_counter()
        whole = analyze_serial(program)
        whole_seconds = time.perf_counter() - start

        session = AnalysisSession.from_program(program)
        start = time.perf_counter()
        cold = session.query(routine)
        cold_seconds = time.perf_counter() - start

        # Round-trip the memoized cache through the SUM5 wire format,
        # as a real warm start from a sidecar file would; the session
        # keeps its front-end (CFGs, call graph) across queries, as a
        # serving deployment would.
        cache = load_cache(dump_cache(cold.cache))
        start = time.perf_counter()
        warm = session.query(routine, cache=cache)
        warm_seconds = time.perf_counter() - start

        edited = perturb_routine(program, routine)
        cache = load_cache(dump_cache(warm.cache))
        start = time.perf_counter()
        post_edit = AnalysisSession.from_program(edited).query(
            routine, cache=cache
        )
        post_edit_seconds = time.perf_counter() - start
        return (
            whole, whole_seconds,
            cold, cold_seconds,
            warm, warm_seconds,
            edited, post_edit, post_edit_seconds,
        )

    (
        whole, whole_seconds,
        cold, cold_seconds,
        warm, warm_seconds,
        edited, post_edit, post_edit_seconds,
    ) = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Cold and warm answers are byte-identical to the exhaustive solve.
    assert _canon(cold.summary) == _canon(whole.result.summaries[routine])
    assert _canon(warm.summary) == _canon(whole.result.summaries[routine])
    # The warm repeat did no phase solving at all.
    assert warm.metrics.phase1_solved == 0
    assert warm.metrics.phase2_solved == 0
    # The post-edit answer matches a from-scratch solve of the edit.
    assert _canon(post_edit.summary) == _canon(
        analyze_serial(edited).result.summaries[routine]
    )
    assert post_edit.metrics.phase2_solved < program.routine_count

    speedup = whole_seconds / max(warm_seconds, 1e-9)
    if REQUIRE_SPEEDUP:
        assert speedup >= 5.0, (
            f"warm query only {speedup:.1f}x over the whole-program solve "
            f"on {name} (whole {whole_seconds:.3f}s, warm "
            f"{warm_seconds:.3f}s); expected >= 5x"
        )

    record(
        "Demand queries: one routine vs the whole-program solve",
        HEADERS,
        (
            name,
            program.routine_count,
            routine,
            f"{cold.metrics.phase1_cone_routines}/"
            f"{cold.metrics.phase2_cone_routines}",
            whole_seconds,
            cold_seconds,
            warm_seconds,
            post_edit_seconds,
            speedup,
        ),
        note=(
            "Cold = no cache, cone-restricted solve; warm = repeat against "
            "the memoized SUM5 cache (zero phase solving, asserted); "
            "post-edit = queried routine perturbed, stale cache."
        ),
    )
