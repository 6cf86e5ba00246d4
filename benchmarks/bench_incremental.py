"""Incremental re-analysis: cold vs warm vs one-routine-dirty.

Spike's workflow re-runs the analysis after every optimization edit;
the incremental engine (:mod:`repro.interproc.incremental`) makes the
re-run cost proportional to the edit, not the program.  This bench
measures the three interesting points on generated workloads:

* **cold** — no cache: the full five-stage pipeline;
* **warm, clean** — a cache with zero dirty routines: CFG build and
  fingerprinting only, no phase-1/phase-2 solving at all (asserted);
* **warm, one edit** — one routine's code changed: only its SCC and
  the dependents whose consumed facts actually changed are re-solved,
  and the result is asserted identical to a from-scratch analysis of
  the edited program.
"""

import time

import pytest

from benchmarks.conftest import analyze_serial, benchmark_program, record
from repro.api import AnalysisSession
from repro.interproc import dump_cache, dump_summaries, load_cache
from repro.workloads.mutate import first_editable_routine, perturb_routine

INCREMENTAL_BENCHMARKS = ["compress", "li", "perl", "vortex"]

HEADERS = (
    "Benchmark",
    "Routines",
    "Cold (s)",
    "Warm clean (s)",
    "Edit full (s)",
    "Edit incr (s)",
    "Reanalyzed",
    "Warm speedup",
)


@pytest.mark.parametrize("name", INCREMENTAL_BENCHMARKS)
def test_incremental_cold_vs_warm(benchmark, name):
    program, shape = benchmark_program(name)

    def measure():
        start = time.perf_counter()
        session = AnalysisSession.from_program(program)
        cold = session.analyze_incremental()
        cold_seconds = time.perf_counter() - start

        # Round-trip the cache through the SUM3 wire format, as a real
        # warm start from a sidecar file would.
        cache = load_cache(dump_cache(cold.cache))

        start = time.perf_counter()
        warm = session.analyze_incremental(cache=cache)
        warm_seconds = time.perf_counter() - start

        edited = perturb_routine(program, first_editable_routine(program))
        start = time.perf_counter()
        full = analyze_serial(edited)
        full_seconds = time.perf_counter() - start
        start = time.perf_counter()
        incr = AnalysisSession.from_program(edited).analyze_incremental(
            cache=load_cache(dump_cache(cold.cache))
        )
        incr_seconds = time.perf_counter() - start
        return cold, cold_seconds, warm, warm_seconds, full, full_seconds, incr, incr_seconds

    (
        cold, cold_seconds,
        warm, warm_seconds,
        full, full_seconds,
        incr, incr_seconds,
    ) = benchmark.pedantic(measure, rounds=1, iterations=1)

    # A clean warm run does no solving and returns the cached facts.
    assert warm.metrics.phase1_solved == 0
    assert warm.metrics.phase2_solved == 0
    assert dump_summaries(warm.result) == dump_summaries(cold.result)
    assert warm_seconds < cold_seconds, "clean warm run should beat cold"

    # The one-edit incremental run matches from-scratch analysis ...
    assert dump_summaries(incr.result) == dump_summaries(full.result), (
        incr.result.diff(full.result)
    )
    # ... while re-solving only part of the program.
    assert incr.metrics.phase2_solved < program.routine_count

    record(
        "Incremental re-analysis: cold vs warm vs one edit",
        HEADERS,
        (
            name,
            program.routine_count,
            cold_seconds,
            warm_seconds,
            full_seconds,
            incr_seconds,
            incr.metrics.phase2_solved,
            cold_seconds / max(warm_seconds, 1e-9),
        ),
        note=(
            "Warm clean = cache hit, zero dirty routines (no phase solving); "
            "Edit = one routine perturbed, incremental vs full re-analysis."
        ),
    )
