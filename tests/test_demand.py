"""Tests for the demand-driven query engine.

The contract under test (see :mod:`repro.interproc.demand`):

* a query's answer is **byte-identical** to the exhaustive solve's
  summary for that routine — cold, warm from a memoized cache, and
  after arbitrary edits against a stale cache;
* repeated and overlapping queries amortize: once every cone has been
  validated, further queries do no phase-1/phase-2 solving at all;
* the memoized cache a query writes back is never poisoned — routines
  the query invalidated come back as misses, never as stale facts —
  including under the structural-edit shapes (dropped and retargeted
  calls) that retract dependencies without dirtying the affected
  routine;
* the cache round-trips through the SUM3 wire format, phase-1-only
  triple entries included.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import AnalysisSession, UnknownRoutineError
from repro.interproc import dump_cache, dump_summaries, load_cache
from tests.facade import analyze_program
from repro.interproc.demand import query_routine
from repro.interproc.summaries import SummarySet
from repro.isa.instructions import ControlKind
from repro.isa.registers import ZERO_REGISTER
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image
from repro.program.model import Program
from repro.workloads.generator import GeneratorConfig, generate_benchmark
from repro.workloads.mutate import (
    _MUTABLE_OPCODES,
    first_editable_routine,
    perturb_routine,
)


def _canon(summary) -> bytes:
    """One routine's summary in its canonical wire form — the
    byte-identity the paper-table comparisons rely on."""
    return dump_summaries(SummarySet(summaries={summary.name: summary}))


def _generate(bench: str, scale: float = 0.12, seed: int = 5) -> Program:
    program, _shape = generate_benchmark(
        bench, scale=scale, config=GeneratorConfig(seed=seed)
    )
    return program


def _editable_routines(program: Program):
    """Every routine :func:`perturb_routine` can edit."""
    return [
        routine.name
        for routine in program.routines
        if any(
            instruction.opcode in _MUTABLE_OPCODES
            and instruction.opcode.control == ControlKind.FALLTHROUGH
            and instruction.literal is None
            and instruction.ra != ZERO_REGISTER
            for instruction in routine.instructions
        )
    ]


# ----------------------------------------------------------------------
# Byte-identity with the exhaustive solve (Table-2 shapes)
# ----------------------------------------------------------------------


class TestQueryMatchesExhaustive:
    @pytest.mark.parametrize("bench", ["compress", "li", "perl"])
    def test_cold_queries_byte_identical(self, bench):
        program = _generate(bench)
        full = analyze_program(program).result.summaries
        for name in sorted(full):
            result = query_routine(program, name)
            assert _canon(result.summary) == _canon(full[name]), name
            assert result.metrics.cold
            assert (
                result.metrics.phase2_cone_routines
                <= result.metrics.phase1_cone_routines
                <= program.routine_count
            )

    @pytest.mark.parametrize("bench", ["compress", "li", "perl"])
    def test_warm_chained_queries_amortize_to_zero(self, bench):
        program = _generate(bench)
        full = analyze_program(program).result.summaries
        cache = None
        for name in sorted(full):
            result = query_routine(program, name, cache=cache)
            cache = result.cache
            assert _canon(result.summary) == _canon(full[name]), name
        # Round-trip through the SUM3 wire format, as a sidecar would.
        cache = load_cache(dump_cache(cache))
        for name in sorted(full):
            result = query_routine(program, name, cache=cache)
            cache = result.cache
            assert result.metrics.phase1_solved == 0, name
            assert result.metrics.phase2_solved == 0, name
            assert _canon(result.summary) == _canon(full[name]), name

    @pytest.mark.parametrize("bench", ["compress", "li", "perl"])
    def test_mutated_program_queries_byte_identical(self, bench):
        program = _generate(bench)
        cache = None
        for name in sorted(program.routine_names()):
            cache = query_routine(program, name, cache=cache).cache
        edited = perturb_routine(program, first_editable_routine(program))
        full = analyze_program(edited).result.summaries
        for name in sorted(full):
            result = query_routine(edited, name, cache=cache)
            cache = result.cache
            assert _canon(result.summary) == _canon(full[name]), name
        # The refreshed cache is clean: everything now amortizes.
        for name in sorted(full):
            result = query_routine(edited, name, cache=cache)
            cache = result.cache
            assert result.metrics.phase2_solved == 0, name


# ----------------------------------------------------------------------
# Structural edits: dropped and retargeted calls
# ----------------------------------------------------------------------

_CALL_FAMILY_BASE = """
.routine main export
    li   a0, 1
    bsr  ra, shared
    halt
.routine shared
    addq a0, #1, v0
    ret  (ra)
.routine extra
    li   a0, 7
    {site}
    ret  (ra)
.routine other
    subq a0, #1, v0
    ret  (ra)
"""

#: Same-size rewrites of `extra`'s call site: only `extra` goes
#: fingerprint-dirty, but each swap retracts/retargets a dependency
#: some *other* routine's cached facts were built on.
_CALL_FAMILY = {
    "calls_shared": _CALL_FAMILY_BASE.format(site="bsr  ra, shared"),
    "calls_other": _CALL_FAMILY_BASE.format(site="bsr  ra, other"),
    "dropped": _CALL_FAMILY_BASE.format(site="addq a0, #1, a0"),
}


def _asm(source: str) -> Program:
    return disassemble_image(assemble(source))


class TestStructuralEditQueries:
    def _check_variant_sequence(self, sequence):
        cache = None
        for variant in sequence:
            program = _asm(_CALL_FAMILY[variant])
            full = analyze_program(program).result.summaries
            for name in sorted(full):
                result = query_routine(program, name, cache=cache)
                cache = result.cache
                assert _canon(result.summary) == _canon(full[name]), (
                    variant,
                    name,
                )

    def test_dropped_call(self):
        # `shared` loses an exit-seed contributor without going dirty;
        # a stale cache must not keep feeding the removed site's
        # live-after into queries for `shared`.
        self._check_variant_sequence(["calls_shared", "dropped"])

    def test_retargeted_call(self):
        # The old target loses a seed, the new one gains one.
        self._check_variant_sequence(["calls_shared", "calls_other"])

    def test_round_trip_back(self):
        self._check_variant_sequence(
            ["calls_shared", "calls_other", "calls_shared", "dropped"]
        )

    def test_refreshed_cache_is_not_poisoned(self):
        cache = None
        for variant in ("calls_shared", "dropped"):
            program = _asm(_CALL_FAMILY[variant])
            for name in sorted(program.routine_names()):
                cache = query_routine(program, name, cache=cache).cache
        program = _asm(_CALL_FAMILY["dropped"])
        full = analyze_program(program).result.summaries
        for name in sorted(full):
            result = query_routine(
                program, name, cache=load_cache(dump_cache(cache))
            )
            assert result.metrics.phase2_solved == 0, name
            assert _canon(result.summary) == _canon(full[name]), name


# ----------------------------------------------------------------------
# Random mutation sequences (Hypothesis)
# ----------------------------------------------------------------------

_PROPERTY = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_PROPERTY
@given(
    bench=st.sampled_from(["compress", "li", "perl"]),
    seed=st.integers(min_value=0, max_value=10_000),
    edits=st.lists(
        st.integers(min_value=0, max_value=1_000_000), min_size=1, max_size=3
    ),
    probe=st.integers(min_value=0, max_value=1_000_000),
)
def test_property_queries_track_random_edit_sequences(
    bench, seed, edits, probe
):
    program = _generate(bench, scale=0.08, seed=seed)
    cache = None
    for pick in edits:
        editable = _editable_routines(program)
        program = perturb_routine(program, editable[pick % len(editable)])
        full = analyze_program(program).result.summaries
        names = sorted(full)
        routine = names[probe % len(names)]
        result = query_routine(program, routine, cache=cache)
        cache = result.cache
        assert _canon(result.summary) == _canon(full[routine]), routine
    # After the last edit, every routine must agree through the chain
    # of memoized caches the probes left behind.
    for name in names:
        result = query_routine(program, name, cache=cache)
        cache = result.cache
        assert _canon(result.summary) == _canon(full[name]), name


@_PROPERTY
@given(
    sequence=st.lists(
        st.sampled_from(sorted(_CALL_FAMILY)), min_size=1, max_size=4
    ),
)
def test_property_queries_track_call_rewrite_sequences(sequence):
    cache = None
    for variant in sequence:
        program = _asm(_CALL_FAMILY[variant])
        full = analyze_program(program).result.summaries
        for name in sorted(full):
            result = query_routine(program, name, cache=cache)
            cache = result.cache
            assert _canon(result.summary) == _canon(full[name]), (
                variant,
                name,
            )


# ----------------------------------------------------------------------
# AnalysisSession.query
# ----------------------------------------------------------------------


class TestSessionQuery:
    def test_unknown_routine_raises(self, quick_program):
        session = AnalysisSession.from_program(quick_program)
        with pytest.raises(UnknownRoutineError):
            session.query("nonexistent")

    def test_session_threads_its_own_cache(self, small_benchmark):
        session = AnalysisSession.from_program(small_benchmark)
        names = sorted(small_benchmark.routine_names())
        first = session.query(names[0])
        assert first.metrics.cold
        again = session.query(names[0])
        assert not again.metrics.cold
        assert again.metrics.phase1_solved == 0
        assert again.metrics.phase2_solved == 0
        assert _canon(first.summary) == _canon(again.summary)

    def test_metrics_and_summaries_reflect_query(self, small_benchmark):
        session = AnalysisSession.from_program(small_benchmark)
        name = sorted(small_benchmark.routine_names())[0]
        result = session.query(name)
        payload = session.metrics()
        assert payload["kind"] == "query"
        assert payload["routine"] == name
        assert payload["phase2_cone_routines"] >= 1
        assert "counters" in payload
        assert name in session.summaries().summaries
        assert result.cache.result.summaries[name] is result.summary

    def test_explicit_cache_warms_a_fresh_session(self, small_benchmark):
        name = sorted(small_benchmark.routine_names())[0]
        warmed = query_routine(small_benchmark, name).cache
        session = AnalysisSession.from_program(small_benchmark)
        result = session.query(name, cache=warmed)
        assert not result.metrics.cold
        assert result.metrics.phase2_solved == 0
