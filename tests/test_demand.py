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
* the cache round-trips through the SUM5 wire format, phase-1-only
  rows included;
* a query solves the components it needs as regions of at most one
  graph, and a session labels each routine's PSG at most once: a
  later query appends the fragments its memoized cache carries, which
  are the configuration's own.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import AnalysisConfig, AnalysisSession, UnknownRoutineError
from repro.interproc import dump_cache, dump_summaries, load_cache
from repro.interproc.persist import fragment_body
from repro.cfg.callgraph import build_call_graph
from tests.facade import analyze_incremental, analyze_program
from tests.test_sidecar_pack import _forged_exit_kind
from repro.interproc.demand import query_routine
from repro.interproc.store import config_digest
from repro.interproc.summaries import SummarySet
from repro.obs.metrics import REGISTRY
from repro.psg import build as psg_build
from repro.psg.build import PsgConfig
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
from tests.decoded import rows_of


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
            for instruction in rows_of(routine.code)
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
        # Round-trip through the SUM5 wire format, as a sidecar would.
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

    def test_query_after_an_edit_resolves_part_of_the_program(self):
        """The edited routine's own query, against the memo of its query
        before the edit, is exact and does not re-solve the program."""
        program = _generate("perl")
        routine = first_editable_routine(program)
        memo = dump_cache(query_routine(program, routine).cache)
        edited = perturb_routine(program, routine)
        result = query_routine(edited, routine, cache=load_cache(memo))
        expected = analyze_program(edited).result.summaries[routine]
        assert _canon(result.summary) == _canon(expected)
        assert result.metrics.phase2_solved < program.routine_count


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
    full_runs=st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_property_queries_track_random_edit_sequences(
    bench, seed, edits, probe, full_runs
):
    program = _generate(bench, scale=0.08, seed=seed)
    cache = None
    for pick, full_run in zip(edits, full_runs):
        editable = _editable_routines(program)
        program = perturb_routine(program, editable[pick % len(editable)])
        cold = analyze_program(program).result
        full = cold.summaries
        names = sorted(full)
        routine = names[probe % len(names)]
        result = query_routine(program, routine, cache=cache)
        cache = result.cache
        assert _canon(result.summary) == _canon(full[routine]), routine
        if full_run:
            # A whole run on the query's memo, through the wire format,
            # and the next query on the run's.
            run = analyze_incremental(program, cache=load_cache(dump_cache(cache)))
            cache = run.cache
            assert dump_summaries(run.result) == dump_summaries(cold)
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

    def test_query_after_the_sessions_incremental_run_solves_nothing(self):
        """The session's own incremental run warms its next query: the
        refreshed cache holds every routine's rows."""
        program = _generate("compress", scale=0.2, seed=7)
        session = AnalysisSession.from_program(program, _OFF)
        run = session.analyze_incremental()
        assert session.has_query_state
        last = list(program.routine_names())[-1]
        result = session.query(last)
        assert not result.metrics.cold
        assert (result.metrics.phase1_solved, result.metrics.phase2_solved) == (0, 0)
        assert _canon(result.summary) == _canon(run.result.summaries[last])

    def test_a_session_hashes_its_image_once(self, monkeypatch):
        """Twelve queries hash the image bytes once between them, and no
        query changes the cache an earlier one handed back."""
        from repro import api
        from repro.interproc import persist
        from repro.program.rewrite import program_to_image

        program = _generate("compress", scale=0.2, seed=7)
        image = program_to_image(program).to_bytes()
        hashed = []

        def counting(data):
            hashed.append(len(data))
            return fingerprint(data)

        fingerprint = persist.image_fingerprint
        monkeypatch.setattr(persist, "image_fingerprint", counting)
        monkeypatch.setattr(api, "image_fingerprint", counting)
        session = AnalysisSession.from_image_bytes(image, _OFF)
        names = sorted(program.routine_names())
        first = session.query(names[0])
        held = dump_cache(first.cache)
        for index in range(1, 12):
            session.query(names[index * 7 % len(names)])
        assert hashed == [len(image)]
        assert dump_cache(first.cache) == held
        assert load_cache(held).image_fingerprint == fingerprint(image)

    def test_explicit_cache_warms_a_fresh_session(self, small_benchmark):
        name = sorted(small_benchmark.routine_names())[0]
        warmed = query_routine(small_benchmark, name).cache
        session = AnalysisSession.from_program(small_benchmark)
        result = session.query(name, cache=warmed)
        assert not result.metrics.cold
        assert result.metrics.phase2_solved == 0


# ----------------------------------------------------------------------
# A session's labeled work
# ----------------------------------------------------------------------

_OFF = AnalysisConfig(store="off")

#: Every routine is a transitive caller of `leaf`.
_DIAMOND = """
.routine main export
    li   a0, 1
    bsr  ra, left
    bsr  ra, right
    halt
.routine left
    addq a0, #1, a1
    bsr  ra, leaf
    ret  (ra)
.routine right
    subq a0, #1, a2
    bsr  ra, leaf
    ret  (ra)
.routine leaf
    addq a1, a2, v0
    ret  (ra)
"""


def _drill_down(program):
    """The entry, then the routines it reaches, breadth-first: each
    query's caller cone holds routines earlier queries answered."""
    graph = build_call_graph(program)
    order, seen = [program.entry], {program.entry}
    for name in order:
        for callee in graph.callees_of(name):
            if callee not in seen:
                seen.add(callee)
                order.append(callee)
    return order


class TestSessionPartialPsgs:
    """A session's unit of reuse is one routine's labeled PSG fragment,
    held decoded in the memoized cache the session threads between
    queries; each query builds at most one graph."""

    @staticmethod
    def _recording(monkeypatch):
        labeled = []
        label = psg_build.build_routine_psg

        def recording(cfg, config, assembly):
            labeled.append(cfg.name)
            return label(cfg, config, assembly)

        monkeypatch.setattr(psg_build, "build_routine_psg", recording)
        return labeled

    @pytest.mark.parametrize("bench", ["li", "perl"])
    def test_drill_down_builds_each_component_once(self, bench, monkeypatch):
        program = _generate(bench)
        full = analyze_program(program, _OFF).result.summaries
        labeled = self._recording(monkeypatch)
        session = AnalysisSession.from_program(program, _OFF)
        deltas = []
        for name in _drill_down(program):
            before = REGISTRY.snapshot()
            result = session.query(name)
            deltas.append(REGISTRY.delta_since(before))
            assert _canon(result.summary) == _canon(full[name]), name
        assert len(labeled) == len(set(labeled)) <= program.routine_count
        for delta in deltas:
            assert delta.get("psg.partial_builds", 0) <= 1
            assert delta.get("psg.builds", 0) == 0
        # The later queries' regions append what the first one labeled.
        assert sum(d["cache.fragment.hit"] for d in deltas[1:]) > 0

    def test_memo_is_empty_once_phase_2_has_covered_the_program(
        self, monkeypatch
    ):
        program = _asm(_DIAMOND)
        labeled = self._recording(monkeypatch)
        session = AnalysisSession.from_program(program, _OFF)
        before = REGISTRY.snapshot()
        session.query("main")
        first = REGISTRY.delta_since(before)
        # Phase 1 labeled all four routines as one region, phase 2
        # solved main's component as another, on the same graph.
        assert sorted(labeled) == sorted(program.routine_names())
        assert first["psg.partial_builds"] == 1
        assert first["engine.regions{phase=phase2}"] == 1
        before = REGISTRY.snapshot()
        last = session.query("leaf")
        delta = REGISTRY.delta_since(before)
        assert last.metrics.phase2_cone_routines == program.routine_count
        # One region from the fragments the first query left: nothing
        # labeled again.
        assert len(labeled) == program.routine_count
        assert delta["psg.partial_builds"] == 1
        assert delta["cache.fragment.hit"] == 3
        # Phase 2 has covered the program: nothing is left to build.
        before = REGISTRY.snapshot()
        for name in program.routine_names():
            session.query(name)
        assert REGISTRY.delta_since(before).get("psg.partial_builds", 0) == 0

    @pytest.mark.parametrize(
        "ablation",
        [
            AnalysisConfig(psg=PsgConfig(branch_nodes=False), store="off"),
            AnalysisConfig(callee_saved_filtering=False, store="off"),
        ],
        ids=["no-branch-nodes", "no-callee-saved-filtering"],
    )
    def test_configurations_share_no_graph(self, ablation, switchy_benchmark):
        program = switchy_benchmark
        configs = (_OFF, ablation)
        expected = [
            analyze_program(program, config).result.summaries
            for config in configs
        ]
        sessions = [
            AnalysisSession.from_program(program, config) for config in configs
        ]
        names = _drill_down(program)
        for name in names:
            for session, full in zip(sessions, expected):
                result = session.query(name)
                assert _canon(result.summary) == _canon(full[name]), name
        caches = [session.query(program.entry).cache for session in sessions]
        for cache, config in zip(caches, configs):
            assert cache.config_digest == config_digest(config)
        # The same bodies, labeled under each configuration apart.
        shared = set(caches[0].fragments) & set(caches[1].fragments)
        assert shared and any(
            fragment_body(caches[0].fragments[key])
            != fragment_body(caches[1].fragments[key])
            for key in shared
        )
        # One front end asked under both configurations keeps them apart.
        frontend = sessions[0].query(program.entry).frontend
        for name in names:
            result = query_routine(
                program, name, config=ablation, frontend=frontend
            )
            assert _canon(result.summary) == _canon(expected[1][name]), name

    def test_cold_retry_after_an_unreadable_body_matches(self, small_benchmark):
        victim = first_editable_routine(small_benchmark)
        sidecar = dump_cache(
            AnalysisSession.from_program(small_benchmark, _OFF)
            .analyze_incremental()
            .cache
        )
        edited = perturb_routine(small_benchmark, victim)
        full = analyze_program(edited, _OFF).result.summaries
        session = AnalysisSession.from_program(edited, _OFF)
        names = _drill_down(edited)
        for name in names[:3]:
            session.query(name)
        # A query reads a cached body only to hand out the queried
        # routine's adopted summary.  Forge the body of a routine whose
        # cones the edit left alone: the query starts over cold, on
        # whatever graphs the session holds.
        bystander = next(
            name for name in edited.routine_names()
            if AnalysisSession.from_program(edited, _OFF)
            .query(name, cache=load_cache(sidecar)).metrics.phase2_solved == 0
        )
        forged = load_cache(_forged_exit_kind(sidecar, bystander))
        result = session.query(bystander, cache=forged)
        assert result.refused.startswith("unreadable cache")
        assert _canon(result.summary) == _canon(full[bystander])
        for name in names:
            assert _canon(session.query(name).summary) == _canon(full[name]), name
