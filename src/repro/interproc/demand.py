"""Demand-driven per-routine queries.

A whole-program solve (or even a warm incremental run) answers every
routine's question at once; an interactive or serving deployment asks
about *one* routine and wants the answer in milliseconds.  This module
answers ``query(routine)`` by solving only the slice of the program the
answer can depend on:

* the **phase-2 cone** ``P2`` — the SCC-condensation components of the
  routine's transitive *callers*.  A routine's liveness consumes its
  callers' return-point liveness, so the cone is caller-closed and the
  topmost components have no external callers at all (their exits are
  seeded purely by the §3.4 externally-callable convention);
* the **phase-1 cone** ``P1`` — the transitive *callee* closure of
  ``P2``.  Phase 2 of any ``P2`` component reads the phase-1 triples
  of its callees, and a triple depends only on the routine's own code
  and its callees' triples, so ``P1`` is callee-closed and every
  pinned frontier entry a partial solve needs is available in-cone.

The query then runs the ordinary incremental engine
(:class:`repro.interproc.incremental._Engine`) *restricted to
those component scopes*: each in-cone component re-solves exactly when
the full warm run would have re-solved it, with the same pinned
entries and exit seeds, its runs of needed components solved as
regions (a cold query is one region per phase) — so the answer for the
queried routine is byte-identical to an exhaustive solve.  CFGs are
built for re-solved routines the cache holds no PSG fragment for (the
cache's front-end records supply the call graph; see
:mod:`repro.interproc.frontend`), so on a clean warm cache nothing
re-solves, no CFG is built, and the query costs hashing the routines
plus fingerprinting.  The memoized cache carries the fragments a query
labeled, decoded, so a session's later queries append them instead of
labeling again.

**Memoization.**  The refreshed :class:`SummaryCache` a query returns
must stay honest for routines the query never looked at.  Entries come
in two grades — a full summary (phase 1 + phase 2 facts) and a
phase-1-only triple (:attr:`SummaryCache.phase1_triples`) — and the
rules are:

* routines in ``P2`` were phase-2 *validated* (re-solved, or proven
  clean with unchanged dependencies) — store their full summary and
  current fingerprint;
* routines in ``P1 \\ P2`` were phase-1 validated only — store their
  fresh triple under the current fingerprint (this is what lets the
  next query skip the callee cone), and keep their old full summary
  only when nothing this query discovered could have staled it;
* routines outside both cones that were dirty keep their old entry
  verbatim — the mismatched fingerprint keeps them dirty;
* clean out-of-cone entries keep whatever grade survives the
  **staleness sweep**: a summary is dropped when the routine is
  orphaned, has a direct callee whose triple changed (its call-site
  labels and liveness consumed it) or a direct caller whose liveness
  outputs changed (its exit seed moved); a triple is dropped when a
  direct callee's triple changed.  Deleted routines drop entirely.

A dropped entry (or grade) is a cache miss — the next run that needs
the routine re-solves it and propagation resumes from there.  Every
invalidation chain that leaves the solved cones bottoms out in a
still-detectable source — a kept mismatched fingerprint, a dropped
entry, or an externally-callable flip visible against the kept old
membership — so repeated and overlapping queries amortize toward zero
without ever poisoning the sidecar.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.cfg.callgraph import Condensation
from repro.dataflow.equations import SummaryTriple
from repro.interproc.analysis import AnalysisConfig
from repro.interproc.errors import UnknownRoutineError
from repro.interproc.frontend import Frontend
from repro.interproc.incremental import (
    _Engine,
    carried_fragments,
    solve_or_cold,
    summary_triples,
)
from repro.interproc.persist import SUMMARY_BODIES, SummaryCache, packed
from repro.interproc.store import config_digest
from repro.interproc.summaries import SummarySet, RoutineSummary
from repro.obs.metrics import REGISTRY
from repro.reporting.metrics import QueryMetrics

_log = logging.getLogger(__name__)


@dataclass
class QueryResult:
    """The product of one demand-driven query.

    ``summary`` is the queried routine's answer (byte-identical to what
    an exhaustive solve would produce); ``cache`` is the memoized
    refresh to persist — feeding it to the next query (or incremental
    run) is what makes repeated queries amortize.  ``frontend`` is the
    program's reusable front end — CFGs, call graph, condensation and
    routine fingerprints, which dominate warm-query latency (the cone
    solve itself amortizes to nothing) — handed back so a session can
    thread it into the next query.
    """

    routine: str
    summary: RoutineSummary
    cache: SummaryCache
    metrics: QueryMetrics
    condensation: Optional[Condensation] = None
    frontend: Optional[Frontend] = None
    #: The queried program (carried for the result protocol's
    #: ``routines``/``instructions`` payload fields).
    program: Optional[object] = None

    #: Why the cache the query was given went unused (see
    #: :attr:`repro.interproc.incremental.IncrementalAnalysis.refused`).
    refused: Optional[str] = None

    #: Result-protocol kind tag (see :mod:`repro.interproc.results`).
    kind = "query"

    @property
    def result(self) -> SummarySet:
        """The deterministic answer as a one-routine summary set.

        Deliberately *not* the memoized cache's whole view: the cache
        carries whatever partial state earlier runs left, while the
        queried routine's summary is exactly what an exhaustive solve
        would report — the byte-identity contract of the demand engine.
        """
        return SummarySet(summaries={self.routine: self.summary})

    def stats(self) -> Dict[str, object]:
        """Kind-specific stats: cone sizes, work accounting and the
        queried routine's rendered summary."""
        payload: Dict[str, object] = dict(self.metrics.as_dict())
        payload["summary"] = self.summary.to_json()
        return payload

    def to_json(self, counters=None, include_summaries: bool = False):
        """The versioned (schema 1) result payload; see
        :mod:`repro.interproc.results`."""
        from repro.interproc.results import build_payload

        return build_payload(self, counters, include_summaries)


def query_routine(
    program,
    routine: str,
    cache: Optional[SummaryCache] = None,
    config: Optional[AnalysisConfig] = None,
    image_fingerprint: int = 0,
    frontend: Optional[Frontend] = None,
) -> QueryResult:
    """Answer live-at-entry/exit and call-used/defined/killed for one
    routine, solving only its dependency cones.

    ``cache=None`` is a cold query: the cones still restrict the work,
    and the returned cache warms every later query.  ``frontend``
    reuses an earlier run's call graph, fingerprints and whatever CFGs
    it built for the *same* program (the dominant warm-query cost);
    without one, the cache's front-end records seed it.  Raises
    :class:`UnknownRoutineError` when ``routine`` is not in the
    program.  A cache written under another configuration, or one
    whose bodies or fragments fail to decode when read, makes this a
    cold query (see :attr:`QueryResult.refused`).
    """
    config = config or AnalysisConfig()
    return solve_or_cold(
        lambda usable: _query(
            program, routine, usable, config, image_fingerprint, frontend
        ),
        cache,
        config,
    )


def _query(
    program,
    routine: str,
    cache: Optional[SummaryCache],
    config: AnalysisConfig,
    image_fingerprint: int,
    frontend: Optional[Frontend],
) -> QueryResult:
    metrics = QueryMetrics(
        routine=routine, routines_total=program.routine_count
    )
    REGISTRY.inc("query.requests")
    engine = _Engine(program, cache, config, frontend, metrics)
    frontend, cache = engine.frontend, engine.cache
    condensation = engine.condensation
    if routine not in frontend.cfgs:
        raise UnknownRoutineError(
            f"no routine named {routine!r} in the program "
            f"({program.routine_count} routines)"
        )

    root = condensation.component_index(routine)
    phase2_cone = condensation.transitive_caller_components({root})
    phase1_cone = condensation.transitive_callee_components(phase2_cone)
    metrics.phase1_cone_components = len(phase1_cone)
    metrics.phase2_cone_components = len(phase2_cone)
    metrics.phase1_cone_routines = len(condensation.routines_of(phase1_cone))
    metrics.phase2_cone_routines = len(condensation.routines_of(phase2_cone))
    REGISTRY.inc(
        "query.cone_routines", metrics.phase1_cone_routines, phase="phase1"
    )
    REGISTRY.inc(
        "query.cone_routines", metrics.phase2_cone_routines, phase="phase2"
    )
    _log.info(
        "query %s: cones phase1=%d/phase2=%d routines, %d dirty",
        routine,
        metrics.phase1_cone_routines,
        metrics.phase2_cone_routines,
        len(engine.dirty),
    )

    engine.phase1_scope, engine.phase2_scope = phase1_cone, phase2_cone
    engine.solve()
    REGISTRY.inc("query.solved", metrics.phase2_solved)
    REGISTRY.inc("query.reused", metrics.phase2_reused)

    summary = engine.fresh.get(routine) or cache.result.summaries[routine]
    new_cache = _memoized_cache(
        engine,
        condensation.routines_of(phase1_cone),
        condensation.routines_of(phase2_cone),
        image_fingerprint,
        config_digest(config),
    )
    return QueryResult(
        routine=routine,
        summary=summary,
        cache=new_cache,
        metrics=metrics,
        condensation=condensation,
        frontend=frontend,
        program=program,
    )


def _memoized_cache(
    engine: _Engine,
    validated1: Set[str],
    validated2: Set[str],
    image_fingerprint: int,
    digest: int,
) -> SummaryCache:
    """The refreshed cache a query persists (module docstring rules).

    Kept summaries are the old cache's, unread: their bodies go to the
    next sidecar as bytes."""
    frontend, cache, dirty = engine.frontend, engine.cache, engine.dirty
    cfgs = frontend.cfgs
    call_graph = frontend.call_graph
    fingerprints = frontend.fingerprints
    old_summaries = cache.result.summaries
    is_external = call_graph.externally_callable

    # Facts this query discovered to have changed.  A kept entry whose
    # fingerprint would pass the next run's check must not depend on
    # any of them: summaries consume direct callees' triples (call-site
    # labels) and direct callers' liveness (exit seeds); triples
    # consume direct callees' triples.
    summary_stale: Set[str] = set(engine.orphaned) | engine.changed1
    triple_stale: Set[str] = set()
    for name in engine.changed1:
        for caller, _site in call_graph.callers_of(name):
            summary_stale.add(caller)
            triple_stale.add(caller)
    for name in engine.changed2:
        summary_stale.update(call_graph.callees_of(name))

    # Routines whose summary the memo keeps: the fresh one if the
    # query solved it, else the old one.
    kept: List[str] = []
    phase1_triples: Dict[str, SummaryTriple] = {}
    keyed_fingerprints: Dict[str, int] = {}
    externally_callable: Set[str] = set()
    dropped = 0

    for name in validated2:
        # Full summary validated against the new program.
        kept.append(name)
        keyed_fingerprints[name] = fingerprints[name]
        if name in is_external:
            externally_callable.add(name)

    for name in validated1 - validated2:
        # Phase 1 validated: the fresh triple is always storable.  The
        # old full summary survives only when it is provably untouched.
        keyed_fingerprints[name] = fingerprints[name]
        phase1_triples[name] = engine.triples[name]
        if name not in old_summaries:
            continue
        if name in dirty or name in summary_stale:
            dropped += 1
            continue
        kept.append(name)
        if name in cache.externally_callable:
            externally_callable.add(name)

    for name in cache.routine_fingerprints:
        if name in validated1:
            continue
        if name not in cfgs:  # deleted routine: entry dropped outright
            if name in old_summaries or name in cache.phase1_triples:
                dropped += 1
            continue
        if name in dirty:
            # Keep everything under the old, mismatched fingerprint:
            # the routine stays dirty and nothing consumes a dirty
            # entry before re-solving it.
            keyed_fingerprints[name] = cache.routine_fingerprints[name]
            if name in old_summaries:
                kept.append(name)
            if name in cache.phase1_triples:
                phase1_triples[name] = cache.phase1_triples[name]
            if name in cache.externally_callable:
                externally_callable.add(name)
            continue
        # Clean, out of both cones: keep each grade unless the sweep
        # staled it.  (Old externally-callable membership is kept with
        # a kept summary so a visibility flip stays detectable.)
        keep_summary = name in old_summaries and name not in summary_stale
        old_triple = cache.phase1_triples.get(name)
        if old_triple is None and name in old_summaries:
            old_triple = cache.triples[name]
        keep_triple = old_triple is not None and name not in triple_stale
        if name in old_summaries and not keep_summary:
            dropped += 1
        if not keep_summary and not keep_triple:
            continue
        keyed_fingerprints[name] = cache.routine_fingerprints[name]
        if keep_summary:
            kept.append(name)
            if name in cache.externally_callable:
                externally_callable.add(name)
        elif keep_triple:
            phase1_triples[name] = old_triple

    engine.metrics.memo_dropped = dropped
    REGISTRY.inc("query.memo_dropped", dropped)
    return SummaryCache(
        image_fingerprint=image_fingerprint,
        result=SummarySet(
            summaries=packed(kept, engine.fresh, old_summaries, SUMMARY_BODIES)
        ),
        routine_fingerprints=keyed_fingerprints,
        externally_callable=externally_callable,
        phase1_triples=phase1_triples,
        # Always the current image's: a record is scoped by its own
        # shape key, whatever became of the routine's summary.
        frontend_records=frontend.records,
        config_digest=digest,
        triples=summary_triples(kept, engine.fresh, cache),
        fragments=carried_fragments(
            frontend, engine.new_fragments, cache.fragments
        ),
    )
