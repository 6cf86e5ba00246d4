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
re-solves, no CFG is built, and the query costs a walk of its cones.
The memoized cache carries the fragments a query labeled, decoded, so
a session's later queries append them instead of labeling again.

**Memoization.**  The refreshed :class:`SummaryCache` a query returns
is the old one overlaid with the rows the query validated: a full row
(summary included) for every routine of ``P2``, a phase-1 row for
every routine of ``P1 \\ P2`` (its old row where the old one's inputs
held, so a summary it had survives).  Every row carries the inputs it
was solved from (:mod:`repro.interproc.incremental`), so an old row
that a change elsewhere made stale simply no longer matches the next
run's inputs: nothing is swept, and repeated and overlapping queries
amortize toward zero without ever poisoning the sidecar.  The overlay
is a copy: a cache a caller holds never changes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, Optional

from repro.cfg.callgraph import Condensation
from repro.interproc.analysis import AnalysisConfig
from repro.interproc.errors import UnknownRoutineError
from repro.interproc.frontend import Frontend
from repro.interproc.incremental import _Engine, solve_or_cold
from repro.interproc.persist import (
    SUMMARY_BODIES, SummaryCache, overlaid, restricted,
)
from repro.interproc.summaries import SummarySet, RoutineSummary
from repro.obs.metrics import REGISTRY, Ledger
from repro.reporting.metrics import RunMetrics

_log = logging.getLogger(__name__)


@dataclass
class QueryResult:
    """The product of one demand-driven query.

    ``summary`` is the queried routine's answer (byte-identical to what
    an exhaustive solve would produce); ``cache`` is the memoized
    refresh to persist — feeding it to the next query (or incremental
    run) is what makes repeated queries amortize.  ``frontend`` is the
    program's reusable front end — CFGs, call graph, condensation and
    routine fingerprints — handed back so a session can thread it into
    the next query.
    """

    routine: str
    summary: RoutineSummary
    cache: SummaryCache
    metrics: RunMetrics
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

    def to_json(self, include_summaries: bool = False):
        """The versioned (schema 1) result payload; see
        :mod:`repro.interproc.results`."""
        from repro.interproc.results import build_payload

        return build_payload(self, include_summaries)


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
        lambda usable, ledger: _query(
            program, routine, usable, config, image_fingerprint, frontend,
            ledger,
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
    ledger: Ledger,
) -> QueryResult:
    metrics = RunMetrics(
        ledger, routines_total=program.routine_count, routine=routine
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
    REGISTRY.inc(
        "query.cone_routines", len(condensation.routines_of(phase1_cone)),
        phase="phase1",
    )
    REGISTRY.inc(
        "query.cone_routines", len(condensation.routines_of(phase2_cone)),
        phase="phase2",
    )
    _log.info(
        "query %s: cones phase1=%d/phase2=%d routines, %d dirty",
        routine,
        metrics.phase1_cone_routines,
        metrics.phase2_cone_routines,
        len(metrics.dirty_routines),
    )

    engine.phase1_scope, engine.phase2_scope = phase1_cone, phase2_cone
    engine.solve()
    REGISTRY.inc("query.solved", metrics.phase2_solved)
    REGISTRY.inc("query.reused", metrics.phase2_reused)

    summary = engine.fresh.get(routine) or cache.result.summaries[routine]
    new_cache = _memoized_cache(engine, image_fingerprint)
    return QueryResult(
        routine=routine,
        summary=summary,
        cache=new_cache,
        metrics=metrics,
        condensation=condensation,
        frontend=frontend,
        program=program,
    )


def _memoized_cache(engine: _Engine, image_fingerprint: int) -> SummaryCache:
    """The refreshed cache a query persists: the old one's rows (of
    routines the program still has, their summaries unread) overlaid
    with the rows the query validated."""
    old, routines = engine.cache, engine.frontend.fingerprints.keys()
    rows = restricted(old.rows, routines)
    rows.update(engine.rows)
    # A summary goes with its row's phase-2 inputs (a routine of the
    # phase-1 cone re-solved here has none now).
    dropped = [name for name, row in engine.rows.items() if row.phase2 is None]
    return engine.refreshed(image_fingerprint, rows, overlaid(
        old.result.summaries, engine.fresh, SUMMARY_BODIES, routines, dropped
    ))
