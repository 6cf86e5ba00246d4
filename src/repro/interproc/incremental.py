"""Incremental interprocedural re-analysis.

A whole-program run (:func:`repro.interproc.analysis._analyze_program`)
re-solves every routine even when one instruction changed.  Spike's
workflow — optimize, measure, edit a hot routine, re-optimize — makes
that wasteful: the phase-1 triple of a routine is a function of its own
code and its callees' triples, and its phase-2 liveness a function of
those inputs plus the liveness its callers leave at its return points.
This module exploits that with **one reuse rule**: a cached answer is
reused exactly when the inputs recorded beside it equal the current
ones.  Per call-graph SCC component (the condensation):

* the **phase-1 inputs** are the members' names and content
  fingerprints (:func:`repro.interproc.frontend.routine_fingerprint`)
  and the triples of the members' callees outside the component;
* the **phase-2 inputs** add each member's externally-callable bit and
  exit seed (the OR of the live-after masks at the calls reaching it
  from outside the component).

Phase 1 walks the components callee-first and phase 2 caller-first,
one step each (:class:`_Engine`): gather the inputs, adopt the first
routine table whose rows record them — the sidecar's, then the
cross-image store's (:mod:`repro.interproc.store`) — else join the
pending region.  A run keeps **one graph**: each region it solves is
appended to it (:func:`repro.psg.build.build_partial_psg`) with callees
outside the graph pinned at their triples, and solved with every
earlier node frozen at its final value, the solver state carried from
region to region (:class:`~repro.interproc.phase1.Phase1State`,
:class:`~repro.interproc.phase2.Phase2State`).  Phase 2 solves its
regions on the same graph, appending only the routines whose phase 1
was reused or adopted, with outside callers' liveness as exit seeds.
So an edit that climbs the call graph one caller level per region
builds one graph, never larger than the cold run's but for the stubs
of pinned callees.  Dirt stops wherever an answer comes out unchanged,
and a routine that lost a caller is re-solved only if its exit seed
moved.  A cold run — this engine against an empty cache — is one
region per phase.

The cache is a :class:`repro.interproc.persist.SummaryCache` (the
``SUM5`` sidecar): rows, summaries, front-end records
(:mod:`repro.interproc.frontend`) and the labeled PSG fragment of every
routine body solved, which a region appends instead of walking the
routine.  So a warm run with zero dirty routines builds no CFG, decodes
no body and solves nothing.  A routine's CFG rows live only until its
region's build labels it: the session's front end keeps the fragment
instead (:attr:`repro.interproc.frontend.Frontend.fragments`), which
the session's later runs append, so no routine is walked twice.  A
cache written under another configuration, or one holding a body or
fragment that fails to decode when read, is set aside and the run
solves cold (:attr:`IncrementalAnalysis.refused` says why).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
    TypeVar,
)

from repro.program.model import Program
from repro.cfg.callgraph import CallGraph, Condensation
from repro.cfg.cfg import ControlFlowGraph
from repro.dataflow.equations import SummaryTriple
from repro.interproc.analysis import (
    AnalysisConfig,
    callee_saved_filter,
    pin_call_return_labels,
    region_routines,
    region_summaries,
    solve_phase1,
    solve_phase2,
)
from repro.interproc.frontend import Frontend, build_frontend
from repro.interproc.persist import (
    FRAGMENTS,
    SUMMARY_BODIES,
    PackedMap,
    RoutineRow,
    SummaryCache,
    SummaryFormatError,
    overlaid,
)
from repro.interproc.store import (
    Inputs,
    add_exit_seeds,
    component_inputs,
    config_digest,
    open_view,
)
from repro.interproc.phase1 import Phase1State
from repro.interproc.phase2 import Phase2State
from repro.interproc.summaries import (
    SummarySet,
    RoutineSummary,
    live_after_masks,
)
from repro.obs.metrics import REGISTRY, Ledger
from repro.obs.tracer import span
from repro.psg.build import (
    PartialPsg,
    PsgAssembly,
    PsgFragment,
    build_partial_psg,
    fragment_rows,
)
from repro.reporting.metrics import RunMetrics

_log = logging.getLogger(__name__)

T = TypeVar("T")

#: Why a run did not use a cache written under another configuration.
CONFIG_MISMATCH = "cache written under another configuration"


def solve_or_cold(
    solve: Callable[[Optional[SummaryCache], Ledger], T],
    cache: Optional[SummaryCache],
    config: AnalysisConfig,
) -> T:
    """``solve(cache, ledger)`` inside the run's one ledger, or
    ``solve(None, ledger)`` when ``cache`` was written under another
    configuration (counted ``cache.config_mismatch``) or holds a body or
    fragment that fails to decode when the solve reads it; the result's
    ``refused`` says which.  A cold retry's ledger counts that attempt
    alone, like its metrics (the registry keeps both)."""
    refused = None
    with Ledger() as ledger:
        if cache is not None and cache.config_digest != config_digest(config):
            REGISTRY.inc("cache.config_mismatch")
            cache, refused = None, CONFIG_MISMATCH
        try:
            result = solve(cache, ledger)
        except SummaryFormatError as error:
            _log.warning("cache unreadable mid-run, solving cold: %s", error)
            refused = f"unreadable cache: {error}"
            ledger.clear()
            result = solve(None, ledger)
    result.refused = refused
    return result


def record_fingerprint_verdicts(
    fingerprints: Mapping[str, int], cache: SummaryCache
) -> List[str]:
    """The routines whose fingerprint moved since ``cache`` recorded
    their row, or that have none, sorted; counted cache.stale /
    cache.miss (cache.hit the rest).  The engine's reuse test reads
    them: a component with a member among them has no row in the cache
    that can serve it, and any other is reused once its callees'
    triples match the ones its rows recorded."""
    rows = cache.rows
    missing = [name for name in fingerprints if name not in rows]
    stale = [
        name for name, fingerprint in fingerprints.items()
        if name in rows and rows[name].fingerprint != fingerprint
    ]
    REGISTRY.inc("cache.hit", len(fingerprints) - len(missing) - len(stale))
    REGISTRY.inc("cache.stale", len(stale))
    REGISTRY.inc("cache.miss", len(missing))
    return sorted(missing + stale)


@dataclass
class IncrementalAnalysis:
    """The product of one incremental run.

    ``result`` is the full, program-wide analysis result (recomputed
    routines fresh, clean routines straight from the cache); ``cache``
    is the refreshed :class:`SummaryCache` to persist for the next
    run; ``metrics`` says how much work was actually done.
    """

    config: AnalysisConfig
    frontend: Frontend
    result: SummarySet
    cache: SummaryCache
    metrics: RunMetrics
    condensation: Optional[Condensation] = None
    #: Why the cache the run was given went unused and it solved cold
    #: (:data:`CONFIG_MISMATCH`, or ``"unreadable cache: ..."``).
    refused: Optional[str] = None

    #: Result-protocol kind tag (see :mod:`repro.interproc.results`).
    kind = "incremental"

    @property
    def program(self) -> Program:
        return self.frontend.program

    @property
    def cfgs(self) -> Dict[str, ControlFlowGraph]:
        return self.frontend.cfgs

    @property
    def call_graph(self) -> CallGraph:
        return self.frontend.call_graph

    def summary(self, routine: str) -> RoutineSummary:
        return self.result.summaries[routine]

    def stats(self) -> Dict[str, object]:
        """Kind-specific stats: incremental work accounting."""
        return self.metrics.as_dict()

    def to_json(self, include_summaries: bool = False):
        """The versioned (schema 1) result payload; see
        :mod:`repro.interproc.results`."""
        from repro.interproc.results import build_payload

        return build_payload(self, include_summaries)


def _analyze_incremental(
    program: Program,
    cache: Optional[SummaryCache] = None,
    config: Optional[AnalysisConfig] = None,
    image_fingerprint: int = 0,
    frontend: Optional[Frontend] = None,
) -> IncrementalAnalysis:
    """Analyze ``program``, reusing ``cache`` where its recorded inputs
    still hold.

    With ``cache=None`` this is a *cold* run — the engine against an
    empty cache, one region per phase — and the returned
    :attr:`IncrementalAnalysis.cache` seeds future warm runs.
    ``image_fingerprint`` is stored in the refreshed cache (it scopes
    the ``SUM1`` sidecar; the engine invalidates per routine, not per
    image).

    ``frontend`` is ``program``'s front end when the caller already
    has it (a session that analyzed or queried before); otherwise one
    is built from the cache's front-end records.

    A cache written under another configuration, or one whose summary
    bodies or fragments fail to decode when read, makes this a cold run
    (see :attr:`IncrementalAnalysis.refused`).
    """
    config = config or AnalysisConfig()
    return solve_or_cold(
        lambda usable, ledger: _solve(
            program, usable, config, image_fingerprint, frontend, ledger
        ),
        cache,
        config,
    )


def _solve(
    program: Program,
    cache: Optional[SummaryCache],
    config: AnalysisConfig,
    image_fingerprint: int,
    frontend: Optional[Frontend],
    ledger: Ledger,
) -> IncrementalAnalysis:
    metrics = RunMetrics(ledger, routines_total=program.routine_count)
    engine = _Engine(program, cache, config, frontend, metrics)
    _log.info(
        "%s incremental run: %d routines, %d dirty",
        "cold" if metrics.cold else "warm", program.routine_count,
        len(metrics.dirty_routines),
    )
    result = engine.run()
    return IncrementalAnalysis(
        config=config,
        frontend=engine.frontend,
        result=result,
        cache=engine.refreshed(image_fingerprint, engine.rows, result.summaries),
        metrics=metrics,
        condensation=engine.condensation,
    )


class _Engine:
    """One incremental solve: phase 1 callee-first, then phase 2
    caller-first, over the call graph's components in the phases'
    scopes, the runs of needed components solved as regions.

    Each component takes one step per phase: check its inputs against
    the routine tables that can hold them — the cache's (rows under the
    members' fingerprints, by :func:`record_fingerprint_verdicts` at
    start), then the store's — first solving the pending region if
    they read one of its components; adopt the first table whose rows
    record them, else join the pending region.  Only the grouping of
    the solves — hence the phases' iteration counts — depends on the
    walk.  A walk visits its scope's components only, and the run
    counts into :attr:`tally`, recorded once at the end, so a warm
    query's work follows its cone and a warm run's its re-solved
    regions, not the program.
    """

    def __init__(
        self,
        program: Program,
        cache: Optional[SummaryCache],
        config: AnalysisConfig,
        frontend: Optional[Frontend],
        metrics: RunMetrics,
    ) -> None:
        metrics.cold = cache is None
        if cache is None:
            # A cold run is a run against an empty cache: every
            # component is needed, so each phase is one region (less
            # what a configured store serves).
            cache = SummaryCache(image_fingerprint=0, result=SummarySet(summaries={}))
        self.store = open_view(config)
        self.context = config_digest(config)
        if frontend is None:
            with metrics.stage("cfg_build"):
                frontend = build_frontend(
                    program, cache.frontend_records, store=self.store
                )
        with metrics.stage("fingerprint"):
            metrics.dirty_routines = record_fingerprint_verdicts(
                frontend.fingerprints, cache
            )
        # A component the cache can serve has no member among these.
        self._dirty = set(metrics.dirty_routines)
        self.config = config
        self.frontend = frontend
        self.cfgs = frontend.cfgs
        self.call_graph = frontend.call_graph
        self.condensation = frontend.condensation
        self.cache = cache
        self.metrics = metrics
        # Component scopes a demand query sets (``None``: every
        # component).  Sound as long as ``phase1_scope`` is callee-closed
        # and ``phase2_scope`` caller-closed with its callee closure
        # inside ``phase1_scope``: every input a scoped solve consumes
        # then comes from an in-scope component.
        self.phase1_scope: Optional[Set[int]] = None
        self.phase2_scope: Optional[Set[int]] = None
        # Per-member inputs, built for solved members only: §3.4 masks
        # and fragments (the cache's, the front end's, or labeled here
        # from a CFG, which ``self.cfgs`` walks on access).
        self._saved: Dict[str, int] = {}
        self._fragments: Dict[str, PsgFragment] = {}
        #: Shape key -> the fragment of each routine this run labeled.
        self.labeled: Dict[int, PsgFragment] = {}
        #: The per-region counts of the run's graph, solves and walks,
        #: recorded once the run is done (:meth:`solve`).
        self.tally = Ledger()
        # The run's one graph, each region appended as it is solved, and
        # both phases' solver state over it: a region is solved with
        # every earlier node frozen at its final value.
        self._graph = PsgAssembly(config.convention, self.tally)
        self._phase1 = Phase1State(self.tally)
        self._phase2 = Phase2State(self.tally)
        # The pending region's component indices (a dict for its order).
        self._pending: Dict[int, None] = {}
        #: Every walked routine's current triple.
        self.triples: Dict[str, SummaryTriple] = {}
        #: The row of every routine this run validated: the cache's,
        #: where its recorded inputs held, else the one this run solved
        #: or adopted from the store (its inputs lead: ``row[:2]``).
        self.rows: Dict[str, RoutineRow] = {}
        #: Summaries solved or adopted from the store by this run.
        self.fresh = PackedMap({}, SUMMARY_BODIES)
        #: The routines whose row this run solved: what it publishes.
        self.solved: Set[str] = set()
        #: Exit seeds, folded in from each caller phase 2 is done with.
        self.seeds: Dict[str, int] = {}
        # Components whose phase-1 answer was reused or adopted: only
        # a table that served phase 1 can serve phase 2.
        self._adopted1: Set[int] = set()

    # ------------------------------------------------------------------
    # Regions
    # ------------------------------------------------------------------

    def _take_fragments(self, names: Iterable[str]) -> None:
        """Take the cache's fragment of each of ``names`` whose body it
        holds and whose call sites it fits (counted
        ``cache.fragment.hit``; ``.stale`` when the cache has a row of
        the routine but no fragment of its body, or the fragment does
        not fit, ``.miss`` otherwise), else the one an earlier run of
        the session labeled: the front end holds it (counted
        ``frontend.fragment.hit``), and this run keeps it as if it had
        labeled it."""
        held, known = self.cache.fragments, self.cache.rows
        session = self.frontend.labeled(self.context)
        labeled = self.labeled
        records, sites = self.frontend.records, self.call_graph.sites
        hit = stale = miss = kept = 0
        for name in names:
            key = records[name].shape_key
            fragment = held.get(key)
            if fragment is None:
                if name in known:
                    stale += 1
                else:
                    miss += 1
            elif fragment.site_count != len(sites[name]):
                stale += 1
            else:
                hit += 1
                self._fragments[name] = fragment
                continue
            fragment = session.get(name)
            if fragment is not None:
                kept += 1
                self._fragments[name] = labeled[key] = fragment
        tally = self.tally
        tally.inc("cache.fragment.hit", hit)
        tally.inc("cache.fragment.stale", stale)
        tally.inc("cache.fragment.miss", miss)
        tally.inc("frontend.fragment.hit", kept)

    def refreshed(
        self,
        image_fingerprint: int,
        rows: Dict[str, RoutineRow],
        summaries: Mapping[str, RoutineSummary],
    ) -> SummaryCache:
        """The cache to persist: ``rows``, their ``summaries``, the
        front-end records, and per routine body the program still has
        the fragment this run labeled, else the cache's."""
        records = self.frontend.records_by_key
        return SummaryCache(
            image_fingerprint=image_fingerprint,
            result=SummarySet(summaries=summaries),
            rows=rows,
            frontend_records=records,
            config_digest=self.context,
            fragments=overlaid(
                self.cache.fragments, self.labeled, FRAGMENTS, records.keys()
            ),
            table=self.cache.table,
        )

    def _append(self, members: List[str]) -> PartialPsg:
        """Append a region to the run's graph: each member from its
        fragment, or labeled from its CFG.  A labeled member's rows are
        released as the build takes them; the front end keeps its
        fragment and arc count instead, and the run keeps the fragment
        for the cache it refreshes."""
        frontend, fragments = self.frontend, self._fragments
        with self.metrics.stage("psg_build"):
            # Reads the records first: none can be derived once the
            # rows are gone.
            self._take_fragments(name for name in members if name not in fragments)
        walked = [name for name in members if name not in fragments]
        if walked:
            cfgs = self.cfgs
            with self.metrics.stage("cfg_build"):
                for name in walked:
                    cfgs[name]  # walked now unless the front end holds it
            with self.metrics.stage("initialization"):
                keep, built = callee_saved_filter(self.config), cfgs.built
                for name in walked:
                    cfg = built[name]
                    self._saved[name] = cfg.saved & keep
                    frontend.arcs[name] = cfg.arc_count
        for name in members:
            if name in fragments:
                self._saved[name] = fragments[name].saved
        with self.metrics.stage("psg_build"):
            region = build_partial_psg(
                region_routines(
                    members, fragments, self.call_graph.sites,
                    self.cfgs.built.pop,
                ),
                self.config.psg, assembly=self._graph,
            )
        records, session = frontend.records, frontend.labeled(self.context)
        for name in walked:
            fragment = fragment_rows(region.psg, name, self._saved[name])
            fragments[name] = session[name] = fragment
            self.labeled[records[name].shape_key] = fragment
        return region

    def _take_pending(self) -> Tuple[List[int], List[str]]:
        indices, self._pending = list(self._pending), {}
        members = self.condensation.members
        return indices, [name for index in indices for name in members(index)]

    def _walk(self, scope: Optional[Set[int]]) -> Sequence[int]:
        """The component indices a phase walks, callee-first."""
        if scope is None:
            return range(len(self.condensation.components))
        return sorted(scope)

    def _find(
        self, members: Sequence[str], inputs: Mapping[str, Inputs]
    ) -> Optional[SummaryCache]:
        """The store's table whose rows of ``members`` record ``inputs``
        (with phase-2 ones, its summary bodies checked), or ``None``."""
        with span("store.lookup", routines=len(members)):
            found = self.store.find(self.context, members, inputs)
            summarized = members if len(inputs[members[0]]) > 2 else ()
            if found is not None and self.store.use(found, summarized):
                return found[1]
        return None

    # ------------------------------------------------------------------
    # Phase 1 — callee-first, pinned external entries
    # ------------------------------------------------------------------

    def _run_phase1(self) -> None:
        old, store, dirty = self.cache.rows, self.store, self._dirty
        rows, triples = self.rows, self.triples
        fingerprints = self.frontend.fingerprints
        outside = self.frontend.outside_callees
        components = self.condensation.components
        callee_components = self.condensation.callee_components
        reused = adopted = missed = 0
        for index in self._walk(self.phase1_scope):
            members = components[index]
            # The cheap half of the inputs first: only a table with a
            # row of every member under its fingerprint can serve it.
            recorded = dirty.isdisjoint(members)
            stored = store is not None and store.holds(members, fingerprints)
            if recorded or stored:
                # The rest are its callees' triples: a pending callee's
                # region is solved first.
                if not self._pending.keys().isdisjoint(callee_components[index]):
                    self._solve_phase1()
                if recorded:
                    for name in members:
                        if old[name].callees != tuple(map(triples.get, outside[name])):
                            break
                    else:
                        for name in members:
                            row = rows[name] = old[name]
                            triples[name] = row.triple
                        self._adopted1.add(index)
                        reused += len(members)
                        continue
                if stored:
                    inputs = component_inputs(self.frontend, members, triples)
                    table = self._find(members, inputs)
                    if table:
                        self._phase1_answers(
                            inputs, {name: table.rows[name].triple for name in members}
                        )
                        self._adopted1.add(index)
                        adopted += len(members)
                        continue
                    missed += len(members)
            self._pending[index] = None
        self._solve_phase1()
        # Phase 2 labels what it appends from the triples.
        self._phase1 = None  # type: ignore[assignment]
        self.tally.inc("engine.reused", reused, phase="phase1")
        self._count_adopted("phase1", adopted, missed)

    def _count_adopted(self, phase: str, adopted: int, missed: int) -> None:
        self.tally.inc("engine.adopted", adopted, phase=phase)
        if self.store is not None:
            self.tally.inc("store.hit", adopted)
            self.tally.inc("store.miss", missed)

    def _count_region(self, phase: str, indices: List[int], members: List[str]) -> None:
        self.tally.inc("engine.regions", phase=phase)
        self.tally.inc("engine.sccs_solved", len(indices), phase=phase)
        self.tally.inc("engine.solved", len(members), phase=phase)

    def _phase1_answers(
        self, inputs: Mapping[str, Inputs], triples: Mapping[str, SummaryTriple]
    ) -> None:
        for name, triple in triples.items():
            self.triples[name] = triple
            self.rows[name] = RoutineRow(*inputs[name], None, triple, ())

    def _solve_phase1(self) -> None:
        """Append the pending region to the run's graph and solve its
        phase 1."""
        if not self._pending:
            return
        indices, members = self._take_pending()
        region = self._append(members)
        with self.metrics.stage("phase1"):
            with span(
                "phase1.region", components=len(indices), routines=len(members)
            ):
                solution = solve_phase1(
                    region, self._saved, self.config, members, self.triples,
                    self._phase1,
                )
        self._count_region("phase1", indices, members)
        for name in members:
            self.triples[name] = solution.entry_triple(region.psg, name)
        for index in indices:
            component = self.condensation.members(index)
            self._phase1_answers(
                component_inputs(self.frontend, component, self.triples),
                {name: self.triples[name] for name in component},
            )
        self.solved.update(members)

    # ------------------------------------------------------------------
    # Phase 2 — caller-first, seeded exits
    # ------------------------------------------------------------------

    def _run_phase2(self) -> None:
        old, store, rows = self.cache.rows, self.store, self.rows
        fingerprints = self.frontend.fingerprints
        external, seeds = self.call_graph.externally_callable, self.seeds
        components = self.condensation.components
        caller_components = self.condensation.caller_components
        reused = adopted = missed = 0
        for index in reversed(self._walk(self.phase2_scope)):
            members = components[index]
            if index in self._adopted1:
                # Phase 1 took the cache's very rows, or none can match.
                recorded = all(
                    rows[name] is old.get(name) and old[name].phase2 is not None
                    for name in members
                )
                stored = store is not None and store.holds(members, fingerprints)
                if recorded or stored:
                    # The exit seeds read the outside callers' final
                    # liveness: a pending caller's region is solved first.
                    if not self._pending.keys().isdisjoint(caller_components[index]):
                        self._solve_phase2()
                    if recorded and all(
                        old[name].phase2 == (name in external, seeds.get(name, 0))
                        for name in members
                    ):
                        self._fold_seeds(members)
                        reused += len(members)
                        continue
                    if stored:
                        phase2 = self._phase2_inputs(members)
                        table = self._find(members, {
                            name: (*rows[name][:2], phase2[name]) for name in members
                        })
                        if table:
                            for name in members:
                                rows[name] = table.rows[name]
                                self.fresh.share(name, table.result.summaries)
                            self._fold_seeds(members)
                            adopted += len(members)
                            continue
                        missed += len(members)
            self._pending[index] = None
        self._solve_phase2()
        self.tally.inc("engine.reused", reused, phase="phase2")
        self._count_adopted("phase2", adopted, missed)

    def _phase2_inputs(self, members: Sequence[str]) -> Dict[str, Tuple[bool, int]]:
        """Each member's externally-callable bit and folded exit seed."""
        external, seeds = self.call_graph.externally_callable, self.seeds
        return {name: (name in external, seeds.get(name, 0)) for name in members}

    def _fold_seeds(self, names: Iterable[str]) -> None:
        add_exit_seeds(
            self.seeds, self.frontend,
            ((name, self.rows[name].live_after) for name in names),
        )

    def _solve_phase2(self) -> None:
        """Solve the pending region's phase 2 on the run's graph and
        assemble its members' summaries."""
        if not self._pending:
            return
        indices, members = self._take_pending()
        # Callers outside the region are final: their seeds exist
        # before the region is solved.
        region_seeds = self._phase2_inputs(members)
        graph = self._graph
        adopted = [
            name for name in members
            if name not in graph.routines or name in graph.stubs
        ]
        if adopted:
            # Members whose phase 1 was reused or adopted join the graph,
            # their call sites labeled from the triples phase 1 settled.
            first = len(graph.cr_call)
            pin_call_return_labels(self._append(adopted).psg, self.triples, first)
        psg = graph.psg
        with self.metrics.stage("phase2"):
            with span(
                "phase2.region", components=len(indices), routines=len(members)
            ):
                solution = solve_phase2(
                    psg, self.config, self.call_graph.externally_callable,
                    members, {name: seed for name, (_, seed) in region_seeds.items()},
                    self._phase2,
                )
        self._count_region("phase2", indices, members)
        with self.metrics.stage("assemble"):
            fresh = region_summaries(
                psg, members, self._saved, self.triples, solution.may_use,
            )
        live_after = {
            name: live_after_masks(summary) for name, summary in fresh.items()
        }
        # Each row records its component's seeds, not the region's:
        # fold in the callers inside the region first.
        add_exit_seeds(self.seeds, self.frontend, live_after.items())
        for index in indices:
            component = self.condensation.members(index)
            for name, phase2 in self._phase2_inputs(component).items():
                self.fresh.share(name, fresh)
                self.rows[name] = RoutineRow(
                    *self.rows[name][:2], phase2, self.triples[name],
                    live_after[name],
                )
        self.solved.update(members)

    # ------------------------------------------------------------------

    def solve(self) -> None:
        """Run both phases over the configured component scopes without
        assembling a program-wide result, then publish what the run
        solved to the store.

        The demand engine (:mod:`repro.interproc.demand`) uses this
        with scopes set: afterwards ``self.rows`` holds the rows of
        every routine the scopes validated and ``self.fresh`` the
        summaries the run solved or adopted from the store.
        """
        try:
            self._run_phase1()
            self._run_phase2()
        finally:
            if self.store is not None and self.store.checked:
                self.tally.inc("store.body.checked", self.store.checked)
            REGISTRY.absorb(self.tally)
        # The graph goes once both phases are done with it.
        self._graph = self._phase2 = None  # type: ignore[assignment]
        if self.store is not None:
            # A reused front-end record is not offered: it was read from
            # a pack, whose writer published it when it built the CFG.
            reused = self.frontend.reused
            self.store.publish(SummaryCache(
                image_fingerprint=0,
                result=SummarySet(summaries=self.fresh),
                rows={name: self.rows[name] for name in self.solved},
                frontend_records={
                    record.shape_key: record
                    for name, record in self.frontend.records.items()
                    if name not in reused
                },
                config_digest=self.context,
            ))

    def run(self) -> SummarySet:
        self.solve()
        _log.debug(
            "incremental engine: phase1 solved %d / reused %d, "
            "phase2 solved %d / reused %d",
            self.metrics.phase1_solved, self.metrics.phase1_reused,
            self.metrics.phase2_solved, self.metrics.phase2_reused,
        )
        # Fresh summaries over the cached ones, none of them decoded
        # here: the bodies nobody read go to the next sidecar as bytes.
        return SummarySet(summaries=overlaid(
            self.cache.result.summaries, self.fresh, SUMMARY_BODIES,
            self.frontend.fingerprints.keys(),
        ))
