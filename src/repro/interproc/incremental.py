"""Incremental interprocedural re-analysis.

A whole-program run (:func:`repro.interproc.analysis._analyze_program`)
re-solves every routine even when one instruction changed.  Spike's
workflow — optimize, measure, edit a hot routine, re-optimize — makes
that wasteful: the phase-1 triples of an untouched routine depend only
on its own code and its callees' triples, and its phase-2 liveness
only on its callers' return-point liveness and its callees' triples.
This module exploits that structure:

* every routine gets a **content fingerprint** (a 64-bit CRC over its
  code bytes, its exported flag, its jump-table targets and its
  call-site target lists — exactly the inputs its CFG is a function
  of; see
  :func:`repro.interproc.frontend.routine_fingerprint`);
* the SCC **condensation** of the call graph is the dependency map:
  editing a routine dirties its component; phase-1 dirt propagates to
  transitive *callers*, phase-2 dirt to transitive *callees*;
* a **change cutoff** stops propagation early: after re-solving a
  component, its new answers are compared against the cache, and only
  components whose consumed answers actually changed are re-solved in
  turn;
* the components that need solving are solved as **regions**
  (:func:`repro.interproc.analysis.solve_phase1` /
  :func:`~repro.interproc.analysis.solve_phase2`): walking a phase, a
  component whose need is already decided — dirty, uncached, orphaned,
  flipped in or out of external visibility, or (phase 2) calling a
  routine whose triple changed — and that no store can serve joins the
  pending region.  A component whose need, or whose store key, hangs
  on the answer of a pending member first makes the pending region
  solve, then goes through the cutoff and the store as before.  A
  region is one partial PSG (:func:`repro.psg.build.build_partial_psg`):
  callees outside it appear as dummy entry nodes pinned at their
  current triples, and callers outside it contribute their return-point
  liveness as exit seeds.  A cold run — this engine against an empty
  cache — is one region per phase.

The cache itself is a :class:`repro.interproc.persist.SummaryCache`
(the versioned ``SUM4`` sidecar): the previous run's summaries, the
fingerprints that scope their validity, the *front-end records*
(:mod:`repro.interproc.frontend`) from which the call graph, the
condensation and the fingerprints of this run are derived without
building the CFG of any routine whose code did not change, and the
labeled PSG fragment of every routine body it solved
(:class:`repro.psg.build.PsgFragment`).  A region appends its members'
fragments; only a member without one — its code changed, or no run has
solved it since — is walked into a CFG (billed to the ``cfg_build``
stage) and labeled, and the fragment it leaves is held decoded in the
refreshed cache (a query session's memo appends it again).  So a warm
run with zero dirty routines builds no CFG and performs *no* phase-1
or phase-2 solving at all — it hashes the routines, re-resolves their
recorded call sites, and returns the cached result — and an edit whose
effect climbs the caller cone walks only the edited routine.

The run reads a summary body only when it needs that routine's old
answer (a change cutoff, an exit seed), and the refreshed cache it
returns shares the unread bodies and fragments with the one it read,
so writing the next sidecar copies them (:class:`~repro.interproc.
persist.PackedMap`).  A cache written under another configuration, or
one holding a body or fragment that fails to decode when read, is set
aside and the run solves cold (:attr:`IncrementalAnalysis.refused`
says why).
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
    pinned_phase1,
    region_summaries,
    solve_phase1,
    solve_phase2,
)
from repro.interproc.frontend import Frontend, build_frontend
from repro.interproc.persist import (
    FRAGMENTS,
    SUMMARY_BODIES,
    PackedMap,
    SummaryCache,
    SummaryFormatError,
    packed,
)
from repro.interproc.phase1 import Phase1Result
from repro.interproc.store import (
    StoreKeys,
    config_digest,
    open_view,
    publish_component,
    publish_frontend_records,
    routine_record_key,
)
from repro.interproc.summaries import (
    SummarySet,
    ExitSeeds,
    RoutineSummary,
    _triple_of,
)
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import span
from repro.psg.build import (
    PartialPsg,
    PsgFragment,
    StoredRoutine,
    build_partial_psg,
    fragment_rows,
)
from repro.reporting.metrics import IncrementalMetrics

_log = logging.getLogger(__name__)

T = TypeVar("T")

#: Why a run did not use a cache written under another configuration.
CONFIG_MISMATCH = "cache written under another configuration"


def solve_or_cold(
    solve: Callable[[Optional[SummaryCache]], T],
    cache: Optional[SummaryCache],
    config: AnalysisConfig,
) -> T:
    """``solve(cache)``, or ``solve(None)`` when ``cache`` was written
    under another configuration (counted ``cache.config_mismatch``) or
    holds a body or fragment that fails to decode when the solve reads
    it; the result's ``refused`` says which."""
    refused = None
    if cache is not None and cache.config_digest != config_digest(config):
        REGISTRY.inc("cache.config_mismatch")
        cache, refused = None, CONFIG_MISMATCH
    try:
        result = solve(cache)
    except SummaryFormatError as error:
        _log.warning("cache unreadable mid-run, solving cold: %s", error)
        refused = f"unreadable cache: {error}"
        result = solve(None)
    result.refused = refused
    return result


def summary_triples(
    names: Iterable[str],
    fresh: Mapping[str, RoutineSummary],
    cache: SummaryCache,
) -> Dict[str, SummaryTriple]:
    """The phase-1 triple of each of ``names``: read off its fresh
    summary, else the one ``cache`` holds (without its body)."""
    return {
        name: _triple_of(fresh[name]) if name in fresh else cache.triples[name]
        for name in names
    }


def carried_fragments(
    frontend: Frontend,
    fresh: Mapping[int, PsgFragment],
    old: Mapping[int, PsgFragment],
) -> PackedMap:
    """The fragments a refreshed cache holds: those of this run, then
    those of the cache it read, for every routine body the program
    still has (none of them built or decoded here)."""
    keys = dict.fromkeys(record.shape_key for record in frontend.records.values())
    return packed(
        (key for key in keys if key in fresh or key in old), fresh, old, FRAGMENTS
    )


def record_fingerprint_verdicts(
    fingerprints: Dict[str, int], cache: SummaryCache
) -> Set[str]:
    """Classify every routine's fingerprint against ``cache`` and push
    the per-run cache.hit / cache.stale / cache.miss counters.

    Returns the dirty set (stale + missing).
    """
    hits = stale = missing = 0
    dirty: Set[str] = set()
    for name, fingerprint in fingerprints.items():
        cached = cache.routine_fingerprints.get(name)
        if cached is None:
            missing += 1
            dirty.add(name)
        elif cached != fingerprint:
            stale += 1
            dirty.add(name)
        else:
            hits += 1
    REGISTRY.inc("cache.hit", hits)
    REGISTRY.inc("cache.stale", stale)
    REGISTRY.inc("cache.miss", missing)
    return dirty


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
    metrics: IncrementalMetrics
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

    def to_json(self, counters=None, include_summaries: bool = False):
        """The versioned (schema 1) result payload; see
        :mod:`repro.interproc.results`."""
        from repro.interproc.results import build_payload

        return build_payload(self, counters, include_summaries)


def _analyze_incremental(
    program: Program,
    cache: Optional[SummaryCache] = None,
    config: Optional[AnalysisConfig] = None,
    image_fingerprint: int = 0,
    frontend: Optional[Frontend] = None,
) -> IncrementalAnalysis:
    """Analyze ``program``, reusing ``cache`` where fingerprints allow.

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
        lambda usable: _solve(
            program, usable, config, image_fingerprint, frontend
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
) -> IncrementalAnalysis:
    metrics = IncrementalMetrics(routines_total=program.routine_count)
    engine = _Engine(program, cache, config, frontend, metrics)
    _log.info(
        "%s incremental run: %d routines, %d dirty",
        "cold" if metrics.cold else "warm", program.routine_count,
        len(engine.dirty),
    )
    result = engine.run()
    frontend, cache = engine.frontend, engine.cache
    new_cache = SummaryCache(
        image_fingerprint=image_fingerprint,
        result=result,
        routine_fingerprints=frontend.fingerprints,
        externally_callable=set(frontend.call_graph.externally_callable),
        frontend_records=frontend.records,
        config_digest=config_digest(config),
        triples=summary_triples(result.summaries, engine.fresh, cache),
        fragments=carried_fragments(frontend, engine.new_fragments, cache.fragments),
    )
    return IncrementalAnalysis(
        config=config,
        frontend=frontend,
        result=result,
        cache=new_cache,
        metrics=metrics,
        condensation=frontend.condensation,
    )


def orphaned_callees(
    cached: Mapping[str, RoutineSummary],
    cfgs: Mapping[str, ControlFlowGraph],
    call_graph: CallGraph,
    dirty: Set[str],
) -> Set[str]:
    """Former callees that lost a caller and must be re-solved.

    A routine whose cached call sites name a target it no longer calls
    — deleted outright, or surviving but with the site dropped or
    retargeted by the edit — leaves that former callee with the removed
    site's live-after baked into its cached exit liveness.  The new
    call graph has no edge left to carry the retraction, so diff the
    cached target lists against it and re-solve the losers.  Clean
    survivors can be skipped — their summaries are not even read: the
    fingerprint covers target lists, so theirs cannot have moved.
    """
    orphaned: Set[str] = set()
    for name in cached:
        if name in cfgs and name not in dirty:
            continue
        cached_targets: Set[str] = set()
        for site in cached[name].call_sites:
            cached_targets.update(site.site.targets)
        current = set(call_graph.callees_of(name)) if name in cfgs else set()
        orphaned.update(cached_targets - current)
    return orphaned


class _Engine:
    """One incremental solve: phase 1 callee-first, then phase 2
    caller-first, over the call graph's components, the runs of needed
    components solved as regions.

    Walking a phase, a component joins the *pending* region as soon as
    it is known to need solving and no store can serve it; a component
    whose need (or store key) hangs on what the pending region has not
    solved yet makes the region solve first.  The change cutoff and
    every store hit are kept, and only the grouping of the solves —
    hence the phases' iteration counts — depends on the walk.
    """

    def __init__(
        self,
        program: Program,
        cache: Optional[SummaryCache],
        config: AnalysisConfig,
        frontend: Optional[Frontend],
        metrics: IncrementalMetrics,
    ) -> None:
        metrics.cold = cache is None
        if cache is None:
            # A cold run is a run against an empty cache: every
            # component is needed, so each phase is one region (less
            # what a configured store serves).
            cache = SummaryCache(image_fingerprint=0, result=SummarySet(summaries={}))
        # Cross-image store state: the keys are derived lazily — only
        # runs that actually consult or publish pay for them.
        self.store = open_view(config)
        self._store_keys: Optional[StoreKeys] = None
        self._built_before = frontend.cfgs_built if frontend is not None else 0
        if frontend is None:
            with metrics.stage("cfg_build"):
                frontend = build_frontend(
                    program, cache.frontend_records, store=self.store
                )
        with metrics.stage("fingerprint"):
            dirty = record_fingerprint_verdicts(frontend.fingerprints, cache)
        metrics.dirty_routines = sorted(dirty)
        self.config = config
        self.frontend = frontend
        self.cfgs = frontend.cfgs
        self.call_graph = frontend.call_graph
        self.condensation = frontend.condensation
        self.cache = cache
        # Read a body at a time, only where an old answer is needed.
        self.cached = cache.result.summaries
        # Phase-1 triples available for reuse: every cached summary's
        # (from the cache's routine table, no body read), plus the
        # phase-1-only entries the demand engine memoizes (triples
        # validated by a query whose phase-2 liveness never was).
        self.cached_triples: Dict[str, SummaryTriple] = dict(cache.triples)
        self.cached_triples.update(cache.phase1_triples)
        self.dirty = dirty
        self.metrics = metrics
        # Component scopes a demand query sets (``None``: every
        # component).  Sound as long as ``phase1_scope`` is callee-closed
        # and ``phase2_scope`` caller-closed with its callee closure
        # inside ``phase1_scope``: every input a scoped solve consumes
        # then comes from an in-scope component or the cache.
        self.phase1_scope: Optional[Set[int]] = None
        self.phase2_scope: Optional[Set[int]] = None
        # Per-member inputs, built for solved members only: §3.4 masks
        # and fragments (the cache's, or labeled here from a CFG, which
        # ``self.cfgs`` walks on access).
        self._saved: Dict[str, int] = {}
        self._fragments: Dict[str, PsgFragment] = {}
        #: Shape key -> the fragment of each routine this run labeled.
        self.labeled: Dict[int, PsgFragment] = {}
        # Phase-1 regions' graphs and answers, by member set, until a
        # phase-2 region of the same members reads them.
        self._graphs: Dict[frozenset, Tuple[PartialPsg, Phase1Result]] = {}
        # The pending region: component indices, and their members.
        self._pending: List[int] = []
        self._pending_members: Set[str] = set()
        # Phase-1 state: current triples, and the change-cutoff set.
        self.triples: Dict[str, SummaryTriple] = {}
        self.changed1: Set[str] = set()
        # Phase-2 state: members whose liveness outputs changed, and
        # freshly assembled summaries.
        self.changed2: Set[str] = set()
        self.fresh: Dict[str, RoutineSummary] = {}
        # Exit seeds from callers' summaries (fresh, else cached), only
        # ever asked about callers phase 2 is done with: final ones.
        self._exit_seeds = ExitSeeds(self.fresh, self.cached)
        self.orphaned = orphaned_callees(
            self.cached, self.cfgs, self.call_graph, dirty
        )
        # Components whose grade-1 lookup missed: their grade 2 cannot hit.
        self._grade1_missed: Set[int] = set()

    # ------------------------------------------------------------------
    # Cross-image summary store (repro.interproc.store)
    # ------------------------------------------------------------------

    def _keys(self) -> StoreKeys:
        if self._store_keys is None:
            with self.metrics.stage("fingerprint"):
                self._store_keys = StoreKeys(self.frontend, self.config)
        return self._store_keys

    def _store_phase1(self, index: int, members: Sequence[str]) -> bool:
        """Adopt a whole component's phase-1 triples from the store.

        All-or-nothing: a partial hit is treated as a miss so the SCC
        solves (and republishes) as one unit.  Adopted triples run
        through the same change cutoff as solved ones — byte-identical
        downstream behavior is what makes the store safe.
        """
        if self.store is None:
            return False
        deep = self._keys().deep
        loaded: Dict[str, SummaryTriple] = {}
        with span("store.lookup", grade=1, routines=len(members)):
            for name in members:
                triple = self.store.load_triple(deep[name], name)
                if triple is None:
                    self._grade1_missed.add(index)
                    return False
                loaded[name] = triple
        for name, triple in loaded.items():
            self.triples[name] = triple
            self.metrics.phase1_store_hits += 1
            if triple != self.cached_triples.get(name):
                self.changed1.add(name)
        return True

    def _store_phase2(self, members: Sequence[str]) -> bool:
        """Adopt a whole component's full summaries from the store
        (skipping the region build, both fixpoints and assembly)."""
        component_key = self._keys().component_key(members, self._exit_seeds)
        loaded: Dict[str, RoutineSummary] = {}
        with span("store.lookup", grade=2, routines=len(members)):
            for name in members:
                summary = self.store.load_summary(
                    routine_record_key(component_key, name), name
                )
                if summary is None:
                    return False
                loaded[name] = summary
        for name, summary in loaded.items():
            self.fresh[name] = summary
            self.metrics.phase2_store_hits += 1
            if name not in self.cached or not _same_liveness(
                summary, self.cached[name]
            ):
                self.changed2.add(name)
        return True

    # ------------------------------------------------------------------
    # Regions
    # ------------------------------------------------------------------

    def _take_fragments(self, names: Iterable[str]) -> None:
        """Take the cache's fragment of each of ``names`` whose body it
        holds and whose call sites it fits (counted
        ``cache.fragment.hit``; ``.stale`` when the routine's body
        changed or the fragment does not fit, ``.miss`` otherwise)."""
        held, old_records = self.cache.fragments, self.cache.frontend_records
        records, sites = self.frontend.records, self.call_graph.sites
        hit = stale = miss = 0
        for name in names:
            shape_key = records[name].shape_key
            fragment = held.get(shape_key)
            if fragment is None:
                old = old_records.get(name)
                if old is not None and old.shape_key != shape_key:
                    stale += 1
                else:
                    miss += 1
            elif fragment.site_count != len(sites[name]):
                stale += 1
            else:
                hit += 1
                self._fragments[name] = fragment
        REGISTRY.inc("cache.fragment.hit", hit)
        REGISTRY.inc("cache.fragment.stale", stale)
        REGISTRY.inc("cache.fragment.miss", miss)

    @property
    def new_fragments(self) -> PackedMap:
        """The fragments of the routines this run labeled, by shape key,
        each encoded only when the refreshed cache is written."""
        return PackedMap.of(self.labeled, FRAGMENTS)

    def _region(self, members: List[str]) -> PartialPsg:
        """The graph of a region: each member appended from its
        fragment, or labeled from its CFG (whose fragment it then
        keeps)."""
        records, fragments = self.frontend.records, self._fragments
        with self.metrics.stage("psg_build"):
            self._take_fragments(name for name in members if name not in fragments)
        walked = [name for name in members if name not in fragments]
        if walked:
            with self.metrics.stage("cfg_build"):
                cfgs = {name: self.cfgs[name] for name in walked}
            with self.metrics.stage("initialization"):
                keep = callee_saved_filter(self.config)
                for name, cfg in cfgs.items():
                    self._saved[name] = cfg.saved & keep
        sites, routines = self.call_graph.sites, []
        for name in members:
            if name in fragments:
                self._saved[name] = fragments[name].saved
                routines.append(StoredRoutine(name, fragments[name], sites[name]))
            else:
                routines.append(cfgs[name])
        with self.metrics.stage("psg_build"):
            region = build_partial_psg(routines, self.config.psg)
        for name in walked:
            fragment = fragment_rows(region.psg, name, self._saved[name])
            fragments[name] = self.labeled[records[name].shape_key] = fragment
        return region

    def _join(self, index: int, members: Sequence[str]) -> None:
        self._pending.append(index)
        self._pending_members.update(members)

    def _take_pending(self) -> Tuple[List[int], List[str]]:
        indices, self._pending = self._pending, []
        self._pending_members = set()
        members = self.condensation.members
        return indices, [name for index in indices for name in members(index)]

    # ------------------------------------------------------------------
    # Phase 1 — callee-first, pinned external entries, change cutoff
    # ------------------------------------------------------------------

    def _run_phase1(self) -> None:
        callees_of = self.call_graph.callees_of
        for index, members in enumerate(self.condensation.components):
            if self.phase1_scope is not None and index not in self.phase1_scope:
                continue
            if not any(
                name in self.dirty or name not in self.cached_triples
                for name in members
            ):
                # Needed only if an outside callee's triple changed.
                member_set = set(members)
                callees = [
                    callee for name in members for callee in callees_of(name)
                    if callee not in member_set
                ]
                if not self._pending_members.isdisjoint(callees):
                    self._solve_phase1()
                if self.changed1.isdisjoint(callees):
                    for name in members:
                        self.triples[name] = self.cached_triples[name]
                        self.metrics.phase1_reused += 1
                    continue
            if not self._store_phase1(index, members):
                self._join(index, members)
        self._solve_phase1()

    def _solve_phase1(self) -> None:
        """Solve the pending region's phase 1."""
        if not self._pending:
            return
        indices, members = self._take_pending()
        region = self._region(members)
        with self.metrics.stage("phase1"):
            with span(
                "phase1.region", components=len(indices), routines=len(members)
            ):
                solution = solve_phase1(
                    region, self._saved, self.config, members, self.triples
                )
        self._graphs[frozenset(members)] = (region, solution)
        self.metrics.phase1_sccs_solved += len(indices)
        self.metrics.phase1_iterations += solution.iterations
        for name in members:
            triple = solution.entry_triple(region.psg, name)
            self.triples[name] = triple
            self.metrics.phase1_solved += 1
            if triple != self.cached_triples.get(name):
                self.changed1.add(name)
        if self.store is not None:
            publish_component(self.store, self._keys(), members, self.triples)

    # ------------------------------------------------------------------
    # Phase 2 — caller-first, seeded exits, change cutoff
    # ------------------------------------------------------------------

    def _phase2_decided(self, members: Sequence[str]) -> bool:
        """Whether the component needs phase 2 whatever its callers'
        new liveness: a member dirty, uncached, orphaned, flipped in or
        out of external visibility, or calling a routine whose triple
        changed."""
        was_external = self.cache.externally_callable
        is_external = self.call_graph.externally_callable
        for name in members:
            if name in self.dirty or name not in self.cached:
                return True
            if name in self.orphaned:
                return True
            if (name in was_external) != (name in is_external):
                return True
            if not self.changed1.isdisjoint(self.call_graph.callees_of(name)):
                return True
        return False

    def _run_phase2(self) -> None:
        callers_of = self.call_graph.callers_of
        for index in range(len(self.condensation.components) - 1, -1, -1):
            if self.phase2_scope is not None and index not in self.phase2_scope:
                continue
            members = self.condensation.members(index)
            decided = self._phase2_decided(members)
            lookup = self.store is not None and index not in self._grade1_missed
            if lookup or not decided:
                # The need — an outside caller's liveness changed — and
                # the grade-2 key, which binds the exit seeds, read the
                # outside callers: they must be solved.
                member_set = set(members)
                callers = [
                    caller for name in members for caller, _site in callers_of(name)
                    if caller not in member_set
                ]
                if not self._pending_members.isdisjoint(callers):
                    self._solve_phase2()
                if not decided and self.changed2.isdisjoint(callers):
                    self.metrics.phase2_reused += len(members)
                    continue
                if lookup and self._store_phase2(members):
                    continue
            self._join(index, members)
        self._solve_phase2()

    def _solve_phase2(self) -> None:
        """Solve the pending region's phase 2 and assemble its members'
        summaries."""
        if not self._pending:
            return
        indices, members = self._take_pending()
        member_set = frozenset(members)
        # Callers outside the region are final: their seeds exist
        # before any graph does.
        seeds = {
            name: self._exit_seeds.seed(name, member_set, self.call_graph)
            for name in members
        }
        found = self._graphs.pop(member_set, None)
        if found is None:
            # No later region holds these members: drop their graphs.
            self._graphs = {
                key: value for key, value in self._graphs.items()
                if key.isdisjoint(member_set)
            }
            region = self._region(members)
            phase1 = pinned_phase1(region.psg, self.triples)
        else:
            region, phase1 = found
        with self.metrics.stage("phase2"):
            with span(
                "phase2.region", components=len(indices), routines=len(members)
            ):
                solution = solve_phase2(
                    region, self.config, self.call_graph.externally_callable,
                    members, seeds,
                )
        self.metrics.phase2_sccs_solved += len(indices)
        self.metrics.phase2_iterations += solution.iterations
        with self.metrics.stage("assemble"):
            fresh = region_summaries(
                region.psg, members, self._saved, phase1, solution.may_use
            )
        for name, summary in fresh.items():
            self.fresh[name] = summary
            self.metrics.phase2_solved += 1
            if name not in self.cached or not _same_liveness(
                summary, self.cached[name]
            ):
                self.changed2.add(name)
        if self.store is not None:
            keys = self._keys()
            for index in indices:
                publish_component(
                    self.store, keys, self.condensation.members(index),
                    summaries=self.fresh, exit_seeds=self._exit_seeds,
                )

    # ------------------------------------------------------------------

    def solve(self) -> None:
        """Run both phases over the configured component scopes without
        assembling a program-wide result, then publish the front-end
        records the run derived to the store.

        The demand engine (:mod:`repro.interproc.demand`) uses this
        with scopes set: afterwards ``self.fresh`` holds the re-solved
        summaries and ``self.changed1`` / ``self.changed2`` /
        ``self.orphaned`` say what the memoized cache may keep.
        """
        self._run_phase1()
        self._run_phase2()
        self.metrics.cfgs_built = self.frontend.cfgs_built - self._built_before
        if self.store is not None:
            publish_frontend_records(self.frontend, self.store)
            self.store.flush()

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
        return SummarySet(
            summaries=packed(self.cfgs, self.fresh, self.cached, SUMMARY_BODIES)
        )


def _same_liveness(fresh: RoutineSummary, cached: RoutineSummary) -> bool:
    """True when the phase-2 outputs (the facts callees consume through
    exit seeds) are unchanged — the phase-2 change cutoff."""
    if (
        fresh.live_at_entry_mask != cached.live_at_entry_mask
        or dict(fresh.exit_live_masks) != dict(cached.exit_live_masks)
    ):
        return False
    if len(fresh.call_sites) != len(cached.call_sites):
        return False
    for site_a, site_b in zip(fresh.call_sites, cached.call_sites):
        if (
            site_a.site.block != site_b.site.block
            # A retargeted site redirects its live-after contribution
            # even when the masks happen to coincide.
            or site_a.site.targets != site_b.site.targets
            or site_a.live_before_mask != site_b.live_before_mask
            or site_a.live_after_mask != site_b.live_after_mask
        ):
            return False
    return True
