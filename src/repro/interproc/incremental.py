"""Incremental interprocedural re-analysis.

A whole-program run (:func:`repro.interproc.analysis.analyze_program`)
re-solves every routine even when one instruction changed.  Spike's
workflow — optimize, measure, edit a hot routine, re-optimize — makes
that wasteful: the phase-1 triples of an untouched routine depend only
on its own code and its callees' triples, and its phase-2 liveness
only on its callers' return-point liveness and its callees' triples.
This module exploits that structure:

* every routine gets a **content fingerprint** (a 64-bit CRC over its
  code bytes, its exported flag, its jump-table targets and its
  call-site target lists — exactly the inputs its CFG and local sets
  are a function of; see
  :func:`repro.interproc.frontend.routine_fingerprint`);
* the SCC **condensation** of the call graph is the dependency map:
  editing a routine dirties its component; phase-1 dirt propagates to
  transitive *callers*, phase-2 dirt to transitive *callees*;
* a **change cutoff** stops propagation early: after re-solving a
  component, its new answers are compared against the cache, and only
  components whose consumed answers actually changed are re-solved in
  turn;
* dirty components are re-solved on a **partial PSG**
  (:func:`repro.psg.build.build_partial_psg`): callees outside the
  component appear as dummy entry nodes pinned at their cached triples
  (``run_phase1(..., fixed_entries=...)``), and callers outside it
  contribute their cached return-point liveness as exit seeds
  (``run_phase2(..., extra_exit_live=...)``).

The cache itself is a :class:`repro.interproc.persist.SummaryCache`
(the versioned ``SUM3`` sidecar): the previous run's summaries, the
fingerprints that scope their validity, and the *front-end records*
(:mod:`repro.interproc.frontend`) from which the call graph, the
condensation and the fingerprints of this run are derived without
building the CFG of any routine whose code did not change.  CFGs are
built where a component is actually re-solved (and billed to the
``cfg_build`` stage there), so a warm run with zero dirty routines
builds none and performs *no* phase-1 or phase-2 solving at all — it
hashes the routines, re-resolves their recorded call sites, and
returns the cached result.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.program.model import Program
from repro.cfg.callgraph import CallGraph, Condensation
from repro.cfg.cfg import ControlFlowGraph, ExitKind
from repro.dataflow.equations import SummaryTriple
from repro.dataflow.local import LocalSets, compute_local_sets
from repro.dataflow.regset import TRACKED_MASK, mask_of
from repro.interproc.analysis import (
    AnalysisConfig,
    _analyze_program,
    node_seed_order,
)
from repro.interproc.frontend import Frontend, build_frontend
from repro.interproc.persist import SummaryCache
from repro.interproc.phase1 import run_phase1
from repro.interproc.phase2 import run_phase2
from repro.interproc.savedregs import saved_restored_registers
from repro.interproc.store import (
    StoreView,
    config_digest,
    deep_fingerprints,
    open_view,
    phase2_component_key,
    publish_frontend_records,
    resolve_store,
    routine_record_key,
)
from repro.interproc.summaries import (
    SummarySet,
    CallSiteSummary,
    ExitSeeds,
    RoutineSummary,
    _triple_of,
)
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import span
from repro.psg.build import PartialPsg, build_partial_psg
from repro.reporting.metrics import IncrementalMetrics, ParallelMetrics

_log = logging.getLogger(__name__)


def record_fingerprint_verdicts(
    fingerprints: Dict[str, int], cache: SummaryCache
) -> Set[str]:
    """Classify every routine's fingerprint against ``cache`` and push
    the per-run cache.hit / cache.stale / cache.miss counters.

    Returns the dirty set (stale + missing).  Shared by the serial warm
    engine and the parallel warm path so both report identically.
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
    #: Shard/pool metrics when the run was solved in parallel
    #: (``jobs > 1``); ``None`` for serial runs.
    parallel: Optional[ParallelMetrics] = None

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

    @property
    def is_parallel(self) -> bool:
        """True when the run was solved on the sharded worker pool."""
        return self.parallel is not None

    def summary(self, routine: str) -> RoutineSummary:
        return self.result.summaries[routine]

    def stats(self) -> Dict[str, object]:
        """Kind-specific stats: incremental work accounting (plus the
        shard/pool record when the dirty cone solved in parallel)."""
        payload: Dict[str, object] = dict(self.metrics.as_dict())
        if self.parallel is not None:
            payload["parallel"] = self.parallel.as_dict()
        return payload

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
    jobs: Optional[int] = None,
    frontend: Optional[Frontend] = None,
) -> IncrementalAnalysis:
    """Analyze ``program``, reusing ``cache`` where fingerprints allow.

    With ``cache=None`` this is a *cold* run: the full pipeline
    executes once and the returned :attr:`IncrementalAnalysis.cache`
    seeds future warm runs.  ``image_fingerprint`` is stored in the
    refreshed cache (it scopes the ``SUM1`` sidecar; the incremental
    engine itself invalidates per routine, not per image).

    ``jobs`` (or ``config.jobs``) above 1 delegates to the sharded
    parallel engine — dirty shards are re-solved on a worker pool,
    clean shards keep their cached summaries — with bit-identical
    results at any worker count.

    ``frontend`` is ``program``'s front end when the caller already
    has it (a session that analyzed or queried before); otherwise one
    is built from the cache's front-end records.
    """
    config = config or AnalysisConfig()

    from repro.interproc.parallel import resolve_jobs

    effective_jobs = resolve_jobs(jobs, config)
    if effective_jobs > 1:
        from repro.interproc.parallel import analyze_incremental_parallel

        return analyze_incremental_parallel(
            program,
            cache,
            config,
            image_fingerprint=image_fingerprint,
            jobs=effective_jobs,
            frontend=frontend,
        )

    metrics = IncrementalMetrics(routines_total=program.routine_count)

    if cache is None:
        if resolve_store(config) is not None:
            # A configured store can warm even a cold image (another
            # build already published its shared routines), so route
            # the cold solve through the warm engine with an empty
            # cache: every component consults the store before
            # solving, and misses behave exactly like a cold solve.
            metrics.cold = True
            empty = SummaryCache(
                image_fingerprint=0, result=SummarySet(summaries={})
            )
            return _warm_run(
                program, empty, config, image_fingerprint, metrics, frontend
            )
        return _cold_run(program, config, image_fingerprint, metrics, frontend)

    return _warm_run(
        program, cache, config, image_fingerprint, metrics, frontend
    )


def _warm_run(
    program: Program,
    cache: SummaryCache,
    config: AnalysisConfig,
    image_fingerprint: int,
    metrics: IncrementalMetrics,
    frontend: Optional[Frontend],
) -> IncrementalAnalysis:

    store = open_view(config)
    built_before = frontend.cfgs_built if frontend is not None else 0
    with metrics.stage("cfg_build"):
        if frontend is None:
            frontend = build_frontend(
                program, cache.frontend_records, store=store
            )
        condensation = frontend.condensation
    cfgs, call_graph = frontend.cfgs, frontend.call_graph

    with metrics.stage("fingerprint"):
        fingerprints = frontend.fingerprints
        dirty = record_fingerprint_verdicts(fingerprints, cache)
    metrics.dirty_routines = sorted(dirty)
    _log.info(
        "warm incremental run: %d routines, %d dirty",
        len(cfgs), len(dirty),
    )

    engine = _WarmEngine(
        frontend=frontend,
        config=config,
        cache=cache,
        dirty=dirty,
        metrics=metrics,
        store=store,
    )
    result = engine.run()
    metrics.cfgs_built = frontend.cfgs_built - built_before
    if store is not None:
        publish_frontend_records(frontend, store)
        store.flush()

    new_cache = SummaryCache(
        image_fingerprint=image_fingerprint,
        result=result,
        routine_fingerprints=fingerprints,
        externally_callable=set(call_graph.externally_callable),
        frontend_records=frontend.records,
    )
    return IncrementalAnalysis(
        config=config,
        frontend=frontend,
        result=result,
        cache=new_cache,
        metrics=metrics,
        condensation=condensation,
    )


def _cold_run(
    program: Program,
    config: AnalysisConfig,
    image_fingerprint: int,
    metrics: IncrementalMetrics,
    frontend: Optional[Frontend],
) -> IncrementalAnalysis:
    built_before = frontend.cfgs_built if frontend is not None else 0
    full = _analyze_program(program, config, frontend)
    metrics.cfgs_built = full.frontend.cfgs_built - built_before
    # No cache to consult: every routine is a miss by definition.
    REGISTRY.inc("cache.miss", len(full.cfgs))
    _log.info("cold incremental run: %d routines solved", len(full.cfgs))
    metrics.cold = True
    metrics.dirty_routines = sorted(full.cfgs)
    count = len(full.cfgs)
    metrics.phase1_solved = metrics.phase2_solved = count
    metrics.phase1_iterations = full.phase1.iterations
    metrics.phase2_iterations = full.phase2.iterations
    sccs = len(full.call_graph.strongly_connected_components())
    metrics.phase1_sccs_solved = metrics.phase2_sccs_solved = sccs
    for name, value in full.timings.as_dict().items():
        if name != "total":
            metrics.seconds[name] = value
    with metrics.stage("fingerprint"):
        fingerprints = full.frontend.fingerprints
    new_cache = SummaryCache(
        image_fingerprint=image_fingerprint,
        result=full.result,
        routine_fingerprints=fingerprints,
        externally_callable=set(full.call_graph.externally_callable),
        frontend_records=full.frontend.records,
    )
    return IncrementalAnalysis(
        config=config,
        frontend=full.frontend,
        result=full.result,
        cache=new_cache,
        metrics=metrics,
        condensation=None,
    )


def orphaned_callees(
    cached: Dict[str, RoutineSummary],
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
    survivors can be skipped: the fingerprint covers target lists, so
    theirs cannot have moved.  (Shared by the serial warm engine and
    the parallel dirty-shard selection.)
    """
    orphaned: Set[str] = set()
    for name, summary in cached.items():
        if name in cfgs and name not in dirty:
            continue
        cached_targets: Set[str] = set()
        for site in summary.call_sites:
            cached_targets.update(site.site.targets)
        current = set(call_graph.callees_of(name)) if name in cfgs else set()
        orphaned.update(cached_targets - current)
    return orphaned


class _WarmEngine:
    """One warm incremental solve, phase by phase, SCC by SCC."""

    def __init__(
        self,
        frontend: Frontend,
        config: AnalysisConfig,
        cache: SummaryCache,
        dirty: Set[str],
        metrics: IncrementalMetrics,
        phase1_scope: Optional[Set[int]] = None,
        phase2_scope: Optional[Set[int]] = None,
        store: Optional[StoreView] = None,
    ) -> None:
        self.config = config
        self.cfgs = frontend.cfgs
        self.call_graph = frontend.call_graph
        self.condensation = frontend.condensation
        self.cache = cache
        self.cached = cache.result.summaries
        # Phase-1 triples available for reuse: derivable from every
        # cached summary, plus the phase-1-only entries the demand
        # engine memoizes (triples validated by a query whose phase-2
        # liveness never was).
        self.cached_triples: Dict[str, SummaryTriple] = {
            name: _triple_of(summary)
            for name, summary in self.cached.items()
        }
        self.cached_triples.update(cache.phase1_triples)
        self.dirty = dirty
        self.metrics = metrics
        # Component scopes for demand-driven queries
        # (:mod:`repro.interproc.demand`).  ``None`` means "every
        # component" (the full warm run).  A scoped run only touches
        # components inside the scope; skipped components contribute
        # neither triples nor reuse counts.  Sound as long as
        # ``phase1_scope`` is callee-closed and ``phase2_scope`` is
        # caller-closed with its callee closure inside ``phase1_scope``
        # — then every input a scoped solve consumes (external callee
        # triples, caller exit seeds) comes from an in-scope component
        # or the cache, exactly as in a full run.
        self.phase1_scope = phase1_scope
        self.phase2_scope = phase2_scope
        self.preserved = mask_of(
            {config.convention.stack_pointer, config.convention.global_pointer}
        )
        # Lazily built per-routine inputs — only dirty cones pay for
        # them, their CFGs (``self.cfgs`` builds on access) included.
        self._local_sets: Dict[str, List[LocalSets]] = {}
        self._saved: Dict[str, int] = {}
        self._partials: Dict[int, PartialPsg] = {}
        # Phase-1 state: current triples, and the change-cutoff set.
        self.triples: Dict[str, SummaryTriple] = {}
        self.changed1: Set[str] = set()
        # Phase-2 state: components solved, members whose liveness
        # outputs changed, and freshly assembled summaries.
        self.solved2: Set[int] = set()
        self.changed2: Set[str] = set()
        self.fresh: Dict[str, RoutineSummary] = {}
        # Exit seeds from callers' current summaries (fresh if re-solved
        # this run, else cached).  Only ever asked about callers in
        # components phase 2 is already done with (it runs caller-first),
        # so a caller's summary is final by then.
        self._exit_seeds = ExitSeeds(self.fresh, self.cached)
        self.orphaned = orphaned_callees(
            self.cached, self.cfgs, self.call_graph, dirty
        )
        # Cross-image store state: deep fingerprints are derived lazily
        # — only runs that actually consult or publish pay for them.
        self.store = store
        self.fingerprints = frontend.fingerprints
        self._deep_fps: Optional[Dict[str, int]] = None
        self._context = 0

    # ------------------------------------------------------------------
    # Cross-image summary store (repro.interproc.store)
    # ------------------------------------------------------------------

    def _deep(self) -> Dict[str, int]:
        if self._deep_fps is None:
            with self.metrics.stage("fingerprint"):
                self._context = config_digest(self.config)
                self._deep_fps = deep_fingerprints(
                    self.fingerprints,
                    self.condensation,
                    self.call_graph,
                    self._context,
                )
        return self._deep_fps

    def _store_phase1(self, members: Sequence[str]) -> bool:
        """Adopt a whole component's phase-1 triples from the store.

        All-or-nothing: a partial hit is treated as a miss so the SCC
        solves (and republishes) as one unit.  Adopted triples run
        through the same change cutoff as solved ones — byte-identical
        downstream behavior is what makes the store safe.
        """
        if self.store is None:
            return False
        deep = self._deep()
        loaded: Dict[str, SummaryTriple] = {}
        with span("store.lookup", grade=1, routines=len(members)):
            for name in members:
                triple = self.store.load_triple(deep[name], name)
                if triple is None:
                    return False
                loaded[name] = triple
        for name, triple in loaded.items():
            self.triples[name] = triple
            self.metrics.phase1_store_hits += 1
            if triple != self.cached_triples.get(name):
                self.changed1.add(name)
        return True

    def _component_key(
        self, members: Sequence[str], member_seeds: Dict[str, int]
    ) -> Optional[int]:
        """The phase-2 boundary digest of a component (``None`` with no
        store configured)."""
        if self.store is None:
            return None
        return phase2_component_key(
            members,
            self._deep(),
            self.call_graph.externally_callable,
            member_seeds,
            self._context,
        )

    def _store_phase2(
        self, members: Sequence[str], component_key: int
    ) -> bool:
        """Adopt a whole component's full summaries from the store
        (skipping the partial-PSG build, both fixpoints and assembly)."""
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
    # Lazy inputs
    # ------------------------------------------------------------------

    def _prepare_members(self, members: Sequence[str]) -> None:
        fresh = [name for name in members if name not in self._local_sets]
        with self.metrics.stage("cfg_build"):
            cfgs = [self.cfgs[name] for name in fresh]
        with self.metrics.stage("initialization"):
            for name, cfg in zip(fresh, cfgs):
                self._local_sets[name] = compute_local_sets(cfg)
                self._saved[name] = (
                    saved_restored_registers(cfg, self.config.convention)
                    if self.config.callee_saved_filtering
                    else 0
                )

    def _partial(self, index: int) -> PartialPsg:
        partial = self._partials.get(index)
        if partial is None:
            members = self.condensation.members(index)
            self._prepare_members(members)
            with self.metrics.stage("psg_build"):
                partial = build_partial_psg(
                    self.cfgs, self._local_sets, members, self.config.psg
                )
            self._partials[index] = partial
        return partial

    @staticmethod
    def _node_order(partial: PartialPsg) -> List[int]:
        return node_seed_order(partial.psg, partial.members)

    # ------------------------------------------------------------------
    # Phase 1 — callee-first, pinned external entries, change cutoff
    # ------------------------------------------------------------------

    def _phase1_needed(self, members: Sequence[str], member_set: Set[str]) -> bool:
        for name in members:
            if name in self.dirty or name not in self.cached_triples:
                return True
            for callee in self.call_graph.callees_of(name):
                if callee not in member_set and callee in self.changed1:
                    return True
        return False

    def _run_phase1(self) -> None:
        for index, members in enumerate(self.condensation.components):
            if self.phase1_scope is not None and index not in self.phase1_scope:
                continue
            member_set = set(members)
            if not self._phase1_needed(members, member_set):
                for name in members:
                    self.triples[name] = self.cached_triples[name]
                    self.metrics.phase1_reused += 1
                continue
            if self._store_phase1(members):
                continue
            partial = self._partial(index)
            fixed = {
                node_id: self.triples[callee]
                for callee, node_id in partial.external_entries.items()
            }
            with self.metrics.stage("phase1"):
                with span(
                    "phase1.scc", component=index, routines=len(members)
                ):
                    solution = run_phase1(
                        partial.psg,
                        self._saved,
                        self.preserved,
                        self._node_order(partial),
                        fixed_entries=fixed,
                    )
            self.metrics.phase1_sccs_solved += 1
            self.metrics.phase1_iterations += solution.iterations
            for name in members:
                triple = solution.entry_triple(partial.psg, name)
                self.triples[name] = triple
                self.metrics.phase1_solved += 1
                if triple != self.cached_triples.get(name):
                    self.changed1.add(name)
            if self.store is not None:
                deep = self._deep()
                for name in members:
                    self.store.store_triple(
                        deep[name], name, self.triples[name]
                    )

    # ------------------------------------------------------------------
    # Phase 2 — caller-first, seeded exits, change cutoff
    # ------------------------------------------------------------------

    def _phase2_needed(self, members: Sequence[str], member_set: Set[str]) -> bool:
        was_external = self.cache.externally_callable
        is_external = self.call_graph.externally_callable
        for name in members:
            if name in self.dirty or name not in self.cached:
                return True
            if name in self.orphaned:
                return True
            if (name in was_external) != (name in is_external):
                return True
            for callee in self.call_graph.callees_of(name):
                if callee in self.changed1:
                    return True
            for caller, _site in self.call_graph.callers_of(name):
                if caller not in member_set and caller in self.changed2:
                    return True
        return False

    def _label_edges(self, partial: PartialPsg) -> None:
        """Write the phase-1 triples onto the resolved call-return
        edges (what ``run_phase1`` does at the end of a solve; needed
        again here because a component can be phase-2-dirty without
        having been phase-1-re-solved)."""
        for edge in partial.psg.call_return_edges:
            if edge.is_unknown:
                continue
            label_mu = 0
            label_md = 0
            label_xd = -1
            for callee in edge.callees:
                triple = self.triples[callee]
                label_mu |= triple.may_use
                label_md |= triple.may_def
                label_xd &= triple.must_def
            edge.label = SummaryTriple(
                may_use=label_mu,
                may_def=label_md,
                must_def=label_xd & TRACKED_MASK,
            )

    def _run_phase2(self) -> None:
        for index in range(len(self.condensation.components) - 1, -1, -1):
            if self.phase2_scope is not None and index not in self.phase2_scope:
                continue
            members = self.condensation.members(index)
            member_set = set(members)
            if not self._phase2_needed(members, member_set):
                self.metrics.phase2_reused += len(members)
                continue
            # The exit seeds are computable before any partial PSG
            # exists (callers solved first, so their live-after masks
            # are final) — which is what lets a store hit skip the
            # partial build entirely.
            member_seeds = {
                name: self._exit_seeds.seed(name, member_set, self.call_graph)
                for name in members
            }
            component_key = self._component_key(members, member_seeds)
            if component_key is not None and self._store_phase2(
                members, component_key
            ):
                continue
            partial = self._partial(index)
            self._label_edges(partial)
            seeds: Dict[int, int] = {}
            for name in members:
                seed = member_seeds[name]
                if not seed:
                    continue
                for node_id in partial.psg.routines[name].return_exit_nodes():
                    seeds[node_id] = seed
            with self.metrics.stage("phase2"):
                with span(
                    "phase2.scc", component=index, routines=len(members)
                ):
                    solution = run_phase2(
                        partial.psg,
                        self.call_graph.externally_callable,
                        self.config.convention,
                        self._node_order(partial),
                        extra_exit_live=seeds,
                    )
            self.solved2.add(index)
            self.metrics.phase2_sccs_solved += 1
            self.metrics.phase2_iterations += solution.iterations
            with self.metrics.stage("assemble"):
                cr_by_src = {
                    edge.src: edge for edge in partial.psg.call_return_edges
                }
                for name in members:
                    summary = self._assemble(
                        partial, cr_by_src, solution.may_use, name
                    )
                    self.fresh[name] = summary
                    self.metrics.phase2_solved += 1
                    if (
                        name not in self.cached
                        or not _same_liveness(summary, self.cached[name])
                    ):
                        self.changed2.add(name)
            if component_key is not None:
                for name in members:
                    self.store.store_summary(
                        routine_record_key(component_key, name),
                        name,
                        self.fresh[name],
                    )

    def _assemble(
        self, partial: PartialPsg, cr_by_src, may_use: List[int], name: str
    ) -> RoutineSummary:
        psg = partial.psg
        routine_psg = psg.routines[name]

        exit_live: Dict[int, int] = {}
        exit_kinds: Dict[int, ExitKind] = {}
        for node_id, kind in routine_psg.exit_nodes:
            block = psg.nodes[node_id].block
            exit_live[block] = may_use[node_id]
            exit_kinds[block] = kind

        call_sites: List[CallSiteSummary] = []
        for call_node, return_node, site in routine_psg.call_pairs:
            label = cr_by_src[call_node].label
            call_sites.append(
                CallSiteSummary(
                    site=site,
                    used_mask=label.may_use,
                    defined_mask=label.must_def,
                    killed_mask=label.may_def,
                    live_before_mask=may_use[call_node],
                    live_after_mask=may_use[return_node],
                )
            )

        triple = self.triples[name]
        return RoutineSummary(
            name=name,
            call_used_mask=triple.may_use,
            call_defined_mask=triple.must_def,
            call_killed_mask=triple.may_def,
            live_at_entry_mask=may_use[routine_psg.entry_node],
            exit_live_masks=exit_live,
            exit_kinds=exit_kinds,
            call_sites=call_sites,
            saved_restored_mask=self._saved.get(name, 0),
        )

    # ------------------------------------------------------------------

    def solve(self) -> None:
        """Run both phases over the configured component scopes without
        assembling a program-wide result.

        The demand engine (:mod:`repro.interproc.demand`) uses this
        with scopes set: afterwards ``self.fresh`` holds the re-solved
        summaries and ``self.changed1`` / ``self.changed2`` /
        ``self.orphaned`` say what the memoized cache may keep.
        """
        self._run_phase1()
        self._run_phase2()

    def run(self) -> SummarySet:
        self.solve()
        _log.debug(
            "warm engine: phase1 solved %d / reused %d, "
            "phase2 solved %d / reused %d",
            self.metrics.phase1_solved, self.metrics.phase1_reused,
            self.metrics.phase2_solved, self.metrics.phase2_reused,
        )
        summaries = {
            name: self.fresh.get(name) or self.cached[name]
            for name in self.cfgs
        }
        return SummarySet(summaries=summaries)


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
