"""Sharded parallel two-phase interprocedural solve.

The serial driver (:mod:`repro.interproc.analysis`) runs phase 1 and
phase 2 strictly sequentially over the whole PSG, leaving every core
but one idle on Table 2/3-scale images.  This module parallelizes both
phases without changing a single computed bit:

* the call graph's SCC **condensation** is partitioned into **shards**
  (:meth:`repro.cfg.callgraph.Condensation.partition_shards`) — runs of
  components, cost-balanced by CFG block counts, whose quotient graph
  is acyclic by construction;
* **phase 1** schedules shards *callee-first*: a shard becomes ready
  when every shard it calls into has published its members' entry
  triples, which the scheduler then pins on the shard's partial-PSG
  boundary (``run_phase1(..., fixed_entries=...)`` — the same
  pinned-entry machinery the incremental engine uses);
* **phase 2** schedules shards *caller-first*: a shard becomes ready
  when every shard calling into it has published return-point
  liveness, injected as exit seeds
  (``run_phase2(..., extra_exit_live=...)``);
* each shard is solved in a worker process from a ``multiprocessing``
  pool; workers hold the CFGs (inherited or pickled once at pool
  start) and lazily build per-shard partial PSGs.

**Determinism.**  The merge is trivially deterministic — each routine's
summary is produced by exactly one shard, and the result dict is
assembled in program order — and each shard's solution is *exact*, not
just sound: phase-1 entry triples depend only on the shard's own code
and its callees' (already exact) triples, and phase-2 liveness only on
the shard's code, the (fixed) phase-1 labels and its callers' (already
exact) return-point liveness.  By induction over the acyclic shard
DAG, the parallel result is bit-identical to the serial solver's at
any worker count and any shard count; the test suite asserts this.

**Warm runs.**  :func:`analyze_incremental_parallel` composes with the
fingerprint cache: only shards intersecting the conservative
invalidation cone (transitive callers of dirty routines for phase 1;
the transitive callees of that cone, plus orphaned / visibility-flipped
routines, for phase 2) are re-solved — in parallel — while clean
shards keep their cached summaries and serve them as pinned boundaries.

A worker-process death (OOM kill, segfault, ``os._exit``) surfaces as
a clean :class:`~repro.interproc.errors.AnalysisError` rather than a
hang: the pool's broken-pool signal aborts the wave.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import astuple, dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cfg.build import build_cfg
from repro.cfg.callgraph import CallGraph, Condensation, ShardPlan
from repro.cfg.cfg import CallSite, CfgError, ControlFlowGraph, ExitKind
from repro.dataflow.equations import SummaryTriple
from repro.dataflow.regset import TRACKED_MASK, mask_of
from repro.interproc.analysis import (
    AnalysisConfig,
    callee_saved_filter,
    frontend_chunks,
    node_seed_order,
)
from repro.program.model import Program
from repro.interproc.errors import AnalysisError
from repro.interproc.frontend import Frontend, build_frontend
from repro.interproc.phase1 import run_phase1
from repro.interproc.phase2 import run_phase2
from repro.interproc.persist import SUMMARY_BODIES, packed
from repro.interproc.store import config_digest, open_view, publish_result
from repro.interproc.summaries import (
    SummarySet,
    CallSiteSummary,
    RoutineSummary,
    _triple_of,
)
from repro.dataflow.regset import construction_count
from repro.obs import tracer as obs_tracer
from repro.obs.metrics import REGISTRY, MetricsPayload
from repro.obs.runid import current_run_id
from repro.obs.tracer import SpanRecord, span
from repro.psg.build import (
    PartialPsg,
    PsgBuildError,
    build_partial_psg,
)
from repro.reporting.metrics import ParallelMetrics, ShardMetrics

_log = logging.getLogger(__name__)

#: Spans + counter deltas recorded in a worker process during one task;
#: ``None`` when the task ran inline in the parent (which records into
#: the process-wide tracer/registry directly).
ObsPayload = Optional[Tuple[List[SpanRecord], MetricsPayload]]

#: Shards per worker the partitioner aims for.  Oversubscribing keeps
#: the pool busy when shard costs are uneven and lets the phase-2 wave
#: start draining while stragglers of unrelated subtrees finish.
SHARDS_PER_WORKER = 4

#: Front-end chunks per worker.  Finer-grained than shards: front-end
#: tasks have no dependencies, so extra chunks cost only one message
#: each and smooth out routine-size imbalance.
FRONTEND_CHUNKS_PER_WORKER = 4

#: What the serial solve raises about the program itself: re-raised as
#: is, so every path reports a hostile image with the same type and
#: message.
_UNWRAPPED = (CfgError, PsgBuildError)

#: Test-only fault injection: when set, every shard task calls it with
#: ``(phase, shard_index)`` on entry.  A test that points it at
#: ``os._exit`` simulates a worker crash; forked workers inherit it.
_FAULT_HOOK: Optional[Callable[[str, int], None]] = None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

class _ProcessState:
    """Observability bookkeeping shared by every worker-state flavor."""

    def __init__(self, parent_pid: int) -> None:
        self.parent_pid = parent_pid
        #: Regset constructions already accounted for; each obs drain
        #: folds the delta into the worker's registry.
        self.regset_base = construction_count()

    @property
    def in_subprocess(self) -> bool:
        return os.getpid() != self.parent_pid

    def reset_obs(self, trace_enabled: bool, run_id: Optional[str]) -> None:
        """Install fresh per-process observability state in a fork.

        The inherited tracer buffer and registry belong to the parent
        and must not be double-counted.  The parent run id is adopted
        so worker log lines and spans correlate.  No-op when "worker"
        code runs inline in the parent process.
        """
        if not self.in_subprocess:
            return
        REGISTRY.reset()
        self.regset_base = construction_count()
        # A fork from a daemon request thread inherits that thread's
        # request-local tracer; its buffer belongs to the parent.
        obs_tracer.clear_local_tracer()
        if trace_enabled:
            obs_tracer.enable(run_id=run_id)
        else:
            obs_tracer.disable()


class _WorkerState(_ProcessState):
    """Per-process solve state: the CFGs of every routine the worker
    may solve (forked workers inherit them for free) plus lazy
    per-shard caches."""

    def __init__(
        self,
        cfgs: Dict[str, ControlFlowGraph],
        config: AnalysisConfig,
        shard_routines: List[List[str]],
        parent_pid: int,
    ) -> None:
        super().__init__(parent_pid)
        self.cfgs = cfgs
        self.config = config
        self.shard_routines = shard_routines
        self.preserved = mask_of(
            {config.convention.stack_pointer, config.convention.global_pointer}
        )
        self.keep_saved = callee_saved_filter(config)
        self.saved: Dict[str, int] = {}
        self.partials: Dict[int, PartialPsg] = {}
        self.orders: Dict[int, List[int]] = {}


_STATE: Optional[_WorkerState] = None


def _init_worker(
    cfgs: Dict[str, ControlFlowGraph],
    config: AnalysisConfig,
    shard_routines: List[List[str]],
    parent_pid: int,
    trace_enabled: bool,
    run_id: Optional[str],
) -> None:
    global _STATE
    _STATE = _WorkerState(cfgs, config, shard_routines, parent_pid)
    _STATE.reset_obs(trace_enabled, run_id)


class _FrontendState(_ProcessState):
    """Per-process front-end state: just the program."""

    def __init__(self, program: Program, parent_pid: int) -> None:
        super().__init__(parent_pid)
        self.program = program


_FE_STATE: Optional[_FrontendState] = None


def _init_frontend(
    program: Program,
    parent_pid: int,
    trace_enabled: bool,
    run_id: Optional[str],
) -> None:
    global _FE_STATE
    _FE_STATE = _FrontendState(program, parent_pid)
    _FE_STATE.reset_obs(trace_enabled, run_id)


def _build_frontend_chunk(
    names: List[str],
) -> Tuple[Dict[str, ControlFlowGraph], float, ObsPayload]:
    """Build one chunk's CFGs (one walk per routine).

    Runs in a front-end pool worker (the program arrived via fork at
    pool start); returns the CFGs, the seconds they took and the
    worker's observability payload.
    """
    state = _FE_STATE
    assert state is not None, "front-end worker used before initialization"
    program = state.program
    with span("frontend.chunk", routines=len(names)):
        start = time.perf_counter()
        cfgs = {name: build_cfg(program, program.routine(name)) for name in names}
        seconds = time.perf_counter() - start
    REGISTRY.inc("frontend.routines", len(names))
    REGISTRY.inc("frontend.chunks")
    return cfgs, seconds, _drain_obs(state)


def _drain_obs(state: _ProcessState) -> ObsPayload:
    """The observability payload shipped back with each task result.

    In a subprocess: the spans and counters recorded since the last
    drain (the parent merges them on receipt).  Inline (``jobs <= 1``):
    ``None`` — the task already recorded into the parent's own
    tracer/registry.
    """
    if not state.in_subprocess:
        return None
    regsets = construction_count()
    if regsets != state.regset_base:
        REGISTRY.inc("regset.constructed", regsets - state.regset_base)
        state.regset_base = regsets
    tracer = obs_tracer.get_tracer()
    spans = tracer.drain() if tracer.enabled else []
    return (spans, REGISTRY.collect(clear=True))


def _absorb_obs(payload: ObsPayload) -> None:
    """Parent side: merge a worker task's spans and counters."""
    if payload is None:
        return
    spans, counters = payload
    if spans:
        obs_tracer.get_tracer().merge(spans)
    REGISTRY.merge(counters)


def _shard_partial(
    state: _WorkerState, shard_index: int, seconds: Dict[str, float]
) -> PartialPsg:
    """The shard's partial PSG (built once per worker), with the §3.4
    masks charged to initialization."""
    partial = state.partials.get(shard_index)
    if partial is not None:
        return partial
    cfgs = [state.cfgs[name] for name in state.shard_routines[shard_index]]
    start = time.perf_counter()
    for cfg in cfgs:
        state.saved[cfg.name] = cfg.saved & state.keep_saved
    seconds["initialization"] = (
        seconds.get("initialization", 0.0) + time.perf_counter() - start
    )
    start = time.perf_counter()
    partial = build_partial_psg(cfgs, state.config.psg)
    seconds["psg_build"] = (
        seconds.get("psg_build", 0.0) + time.perf_counter() - start
    )
    state.partials[shard_index] = partial
    state.orders[shard_index] = node_seed_order(partial.psg, partial.members)
    return partial


def _solve_shard_phase1(
    shard_index: int, pinned: Dict[str, Tuple[int, int, int]]
) -> Tuple[
    int, Dict[str, Tuple[int, int, int]], Dict[str, float], int, ObsPayload
]:
    """Solve one shard's phase 1 against pinned callee triples.

    ``pinned`` maps every callee outside the shard to its converged
    ``(may_use, may_def, must_def)`` triple; returns the same encoding
    for the shard's members (plain int tuples keep the pickled
    messages small) plus the worker's observability payload.
    """
    if _FAULT_HOOK is not None:
        _FAULT_HOOK("phase1", shard_index)
    state = _STATE
    assert state is not None, "worker used before initialization"
    seconds: Dict[str, float] = {}
    with span("phase1.shard", shard=shard_index):
        partial = _shard_partial(state, shard_index, seconds)
        fixed = {
            node_id: SummaryTriple(*pinned[callee])
            for callee, node_id in partial.external_entries.items()
        }
        start = time.perf_counter()
        solution = run_phase1(
            partial.psg,
            state.saved,
            state.preserved,
            state.orders[shard_index],
            fixed_entries=fixed,
        )
        seconds["phase1"] = time.perf_counter() - start
        triples = {}
        for name in partial.members:
            triple = solution.entry_triple(partial.psg, name)
            triples[name] = (triple.may_use, triple.may_def, triple.must_def)
    return (
        shard_index, triples, seconds, solution.iterations, _drain_obs(state)
    )


def _solve_shard_phase2(
    shard_index: int,
    triples: Dict[str, Tuple[int, int, int]],
    exit_seeds: Dict[str, int],
    externally_callable: Set[str],
) -> Tuple[int, Dict[str, RoutineSummary], Dict[str, float], int, ObsPayload]:
    """Solve one shard's phase 2 and assemble its routine summaries.

    ``triples`` covers the shard's members *and* every callee they can
    reach (needed to label the call-return edges); ``exit_seeds`` maps
    member routines to the liveness their out-of-shard callers inject
    at their RETURN exits.
    """
    if _FAULT_HOOK is not None:
        _FAULT_HOOK("phase2", shard_index)
    state = _STATE
    assert state is not None, "worker used before initialization"
    seconds: Dict[str, float] = {}
    shard_span = span("phase2.shard", shard=shard_index)
    shard_span.__enter__()
    partial = _shard_partial(state, shard_index, seconds)
    psg = partial.psg

    # Label resolved call-return edges from the converged triples (the
    # job run_phase1 does at the end of a whole-program solve).
    for edge in psg.call_return_edges:
        if edge.is_unknown:
            continue
        label_mu = 0
        label_md = 0
        label_xd = -1
        for callee in edge.callees:
            may_use, may_def, must_def = triples[callee]
            label_mu |= may_use
            label_md |= may_def
            label_xd &= must_def
        edge.label = SummaryTriple(
            may_use=label_mu,
            may_def=label_md,
            must_def=label_xd & TRACKED_MASK,
        )

    seeds: Dict[int, int] = {}
    for name, seed in exit_seeds.items():
        if not seed:
            continue
        for node_id in psg.routines[name].return_exit_nodes():
            seeds[node_id] = seed

    start = time.perf_counter()
    solution = run_phase2(
        psg,
        externally_callable,
        state.config.convention,
        state.orders[shard_index],
        extra_exit_live=seeds,
    )
    seconds["phase2"] = time.perf_counter() - start

    start = time.perf_counter()
    may_use = solution.may_use
    cr_by_src = {edge.src: edge for edge in psg.call_return_edges}
    summaries: Dict[str, RoutineSummary] = {}
    for name in partial.members:
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
        entry_mu, entry_md, entry_xd = triples[name]
        summaries[name] = RoutineSummary(
            name=name,
            call_used_mask=entry_mu,
            call_defined_mask=entry_xd,
            call_killed_mask=entry_md,
            live_at_entry_mask=may_use[routine_psg.entry_node],
            exit_live_masks=exit_live,
            exit_kinds=exit_kinds,
            call_sites=call_sites,
            saved_restored_mask=state.saved.get(name, 0),
        )
    seconds["assemble"] = time.perf_counter() - start
    shard_span.__exit__(None, None, None)
    return shard_index, summaries, seconds, solution.iterations, _drain_obs(state)


# ----------------------------------------------------------------------
# Parent side: the wave scheduler
# ----------------------------------------------------------------------

class _ShardScheduler:
    """Runs shard tasks over a pool, respecting readiness dependencies.

    ``jobs == 1`` runs every task inline in the parent (no pool, no
    pickling) through the very same worker functions, so the serial
    and parallel code paths cannot drift apart.
    """

    def __init__(
        self,
        jobs: int,
        cfgs: Dict[str, ControlFlowGraph],
        config: AnalysisConfig,
        shard_routines: List[List[str]],
    ) -> None:
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None
        # Same initializer arguments either way: inline "workers" see
        # their own pid as the parent and leave the parent's obs state
        # alone; forked workers reset theirs (see _init_worker) and
        # inherit the CFGs without pickling.
        initargs = (
            cfgs,
            config,
            shard_routines,
            os.getpid(),
            obs_tracer.is_enabled(),
            current_run_id(),
        )
        if jobs <= 1:
            _init_worker(*initargs)
        else:
            _log.debug(
                "starting worker pool: %d workers, %d shards",
                jobs, len(shard_routines),
            )
            self._pool = ProcessPoolExecutor(
                max_workers=jobs,
                initializer=_init_worker,
                initargs=initargs,
            )

    def close(self) -> None:
        if self._pool is not None:
            # wait=True: every submitted task has already completed or
            # the pool is broken (workers dead), so this returns
            # promptly — and it lets the executor tear down its
            # management thread cleanly instead of at interpreter exit.
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def run_wave(
        self,
        phase: str,
        shard_ids: Sequence[int],
        prerequisites: Dict[int, Set[int]],
        make_task: Callable[[int], Tuple[Callable, tuple]],
        on_result: Callable[[tuple], None],
    ) -> None:
        """Run every shard task once, oldest-ready-first.

        ``prerequisites[s]`` must only name shards inside this wave;
        ``make_task`` is called lazily — after a shard's prerequisites
        completed — so task arguments can embed published results.
        ``on_result`` runs in the parent, in completion order; nothing
        downstream may depend on that order (results are keyed by
        shard, and the final merge is order-independent).
        """
        pending = {s: set(prerequisites.get(s, ())) for s in shard_ids}
        dependents: Dict[int, List[int]] = {}
        for shard, requirements in pending.items():
            unknown = requirements - pending.keys()
            if unknown:
                raise AnalysisError(
                    f"{phase} wave: shard {shard} depends on shards "
                    f"{sorted(unknown)} outside the wave"
                )
            for requirement in requirements:
                dependents.setdefault(requirement, []).append(shard)
        ready = sorted(s for s in shard_ids if not pending[s])
        if self._pool is None:
            self._run_inline(phase, pending, dependents, ready, make_task, on_result)
        else:
            self._run_pooled(phase, pending, dependents, ready, make_task, on_result)
        unfinished = [s for s, reqs in pending.items() if reqs]
        if unfinished:  # cyclic shard graph would be a partitioner bug
            raise AnalysisError(
                f"{phase} wave deadlocked; shards never ready: "
                f"{sorted(unfinished)[:8]}"
            )

    def _finish(self, shard, pending, dependents, ready) -> None:
        del pending[shard]
        for dependent in dependents.get(shard, ()):  # may already be done
            requirements = pending.get(dependent)
            if requirements is not None:
                requirements.discard(shard)
                if not requirements:
                    ready.append(dependent)

    def _run_inline(
        self, phase, pending, dependents, ready, make_task, on_result
    ) -> None:
        while ready:
            shard = ready.pop(0)
            function, args = make_task(shard)
            try:
                result = function(*args)
            except _UNWRAPPED:
                raise
            except Exception as error:
                raise AnalysisError(
                    f"{phase} solve of shard {shard} failed: {error}"
                ) from error
            on_result(result)
            self._finish(shard, pending, dependents, ready)

    def _run_pooled(
        self, phase, pending, dependents, ready, make_task, on_result
    ) -> None:
        assert self._pool is not None
        in_flight: Dict[Future, int] = {}
        try:
            while ready or in_flight:
                while ready:
                    shard = ready.pop(0)
                    function, args = make_task(shard)
                    in_flight[self._pool.submit(function, *args)] = shard
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    shard = in_flight.pop(future)
                    result = future.result()
                    on_result(result)
                    self._finish(shard, pending, dependents, ready)
        except (AnalysisError, *_UNWRAPPED):
            raise
        except Exception as error:
            # BrokenProcessPool (a worker died), a pickling failure, or
            # an exception raised inside the shard solve.
            failed = sorted(in_flight.values())
            raise AnalysisError(
                f"{phase} solve failed"
                + (f" (shards in flight: {failed[:8]})" if failed else "")
                + f": {error!r}"
            ) from error


# ----------------------------------------------------------------------
# The shard engine (shared by cold and warm entry points)
# ----------------------------------------------------------------------

@dataclass
class _ShardEngine:
    """One sharded solve: waves, published facts, metrics."""

    call_graph: CallGraph
    plan: ShardPlan
    scheduler: _ShardScheduler
    metrics: ParallelMetrics
    #: Cached facts for routines whose shard is not re-solved.
    cached_summaries: Dict[str, RoutineSummary] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.triples: Dict[str, Tuple[int, int, int]] = {
            name: astuple(_triple_of(summary))
            for name, summary in self.cached_summaries.items()
        }
        self.fresh: Dict[str, RoutineSummary] = {}
        self.shard_metrics: Dict[int, ShardMetrics] = {}
        self.phase1_iterations = 0
        self.phase2_iterations = 0

    def _shard_record(self, index: int) -> ShardMetrics:
        record = self.shard_metrics.get(index)
        if record is None:
            shard = self.plan.shards[index]
            record = ShardMetrics(
                shard=index, routines=len(shard.routines), cost=shard.cost
            )
            self.shard_metrics[index] = record
            self.metrics.shards.append(record)
        return record

    # -- phase 1 -------------------------------------------------------

    def run_phase1_wave(self, shard_ids: Set[int]) -> None:
        """Solve ``shard_ids`` callee-first, publishing entry triples."""

        def make_task(shard: int):
            pinned: Dict[str, Tuple[int, int, int]] = {}
            for name in self.plan.shards[shard].routines:
                for callee in self.call_graph.callees_of(name):
                    if self.plan.shard_of_routine[callee] != shard:
                        pinned[callee] = self.triples[callee]
            return _solve_shard_phase1, (shard, pinned)

        def on_result(result) -> None:
            shard, triples, seconds, iterations, obs_payload = result
            _absorb_obs(obs_payload)
            REGISTRY.inc("shards.solved", phase="phase1")
            self.triples.update(triples)
            record = self._shard_record(shard)
            for name, value in seconds.items():
                record.merge_stage(name, value)
            record.phase1_iterations += iterations
            self.phase1_iterations += iterations

        prerequisites = {
            shard: self.plan.callee_shards[shard] & shard_ids
            for shard in shard_ids
        }
        with self.metrics.stage("phase1"):
            self.scheduler.run_wave(
                "phase1", sorted(shard_ids), prerequisites, make_task, on_result
            )

    # -- phase 2 -------------------------------------------------------

    def _live_after(self, caller: str, site: CallSite) -> int:
        """Current live-after mask at ``site`` (fresh if the caller's
        shard was re-solved this run, else cached)."""
        summary = self.fresh.get(caller) or self.cached_summaries.get(caller)
        if summary is None:
            return 0
        for known in summary.call_sites:
            if (
                known.site.block == site.block
                and known.site.instruction_index == site.instruction_index
            ):
                return known.live_after_mask
        return 0

    def run_phase2_wave(self, shard_ids: Set[int]) -> None:
        """Solve ``shard_ids`` caller-first, injecting boundary seeds."""
        externally_callable = set(self.call_graph.externally_callable)

        def make_task(shard: int):
            members = self.plan.shards[shard].routines
            triples: Dict[str, Tuple[int, int, int]] = {}
            exit_seeds: Dict[str, int] = {}
            for name in members:
                triples[name] = self.triples[name]
                for callee in self.call_graph.callees_of(name):
                    triples[callee] = self.triples[callee]
                seed = 0
                for caller, site in self.call_graph.callers_of(name):
                    if self.plan.shard_of_routine[caller] == shard:
                        continue  # in-shard flow happens inside the solve
                    seed |= self._live_after(caller, site)
                if seed:
                    exit_seeds[name] = seed
            return _solve_shard_phase2, (
                shard, triples, exit_seeds, externally_callable,
            )

        def on_result(result) -> None:
            shard, summaries, seconds, iterations, obs_payload = result
            _absorb_obs(obs_payload)
            REGISTRY.inc("shards.solved", phase="phase2")
            self.fresh.update(summaries)
            record = self._shard_record(shard)
            for name, value in seconds.items():
                record.merge_stage(name, value)
            record.phase2_iterations += iterations
            self.phase2_iterations += iterations

        prerequisites = {
            shard: self.plan.caller_shards[shard] & shard_ids
            for shard in shard_ids
        }
        with self.metrics.stage("phase2"):
            self.scheduler.run_wave(
                "phase2", sorted(shard_ids), prerequisites, make_task, on_result
            )


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------

@dataclass
class ParallelAnalysis:
    """Everything produced by one sharded parallel run.

    The whole-program PSG and raw per-node phase solutions are *not*
    materialized (each worker discards its partial PSG); ``result``
    carries the same per-routine summaries as the serial driver,
    bit-identical to :func:`repro.interproc.analysis.analyze_program`.
    """

    config: AnalysisConfig
    frontend: Frontend
    plan: ShardPlan
    result: SummarySet
    metrics: ParallelMetrics

    @property
    def program(self) -> Program:
        return self.frontend.program

    @property
    def cfgs(self) -> Mapping[str, ControlFlowGraph]:
        return self.frontend.cfgs

    @property
    def call_graph(self) -> CallGraph:
        return self.frontend.call_graph

    @property
    def condensation(self) -> Condensation:
        return self.frontend.condensation

    #: Explicit marker for CLI/report code (counterpart of
    #: ``InterproceduralAnalysis.is_parallel``); prefer this over
    #: duck-typing on the absence of a ``psg`` attribute.
    is_parallel: bool = True

    #: Result-protocol kind tag (see :mod:`repro.interproc.results`).
    kind = "parallel"

    def summary(self, routine: str) -> RoutineSummary:
        return self.result.summaries[routine]

    def stats(self) -> Dict[str, object]:
        """Kind-specific stats: shard plan and pool utilization."""
        return self.metrics.as_dict()

    def to_json(self, counters=None, include_summaries: bool = False):
        """The versioned (schema 1) result payload; see
        :mod:`repro.interproc.results`."""
        from repro.interproc.results import build_payload

        return build_payload(self, counters, include_summaries)

    def describe(self) -> str:
        """The human-readable stats block (the CLI text output)."""
        return self.metrics.render()


def resolve_jobs(jobs: Optional[int], config: Optional[AnalysisConfig]) -> int:
    """The effective worker count: explicit ``jobs`` beats the config
    field; 0 or negative means "one per available CPU"."""
    value = jobs if jobs is not None else getattr(config, "jobs", 1)
    if value is None or value == 1:
        return 1
    if value <= 0:
        return multiprocessing.cpu_count()
    return value


def _parallel_frontend(
    program: Program, jobs: int, metrics: ParallelMetrics
) -> Dict[str, ControlFlowGraph]:
    """Fan the per-routine walk across a transient worker pool.

    The front-end pool exists only for this wave: it is created before
    any CFG does (workers inherit just the program via fork) and torn
    down before the solve pool starts, so the solve pool's fork snapshot
    already contains every routine's CFG — shard workers inherit the
    full front end without a single pickled payload.  Results are
    reassembled in program order, so downstream iteration (call graph,
    partitioning, summary merge) is identical to the serial driver's.
    """
    chunks = frontend_chunks(program, jobs * FRONTEND_CHUNKS_PER_WORKER)
    collected: Dict[str, ControlFlowGraph] = {}
    initargs = (
        program,
        os.getpid(),
        obs_tracer.is_enabled(),
        current_run_id(),
    )
    _log.debug(
        "parallel front end: %d routines in %d chunks, jobs=%d",
        program.routine_count, len(chunks), jobs,
    )
    pool = ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_frontend, initargs=initargs
    )
    try:
        futures = [
            pool.submit(_build_frontend_chunk, chunk) for chunk in chunks
        ]
        for future in futures:
            try:
                cfgs, seconds, obs_payload = future.result()
            except CfgError:
                raise  # the serial front end's error, unwrapped
            except Exception as error:
                raise AnalysisError(
                    f"parallel front-end build failed: {error!r}"
                ) from error
            _absorb_obs(obs_payload)
            collected.update(cfgs)
            metrics.frontend_seconds["cfg_build"] = (
                metrics.frontend_seconds.get("cfg_build", 0.0) + seconds
            )
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return {routine.name: collected[routine.name] for routine in program}


def analyze_parallel(
    program,
    config: Optional[AnalysisConfig] = None,
    jobs: Optional[int] = None,
    shards: Optional[int] = None,
) -> ParallelAnalysis:
    """Run the full two-phase analysis sharded across ``jobs`` workers.

    ``shards`` overrides the shard-count target (default:
    ``jobs * SHARDS_PER_WORKER``); results are bit-identical to the
    serial solver for every choice of either knob.
    """
    config = config or AnalysisConfig()
    jobs = resolve_jobs(jobs, config)
    metrics = ParallelMetrics(jobs=jobs, routines_total=program.routine_count)

    if jobs > 1:
        # Cold front end in parallel: the per-routine walks fan out;
        # only the call graph (cheap, and needing every routine's
        # sites) stays parent-side.
        with metrics.stage("frontend"):
            cfgs = _parallel_frontend(program, jobs, metrics)
        with metrics.stage("cfg_build"):
            frontend = build_frontend(program, cfgs=cfgs)
    else:
        with metrics.stage("cfg_build"):
            frontend = build_frontend(program)
            cfgs = dict(frontend.cfgs)
        REGISTRY.inc("frontend.routines", len(cfgs))
    call_graph = frontend.call_graph
    with metrics.stage("partition"):
        condensation = frontend.condensation
        target = shards if shards is not None else jobs * SHARDS_PER_WORKER
        plan = condensation.partition_shards(
            frontend.block_counts, max_shards=max(1, target)
        )
    metrics.shard_count = plan.shard_count
    _log.info(
        "parallel solve: %d routines in %d shards, jobs=%d",
        program.routine_count, plan.shard_count, jobs,
    )

    shard_routines = [shard.routines for shard in plan.shards]
    scheduler = _ShardScheduler(jobs, cfgs, config, shard_routines)
    try:
        engine = _ShardEngine(
            call_graph=call_graph,
            plan=plan,
            scheduler=scheduler,
            metrics=metrics,
        )
        all_shards = set(range(plan.shard_count))
        engine.run_phase1_wave(all_shards)
        engine.run_phase2_wave(all_shards)
    finally:
        scheduler.close()

    result = SummarySet(
        summaries={name: engine.fresh[name] for name in cfgs}
    )
    # Publish-only, from the parent after the merge: shard workers never
    # consult the store, so parallel results stay trivially byte-identical
    # with the store on, off, or poisoned at any worker count.
    publish_result(frontend, config, result)
    return ParallelAnalysis(
        config=config,
        frontend=frontend,
        plan=plan,
        result=result,
        metrics=metrics,
    )


def _fold_parallel_seconds(metrics, parallel_metrics: ParallelMetrics) -> None:
    """Fold a parallel run's timings into an ``IncrementalMetrics``:
    parent wall clock for the scheduled stages (phase1/phase2 cover a
    whole wave, pool latency included) plus summed worker-side time for
    the stages only workers see (initialization, psg_build, assemble —
    busy time, so with several workers it can exceed the wave's wall
    time)."""
    for name, value in parallel_metrics.wall_seconds.items():
        if name != "partition":  # not an IncrementalMetrics stage
            metrics.seconds[name] = metrics.seconds.get(name, 0.0) + value
    for record in parallel_metrics.shards:
        for name, value in record.seconds.items():
            if name not in ("phase1", "phase2"):
                metrics.seconds[name] = metrics.seconds.get(name, 0.0) + value


def analyze_incremental_parallel(
    program,
    cache,
    config: Optional[AnalysisConfig] = None,
    image_fingerprint: int = 0,
    jobs: Optional[int] = None,
    shards: Optional[int] = None,
    frontend: Optional[Frontend] = None,
):
    """A warm incremental run that re-solves only *dirty shards*, in
    parallel.

    The invalidation cone is the conservative closure the serial warm
    engine starts from (transitive callers of dirty routines for
    phase 1; transitive callees of that cone plus orphaned and
    visibility-flipped routines for phase 2) — without the serial
    engine's per-component change cutoff, which is inherently
    sequential.  Re-solving a clean routine reproduces its cached
    facts exactly, so the result is still bit-identical to a serial
    warm run (and to a cold run) at any worker count.

    Returns :class:`repro.interproc.incremental.IncrementalAnalysis`
    with :attr:`~IncrementalAnalysis.parallel` metrics attached.
    """
    # Imported here: incremental.py lazily imports this module.
    from repro.interproc.incremental import (
        IncrementalAnalysis,
        SummaryCache,
        carried_fragments,
        orphaned_callees,
        record_fingerprint_verdicts,
        summary_triples,
    )
    from repro.reporting.metrics import IncrementalMetrics

    config = config or AnalysisConfig()
    jobs = resolve_jobs(jobs, config)

    if cache is None:
        # Cold run: the sharded cold solve, plus a fresh cache to seed
        # future warm runs.
        analysis = analyze_parallel(program, config, jobs=jobs, shards=shards)
        count = program.routine_count
        REGISTRY.inc("cache.miss", count)
        metrics = IncrementalMetrics(routines_total=count)
        metrics.cold = True
        metrics.dirty_routines = sorted(analysis.cfgs)
        metrics.phase1_solved = metrics.phase2_solved = count
        metrics.phase1_sccs_solved = metrics.phase2_sccs_solved = len(
            analysis.condensation.components
        )
        with metrics.stage("fingerprint"):
            fingerprints = analysis.frontend.fingerprints
        new_cache = SummaryCache(
            image_fingerprint=image_fingerprint,
            result=analysis.result,
            routine_fingerprints=fingerprints,
            externally_callable=set(analysis.call_graph.externally_callable),
            frontend_records=analysis.frontend.records,
            config_digest=config_digest(config),
        )
        metrics.cfgs_built = count
        _fold_parallel_seconds(metrics, analysis.metrics)
        for record in analysis.metrics.shards:
            metrics.phase1_iterations += record.phase1_iterations
            metrics.phase2_iterations += record.phase2_iterations
        return IncrementalAnalysis(
            config=config,
            frontend=analysis.frontend,
            result=analysis.result,
            cache=new_cache,
            metrics=metrics,
            condensation=analysis.condensation,
            parallel=analysis.metrics,
        )
    metrics = IncrementalMetrics(routines_total=program.routine_count)
    parallel_metrics = ParallelMetrics(
        jobs=jobs, routines_total=program.routine_count
    )

    store = open_view(config)
    built_before = frontend.cfgs_built if frontend is not None else 0
    with parallel_metrics.stage("cfg_build"):
        if frontend is None:
            frontend = build_frontend(
                program, cache.frontend_records, store=store
            )
    cfgs, call_graph = frontend.cfgs, frontend.call_graph
    REGISTRY.inc("frontend.routines", len(cfgs))

    with parallel_metrics.stage("fingerprint"):
        fingerprints = frontend.fingerprints
        dirty = record_fingerprint_verdicts(fingerprints, cache)
        # The shard engine pins boundaries with full cached summaries;
        # phase-1-only triple entries (demand-engine memos) satisfy the
        # fingerprint check but carry no liveness, so re-solve them
        # here rather than teach every shard about partial entries.
        dirty |= {name for name in cfgs if name not in cache.result.summaries}
    metrics.dirty_routines = sorted(dirty)
    _log.info(
        "warm parallel run: %d routines, %d dirty, jobs=%d",
        len(cfgs), len(dirty), jobs,
    )

    cached = cache.result.summaries
    with parallel_metrics.stage("partition"):
        condensation = frontend.condensation
        target = shards if shards is not None else jobs * SHARDS_PER_WORKER
        plan = condensation.partition_shards(
            frontend.block_counts, max_shards=max(1, target)
        )

        # Phase-1 cone: dirty/new components and their transitive
        # callers (their summaries consume the changed triples).
        dirty_components = {
            condensation.component_of[name] for name in dirty
        }
        phase1_components = condensation.transitive_caller_components(
            dirty_components
        )
        # Phase-2 cone: everything phase 1 may relabel, plus routines
        # whose boundary conditions moved (orphaned callees, external-
        # visibility flips), and all their transitive callees (their
        # exit liveness consumes caller return points).
        orphaned = orphaned_callees(cached, cfgs, call_graph, dirty)
        flipped = {
            name
            for name in cfgs
            if (name in cache.externally_callable)
            != (name in call_graph.externally_callable)
        }
        phase2_roots = set(phase1_components)
        for name in orphaned | flipped:
            if name in condensation.component_of:
                phase2_roots.add(condensation.component_of[name])
        phase2_components = condensation.transitive_callee_components(
            phase2_roots
        )

        phase1_shards = {
            plan.shard_of_component[index] for index in phase1_components
        }
        phase2_shards = {
            plan.shard_of_component[index] for index in phase2_components
        }
        # A shard re-solved in phase 2 needs its members' triples; any
        # member whose triple is not cached (new routine) must have
        # been phase-1-solved — guaranteed because new routines are
        # dirty, hence in the phase-1 cone.
    parallel_metrics.shard_count = plan.shard_count
    parallel_metrics.shards_reused = plan.shard_count - len(
        phase1_shards | phase2_shards
    )
    if parallel_metrics.shards_reused:
        REGISTRY.inc("shards.reused", parallel_metrics.shards_reused)

    cached_boundary = {
        name: summary for name, summary in cached.items() if name in cfgs
    }
    shard_routines = [shard.routines for shard in plan.shards]
    # Workers get a plain dict holding the CFGs of the shards they will
    # solve and nothing else: the lazy mapping is filled here, in the
    # parent, before the pool forks.
    with parallel_metrics.stage("cfg_build"):
        shard_cfgs = {
            name: cfgs[name]
            for shard in sorted(phase1_shards | phase2_shards)
            for name in shard_routines[shard]
        }
    metrics.cfgs_built = frontend.cfgs_built - built_before
    # A fully clean warm run solves nothing — never pay for a pool.
    pool_jobs = jobs if shard_cfgs else 1
    scheduler = _ShardScheduler(pool_jobs, shard_cfgs, config, shard_routines)
    try:
        engine = _ShardEngine(
            call_graph=call_graph,
            plan=plan,
            scheduler=scheduler,
            metrics=parallel_metrics,
            cached_summaries=cached_boundary,
        )
        engine.run_phase1_wave(phase1_shards)
        engine.run_phase2_wave(phase2_shards)
    finally:
        scheduler.close()

    result = SummarySet(
        summaries=packed(cfgs, engine.fresh, cached, SUMMARY_BODIES)
    )
    publish_result(frontend, config, result, store)

    solved1 = {
        name for shard in phase1_shards
        for name in plan.shards[shard].routines
    }
    solved2 = {
        name for shard in phase2_shards
        for name in plan.shards[shard].routines
    }
    metrics.phase1_solved = len(solved1)
    metrics.phase1_reused = len(cfgs) - len(solved1)
    metrics.phase2_solved = len(solved2)
    metrics.phase2_reused = len(cfgs) - len(solved2)
    metrics.phase1_sccs_solved = sum(
        len(plan.shards[shard].components) for shard in phase1_shards
    )
    metrics.phase2_sccs_solved = sum(
        len(plan.shards[shard].components) for shard in phase2_shards
    )
    metrics.phase1_iterations = engine.phase1_iterations
    metrics.phase2_iterations = engine.phase2_iterations
    _fold_parallel_seconds(metrics, parallel_metrics)

    # The shards solve from CFGs and hand back summaries only: the
    # fragments the cache held are carried over, none are added.
    new_cache = SummaryCache(
        image_fingerprint=image_fingerprint,
        result=result,
        routine_fingerprints=fingerprints,
        externally_callable=set(call_graph.externally_callable),
        frontend_records=frontend.records,
        config_digest=config_digest(config),
        triples=summary_triples(cfgs, engine.fresh, cache),
        fragments=carried_fragments(frontend, {}, cache.fragments),
    )
    return IncrementalAnalysis(
        config=config,
        frontend=frontend,
        result=result,
        cache=new_cache,
        metrics=metrics,
        condensation=condensation,
        parallel=parallel_metrics,
    )
