"""The region solve, and the top-level driver that runs it over the
whole program.

Every path solves the two phases the same way: a PSG over a
*region*, a list of member routines (:func:`repro.psg.build.
build_partial_psg`); phase 1 with the external entries pinned at their
callees' triples (:func:`solve_phase1`); phase 2 with the liveness
outside callers seed at the members' exits (:func:`solve_phase2`); and
one assembler (:func:`region_summaries`).  The incremental engine
(:mod:`repro.interproc.incremental`) solves runs of the components it
needs as regions of one graph, each solve carrying the phase's state
over from the last; the cold driver below solves the region of every
routine, whose graph is the whole-program PSG.  It runs the five-stage
pipeline the paper times in §4:

1. **CFG Build** — decode (when starting from an image), walk every
   routine once into its CFG's block rows (:func:`repro.cfg.build.
   build_cfg`: block bounds, successors, each block's DEF and UBD sets,
   call sites and the §3.4 save/restore pattern) and build the call
   graph;
2. **Initialization** — narrow each routine's saved/restored registers
   to the convention's callee-saved set (the DEF/UBD sets the paper
   times here come out of the CFG Build walk);
3. **PSG Build** — construct the Program Summary Graph from the rows
   and label its flow-summary edges (Figure 6);
4. **Phase 1** — call-used / call-defined / call-killed (Figure 8);
5. **Phase 2** — live-at-entry / live-at-exit (Figure 10).

The result bundles the per-routine summaries with the measurements
every experiment in the paper reports — PSG/CFG sizes, per-stage times
and model-based memory usage — and solves its graphs again for whoever
asks for one (:class:`InterproceduralAnalysis`).
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Set, Tuple, Union,
)

from repro.isa.calling_convention import NT_ALPHA
from repro.program.model import Program
from repro.cfg.callgraph import CallGraph
from repro.cfg.cfg import CallSite, ControlFlowGraph, ExitKind, FrontendRecord
from repro.dataflow.equations import SummaryTriple
from repro.dataflow.regset import mask_of
from repro.psg.build import (
    PartialPsg,
    PsgConfig,
    PsgFragment,
    StoredRoutine,
    build_partial_psg,
)
from repro.psg.graph import ProgramSummaryGraph
from repro.interproc.flatcore import label_call_return_edges
from repro.interproc.frontend import Frontend, build_frontend
from repro.interproc.persist import (
    SUMMARY_BODIES,
    PackedMap,
    RoutineRow,
    SummaryCache,
)
from repro.interproc.phase1 import Phase1Result, Phase1State, run_phase1
from repro.interproc.phase2 import Phase2Result, Phase2State, run_phase2
from repro.interproc.store import (
    StoreView,
    add_exit_seeds,
    component_inputs,
    config_digest,
    open_view,
)
from repro.interproc.summaries import (
    CallSiteSummary,
    RoutineSummary,
    SummarySet,
    _triple_of,
    live_after_masks,
)
from repro.obs.metrics import REGISTRY, Ledger
from repro.reporting.memory import psg_analysis_memory
from repro.reporting.metrics import RunMetrics

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AnalysisConfig:
    """Options for one analysis run."""

    psg: PsgConfig = field(default_factory=PsgConfig)
    #: §3.4 callee-saved filtering.  Disabling it (ablation only) makes
    #: every save/restore pair leak into the callers' call-used /
    #: call-killed sets; results remain sound but much less useful.
    callee_saved_filtering: bool = True
    #: Cross-image summary store (:mod:`repro.interproc.store`):
    #: ``None`` defers to the ``REPRO_SUMMARY_STORE`` environment
    #: variable, a :class:`~repro.interproc.store.SummaryStore` uses
    #: that store, and the string ``"off"`` disables the store even
    #: when the environment names one.  Results are byte-identical in
    #: every case.
    store: Optional[object] = None
    # Class constants, not fields.  Every run analyzes under the paper's
    # NT Alpha calling standard (perf/workloads.py reads it here).
    # ``solver_core`` is read only by the frozen stage replay in
    # perf/workloads.py; re-pointing that replay deletes it.
    convention = NT_ALPHA
    solver_core = None


def callee_saved_filter(config: AnalysisConfig) -> int:
    """What §3.4 keeps of a routine's :attr:`ControlFlowGraph.saved`: the
    convention's callee-saved registers, or nothing with filtering
    off."""
    if not config.callee_saved_filtering:
        return 0
    return mask_of(config.convention.callee_saved)


@dataclass
class InterproceduralAnalysis:
    """What one analysis run keeps: its answer, not its graphs.

    ``result`` holds the per-routine summaries; the other fields are the
    front end the run solved over, the §3.4 masks, and the §4
    measurements (the run's metrics with its stage clock, the memory
    model and the structure sizes, counted during the run).  The
    whole-program PSG and the two phases' solutions (:attr:`psg`,
    :attr:`phase1`, :attr:`phase2`) are solved again, by the same region
    solve and outside the run's ledger, on first read, and kept from
    then on; a CFG whose rows the run released is walked again when
    :attr:`cfgs` is asked for it.
    """

    config: AnalysisConfig
    frontend: Frontend
    saved_restored: Dict[str, int]
    result: SummarySet
    metrics: RunMetrics
    memory_bytes: int
    basic_block_count: int
    #: Intraprocedural arcs plus one call and one return arc per call
    #: site (the Table-5 "CFG Arcs" definition).
    cfg_arc_count: int
    psg_node_count: int
    #: Flow-summary plus call-return edges.
    psg_edge_count: int

    # -- convenience -----------------------------------------------------

    @property
    def program(self) -> Program:
        return self.frontend.program

    @property
    def cfgs(self) -> Mapping[str, ControlFlowGraph]:
        return self.frontend.cfgs

    @property
    def call_graph(self) -> CallGraph:
        return self.frontend.call_graph

    @cached_property
    def _graphs(self) -> Tuple[ProgramSummaryGraph, Phase1Result, Phase2Result]:
        cfgs = self.frontend.cfgs
        return _solve_program(
            [cfgs[routine.name] for routine in self.program],
            self.saved_restored, self.config, self.call_graph,
        )

    @property
    def psg(self) -> ProgramSummaryGraph:
        """The whole-program PSG, its call-return edges labeled by
        phase 1."""
        return self._graphs[0]

    @property
    def phase1(self) -> Phase1Result:
        return self._graphs[1]

    @property
    def phase2(self) -> Phase2Result:
        return self._graphs[2]

    #: Result-protocol kind tag (see :mod:`repro.interproc.results`).
    kind = "serial"

    def summary(self, routine: str) -> RoutineSummary:
        return self.result.summaries[routine]

    def stats(self) -> Dict[str, object]:
        """Kind-specific stats: stage timings and structure sizes."""
        return {
            "stage_seconds": self.metrics.stage_seconds(),
            "memory_bytes": self.memory_bytes,
            "psg_nodes": self.psg_node_count,
            "psg_edges": self.psg_edge_count,
        }

    def to_json(self, include_summaries: bool = False):
        """The versioned (schema 1) result payload; see
        :mod:`repro.interproc.results`."""
        from repro.interproc.results import build_payload

        return build_payload(self, include_summaries)

    def describe(self) -> str:
        """The human-readable stats block (the CLI text output)."""
        lines = [
            f"basic blocks:  {self.basic_block_count}",
            f"cfg arcs:      {self.cfg_arc_count}",
            f"psg nodes:     {self.psg_node_count}",
            f"psg edges:     {self.psg_edge_count}",
            f"memory model:  {self.memory_bytes / 1e6:.2f} MB",
            f"total time:    {self.metrics.total_seconds:.3f} s",
        ]
        seconds = self.metrics.seconds
        for stage, fraction in self.metrics.fractions().items():
            lines.append(
                f"  {stage:<16}{seconds[stage]:.3f} s  ({fraction:5.1%})"
            )
        return "\n".join(lines)


def _analyze_program(
    program: Program,
    config: Optional[AnalysisConfig] = None,
    frontend: Optional[Frontend] = None,
) -> InterproceduralAnalysis:
    """Run the full pipeline on an already-decoded program (over
    ``frontend`` when the caller already has the program's): the region
    solve over the region of every routine, in program order.

    Each structure goes as soon as no later step reads it.  A front end
    the run builds itself is the run's: each routine's CFG rows are
    released once the PSG build has labeled it.  One the caller passes
    in is the caller's, and keeps its rows; the routines an incremental
    run of the session labeled already are appended from the fragments
    it kept (:attr:`Frontend.fragments`), their counts read from the
    records, the call graph and :attr:`Frontend.arcs`, so the result is
    the same and nothing is walked twice.  The arena goes after phase 2,
    the PSG and the phase solutions after assembly.
    """
    config = config or AnalysisConfig()
    with Ledger() as ledger:
        metrics = RunMetrics(ledger, routines_total=program.routine_count)
        with metrics.stage("cfg_build"):
            owned = frontend is None
            if owned:
                frontend = build_frontend(program)
            # The whole-program PSG needs every routine's CFG but those
            # an earlier run of the session labeled; a front end that
            # came from records walks the remainder here.
            held = frontend.labeled(config_digest(config))
            cfgs = [
                frontend.cfgs[routine.name] for routine in program
                if routine.name not in held
            ]
        call_graph = frontend.call_graph
        REGISTRY.inc("frontend.routines", program.routine_count)

        with metrics.stage("initialization"):
            keep = callee_saved_filter(config)
            saved_restored = {cfg.name: cfg.saved & keep for cfg in cfgs}

        # What a later step reads of a CFG, taken while every one is held.
        blocks = sum(cfg.block_count for cfg in cfgs)
        arcs = sum(cfg.arc_count for cfg in cfgs)
        sites = sum(len(cfg.call_sites) for cfg in cfgs)
        view = open_view(config)
        records = None if view is None else frontend.records
        if held:
            known, site_rows = frontend.records, call_graph.sites
            blocks += sum(known[name].block_count for name in held)
            arcs += sum(frontend.arcs[name] for name in held)
            sites += sum(len(site_rows[name]) for name in held)
            saved_restored.update(
                (name, fragment.saved) for name, fragment in held.items()
            )
            REGISTRY.inc("frontend.fragment.hit", len(held))
        arcs_with_calls = arcs + 2 * sites
        built = frontend.cfgs.built
        cfgs = region_routines(
            [routine.name for routine in program], held, call_graph.sites,
            built.pop if owned else built.__getitem__,
        )

        psg, phase1, phase2 = _solve_program(
            cfgs, saved_restored, config, call_graph, metrics
        )
        memory = psg_analysis_memory(psg, blocks, arcs)
        nodes, edges = psg.node_count, psg.edge_count
        # Assembly reads the node rows, the call pairs, the call-return
        # labels and the two answers: not the arena.
        psg.arena = None  # type: ignore[assignment]
        result = _assemble_summaries(
            program, frontend.cfgs, saved_restored, psg, phase1, phase2
        )
        del psg, phase1, phase2
        if view is not None:
            # The store is published to, never consulted: this path
            # solves every routine.
            view.publish(_solved_table(
                frontend, records, config_digest(config), result, view
            ))
        return InterproceduralAnalysis(
            config=config,
            frontend=frontend,
            saved_restored=saved_restored,
            result=result,
            metrics=metrics,
            memory_bytes=memory,
            basic_block_count=blocks,
            cfg_arc_count=arcs_with_calls,
            psg_node_count=nodes,
            psg_edge_count=edges,
        )


def region_routines(
    names: Iterable[str],
    fragments: Mapping[str, PsgFragment],
    sites: Mapping[str, Sequence[CallSite]],
    take: Callable[[str], ControlFlowGraph],
) -> Iterator[Union[ControlFlowGraph, StoredRoutine]]:
    """Each of ``names`` as a region's build appends it: from its
    fragment in ``fragments`` where there is one, else its CFG,
    ``take(name)``.  With ``take`` a ``LazyCfgs.built.pop`` each CFG is
    taken out as it is handed on: the build holds the one reference
    left, and lets it go when it asks for the next."""
    for name in names:
        fragment = fragments.get(name)
        if fragment is None:
            yield take(name)
        else:
            yield StoredRoutine(name, fragment, sites[name])


def _solve_program(
    cfgs: Iterable[Union[ControlFlowGraph, StoredRoutine]],
    saved: Mapping[str, int],
    config: AnalysisConfig,
    call_graph: CallGraph,
    metrics: Optional[RunMetrics] = None,
) -> Tuple[ProgramSummaryGraph, Phase1Result, Phase2Result]:
    """The region solve over the region of every routine (``cfgs``, in
    program order, each a CFG or a stored fragment): the whole-program
    PSG and its two phase solutions, each step timed as a stage of
    ``metrics`` when one is given."""
    def stage(name: str):
        return nullcontext() if metrics is None else metrics.stage(name)

    with stage("psg_build"):
        region = build_partial_psg(
            cfgs, config.psg, whole=True, convention=config.convention
        )
    callee_first = call_graph.reverse_topological_order()
    with stage("phase1"):
        phase1 = solve_phase1(region, saved, config, callee_first, {})
    with stage("phase2"):
        phase2 = solve_phase2(
            region.psg, config, call_graph.externally_callable,
            callee_first[::-1], {},
        )
    return region.psg, phase1, phase2


def _solved_table(
    frontend: Frontend,
    records: Mapping[str, FrontendRecord],
    context: int,
    result: SummarySet,
    view: StoreView,
) -> SummaryCache:
    """A whole-program solve as the store files it: every routine's row
    but those of the components ``view`` holds already, and every
    front-end record (``records``, taken while the CFGs were held)."""
    summaries = result.summaries
    triples = {name: _triple_of(summary) for name, summary in summaries.items()}
    live_after = {
        name: live_after_masks(summary) for name, summary in summaries.items()
    }
    seeds: Dict[str, int] = {}
    add_exit_seeds(seeds, frontend, live_after.items())
    external = frontend.call_graph.externally_callable
    rows: Dict[str, RoutineRow] = {}
    for members in frontend.condensation.components:
        inputs = {
            name: (*phase1, (name in external, seeds.get(name, 0)))
            for name, phase1 in component_inputs(frontend, members, triples).items()
        }
        if view.find(context, members, inputs) is None:
            for name in members:
                rows[name] = RoutineRow(*inputs[name], triples[name], live_after[name])
    return SummaryCache(
        image_fingerprint=0,
        result=result,
        rows=rows,
        frontend_records={record.shape_key: record for record in records.values()},
        config_digest=context,
    )


# ----------------------------------------------------------------------
# The region solve: every path runs its two phases through these
# ----------------------------------------------------------------------


def node_seed_order(
    psg: ProgramSummaryGraph, routine_order: Sequence[str]
) -> List[int]:
    """Seed order: routines in ``routine_order``, and within each
    routine the nodes in reverse creation order (targets tend to be
    created after the entry, so reversing processes them first, which
    suits backward propagation).
    """
    order: List[int] = []
    for name in routine_order:
        routine_psg = psg.routines[name]
        ids = [routine_psg.entry_node]
        ids.extend(node for node, _kind in routine_psg.exit_nodes)
        for call_node, return_node, _site in routine_psg.call_pairs:
            ids.append(call_node)
            ids.append(return_node)
        ids.extend(routine_psg.branch_nodes)
        order.extend(reversed(ids))
    return order


def solve_phase1(
    region: PartialPsg,
    saved: Mapping[str, int],
    config: AnalysisConfig,
    routine_order: Sequence[str],
    pinned: Mapping[str, SummaryTriple],
    state: Optional[Phase1State] = None,
) -> Phase1Result:
    """Phase 1 (Figure 8) over a region's graph, seeded in
    ``routine_order``, each external entry pinned at its callee's triple
    in ``pinned``.  Leaves the converged labels on the region's
    call-return edges.  ``state`` carries the graph's earlier solves
    (see :func:`~repro.interproc.phase1.run_phase1`)."""
    psg = region.psg
    fixed = {
        node: pinned[callee] for callee, node in region.external_entries.items()
    }
    preserved = mask_of(
        {config.convention.stack_pointer, config.convention.global_pointer}
    )
    return run_phase1(
        psg, saved, preserved, node_seed_order(psg, routine_order),
        fixed_entries=fixed, state=state,
        routines=[psg.routines[name] for name in routine_order],
    )


def pin_call_return_labels(
    psg: ProgramSummaryGraph, triples: Mapping[str, SummaryTriple], first: int
) -> None:
    """Label the call-return edges from index ``first`` on, whose
    callees' triples are known already (``triples``), as
    :func:`run_phase1` would: how routines whose phase 1 was reused or
    adopted join a graph."""
    routines = psg.routines
    entries = {
        routines[name].entry_node: triples[name]
        for callees in psg.cr_targets[first:] for name in callees
    }
    label_call_return_edges(
        psg,
        {node: triple.may_use for node, triple in entries.items()},
        {node: triple.may_def for node, triple in entries.items()},
        {node: triple.must_def for node, triple in entries.items()},
        first,
    )


def solve_phase2(
    psg: ProgramSummaryGraph,
    config: AnalysisConfig,
    externally_callable: Set[str],
    routine_order: Sequence[str],
    seeds: Mapping[str, int],
    state: Optional[Phase2State] = None,
) -> Phase2Result:
    """Phase 2 (Figure 10) of the routines in ``routine_order``, in
    that order, over a graph whose call-return edges phase 1 has
    labeled; ``seeds`` adds each one's liveness flowing back from
    callers outside the region at its RETURN exits.  ``state`` carries
    the graph's earlier solves (see
    :func:`~repro.interproc.phase2.run_phase2`)."""
    extra = {
        node: seed
        for name, seed in seeds.items() if seed
        for node in psg.routines[name].return_exit_nodes()
    }
    return run_phase2(
        psg, externally_callable, config.convention,
        node_seed_order(psg, routine_order), extra_exit_live=extra,
        state=state, routines=[psg.routines[name] for name in routine_order],
    )


def region_summaries(
    psg: ProgramSummaryGraph,
    names: Iterable[str],
    saved: Mapping[str, int],
    triples: Mapping[str, SummaryTriple],
    live: Sequence[int],
) -> Dict[str, RoutineSummary]:
    """The summary of each of ``names``, read off a graph whose
    call-return edges phase 1 labeled, the routines' phase-1 entry
    ``triples`` and the phase-2 liveness ``live`` — the one
    assembler."""
    summaries: Dict[str, RoutineSummary] = {}
    cr_call, cr_label = psg.cr_call, psg.cr_label
    block_of = psg.node_block
    for name in names:
        routine_psg = psg.routines[name]
        entry_node = routine_psg.entry_node
        call_pairs = routine_psg.call_pairs
        # A routine's call-return edges are consecutive, in node order.
        edge = bisect_left(cr_call, call_pairs[0][0]) if call_pairs else 0

        exit_live: Dict[int, int] = {}
        exit_kinds: Dict[int, ExitKind] = {}
        for node_id, kind in routine_psg.exit_nodes:
            block = block_of[node_id]
            exit_live[block] = live[node_id]
            exit_kinds[block] = kind

        call_sites: List[CallSiteSummary] = []
        for label, (call_node, return_node, site) in zip(
            cr_label[edge:edge + len(call_pairs)], call_pairs
        ):
            # Positional (a keyword call costs ~0.3 µs, per call site):
            # site, used, defined, killed, live before, live after.
            call_sites.append(CallSiteSummary(
                site, label.may_use, label.must_def, label.may_def,
                live[call_node], live[return_node],
            ))

        may_use, may_def, must_def = triples[name]
        # Positional, as the sites: name, call-used, call-defined,
        # call-killed, live at entry, exits, exit kinds, sites, saved.
        summaries[name] = RoutineSummary(
            name, may_use, must_def, may_def, live[entry_node], exit_live,
            exit_kinds, call_sites, saved.get(name, 0),
        )
    return summaries


def _assemble_summaries(
    program: Program,
    cfgs: Mapping[str, ControlFlowGraph],
    saved_restored: Dict[str, int],
    psg: ProgramSummaryGraph,
    phase1: Phase1Result,
    phase2: Phase2Result,
) -> SummarySet:
    """Every routine's summary (:func:`region_summaries`), packed so
    that each body is encoded once for every writer (SUM1,
    ``summaries_crc64``, the sidecar).  ``cfgs`` is not read: it keeps
    the call shape of the stage replay in ``perf/workloads.py``."""
    names = [routine.name for routine in program]
    entry_triple = phase1.entry_triple
    summaries = region_summaries(
        psg, names, saved_restored,
        {name: entry_triple(psg, name) for name in names}, phase2.may_use,
    )
    return SummarySet(summaries=PackedMap.of(summaries, SUMMARY_BODIES))
