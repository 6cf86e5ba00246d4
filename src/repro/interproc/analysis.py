"""The top-level interprocedural dataflow driver.

Runs the five-stage pipeline the paper times in §4:

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

The result bundles the per-routine summaries with the structures and
measurements every experiment in the paper reports: PSG/CFG sizes,
per-stage times, and model-based memory usage.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.isa.calling_convention import CallingConvention, NT_ALPHA
from repro.program.image import ExecutableImage
from repro.program.model import Program
from repro.program.disasm import disassemble_image
from repro.cfg.callgraph import CallGraph
from repro.cfg.cfg import ControlFlowGraph
from repro.dataflow.regset import mask_of
from repro.psg.build import PsgConfig, build_psg
from repro.psg.graph import ProgramSummaryGraph
from repro.interproc.frontend import Frontend, build_frontend
from repro.interproc.persist import SUMMARY_BODIES, PackedMap
from repro.interproc.phase1 import Phase1Result, run_phase1
from repro.interproc.phase2 import Phase2Result, run_phase2
from repro.interproc.store import publish_result
from repro.interproc.summaries import (
    SummarySet,
    CallSiteSummary,
    RoutineSummary,
)
from repro.obs.metrics import REGISTRY
from repro.reporting.memory import MemoryModel, psg_analysis_memory
from repro.reporting.metrics import StageTimer, StageTimings

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AnalysisConfig:
    """Options for one analysis run."""

    psg: PsgConfig = field(default_factory=PsgConfig)
    convention: CallingConvention = field(default_factory=lambda: NT_ALPHA)
    memory_model: MemoryModel = field(default_factory=MemoryModel)
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
    # A class constant, not a field: read only by the frozen stage
    # replay in perf/workloads.py; re-pointing that replay deletes it.
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
    """Everything produced by one analysis run.

    ``result`` holds the per-routine summaries; the remaining fields
    expose the intermediate structures (CFGs, call graph, PSG, raw
    phase solutions) and the §4 measurements (timings, memory).
    """

    config: AnalysisConfig
    frontend: Frontend
    saved_restored: Dict[str, int]
    psg: ProgramSummaryGraph
    phase1: Phase1Result
    phase2: Phase2Result
    result: SummarySet
    timings: StageTimings
    memory_bytes: int

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

    #: Result-protocol kind tag (see :mod:`repro.interproc.results`).
    kind = "serial"

    def summary(self, routine: str) -> RoutineSummary:
        return self.result.summaries[routine]

    def stats(self) -> Dict[str, object]:
        """Kind-specific stats: stage timings and structure sizes."""
        return {
            "stage_seconds": self.timings.as_dict(),
            "memory_bytes": self.memory_bytes,
            "psg_nodes": self.psg.node_count,
            "psg_edges": self.psg.edge_count,
        }

    def to_json(self, counters=None, include_summaries: bool = False):
        """The versioned (schema 1) result payload; see
        :mod:`repro.interproc.results`."""
        from repro.interproc.results import build_payload

        return build_payload(self, counters, include_summaries)

    def describe(self) -> str:
        """The human-readable stats block (the CLI text output)."""
        lines = [
            f"basic blocks:  {self.basic_block_count}",
            f"cfg arcs:      {self.cfg_arc_count}",
            f"psg nodes:     {self.psg.node_count}",
            f"psg edges:     {self.psg.edge_count}",
            f"memory model:  {self.memory_bytes / 1e6:.2f} MB",
            f"total time:    {self.timings.total:.3f} s",
        ]
        for stage, fraction in self.timings.fractions().items():
            lines.append(
                f"  {stage:<16}{getattr(self.timings, stage):.3f} s  "
                f"({fraction:5.1%})"
            )
        return "\n".join(lines)

    @property
    def basic_block_count(self) -> int:
        return sum(cfg.block_count for cfg in self.cfgs.values())

    @property
    def cfg_arc_count(self) -> int:
        """Intraprocedural arcs plus one call and one return arc per
        resolved call site (the Table-5 "CFG Arcs" definition)."""
        intra = sum(cfg.arc_count for cfg in self.cfgs.values())
        calls = sum(len(cfg.call_sites) for cfg in self.cfgs.values())
        return intra + 2 * calls


def _analyze_program(
    program: Program,
    config: Optional[AnalysisConfig] = None,
    frontend: Optional[Frontend] = None,
) -> InterproceduralAnalysis:
    """Run the full pipeline on an already-decoded program (over
    ``frontend`` when the caller already has the program's)."""
    config = config or AnalysisConfig()
    timer = StageTimer()

    with timer.stage("cfg_build"):
        if frontend is None:
            frontend = build_frontend(program)
        # The whole-program PSG needs every routine's CFG; a front end
        # that came from records walks the remainder here.
        cfgs = [frontend.cfgs[routine.name] for routine in program]
    call_graph = frontend.call_graph
    REGISTRY.inc("frontend.routines", len(cfgs))

    with timer.stage("initialization"):
        keep = callee_saved_filter(config)
        saved_restored = {cfg.name: cfg.saved & keep for cfg in cfgs}

    with timer.stage("psg_build"):
        psg = build_psg(program, frontend.cfgs, config=config.psg)

    preserved = mask_of(
        {config.convention.stack_pointer, config.convention.global_pointer}
    )
    callee_first = call_graph.reverse_topological_order()
    phase1_order = node_seed_order(psg, callee_first)
    with timer.stage("phase1"):
        phase1 = run_phase1(psg, saved_restored, preserved, phase1_order)

    caller_first = list(reversed(callee_first))
    phase2_order = node_seed_order(psg, caller_first)
    with timer.stage("phase2"):
        phase2 = run_phase2(
            psg,
            call_graph.externally_callable,
            config.convention,
            phase2_order,
        )

    result = _assemble_summaries(
        program, frontend.cfgs, saved_restored, psg, phase1, phase2
    )
    # Publish-only: the plain serial pipeline never consults the store,
    # so its own behavior (and every exact-work assertion built on it)
    # is untouched.  Store-accelerated solves go through the incremental
    # engine (:mod:`repro.interproc.incremental`).
    publish_result(frontend, config, result)
    memory = psg_analysis_memory(
        psg,
        sum(cfg.block_count for cfg in cfgs),
        sum(cfg.arc_count for cfg in cfgs),
        config.memory_model,
    )
    return InterproceduralAnalysis(
        config=config,
        frontend=frontend,
        saved_restored=saved_restored,
        psg=psg,
        phase1=phase1,
        phase2=phase2,
        result=result,
        timings=timer.timings,
        memory_bytes=memory,
    )


def _analyze_image(
    image: ExecutableImage, config: Optional[AnalysisConfig] = None
) -> InterproceduralAnalysis:
    """Decode an executable image and analyze it.

    Decoding time is charged to the CFG Build stage, as in the paper
    (Spike's CFG construction starts from machine code).
    """
    timer = StageTimer()
    with timer.stage("cfg_build"):
        program = disassemble_image(image)
    analysis = _analyze_program(program, config)
    analysis.timings.cfg_build += timer.timings.cfg_build
    return analysis


def node_seed_order(
    psg: ProgramSummaryGraph, routine_order: Sequence[str]
) -> List[int]:
    """Seed order: routines in ``routine_order``, and within each
    routine the nodes in reverse creation order (targets tend to be
    created after the entry, so reversing processes them first, which
    suits backward propagation).

    Shared by the whole-program driver and the incremental engine (over
    a partial PSG's members) — identical seeding is part of keeping
    every execution mode deterministic.
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


def _assemble_summaries(
    program: Program,
    cfgs: Mapping[str, ControlFlowGraph],
    saved_restored: Dict[str, int],
    psg: ProgramSummaryGraph,
    phase1: Phase1Result,
    phase2: Phase2Result,
) -> SummarySet:
    """Every routine's summary, read off the PSG and the two phase
    solutions, packed so that each body is encoded once for every
    writer (SUM1, ``summaries_crc64``, the sidecar).  ``cfgs`` is not
    read: it keeps the call shape of the stage replay in
    ``perf/workloads.py``."""
    summaries: Dict[str, RoutineSummary] = {}
    label_of = {edge.src: edge.label for edge in psg.call_return_edges}
    block_of, live = psg.node_block, phase2.may_use
    for routine in program:
        name = routine.name
        routine_psg = psg.routines[name]
        entry_node = routine_psg.entry_node

        exit_live: Dict[int, int] = {}
        exit_kinds: Dict[int, object] = {}
        for node_id, kind in routine_psg.exit_nodes:
            block = block_of[node_id]
            exit_live[block] = live[node_id]
            exit_kinds[block] = kind

        call_sites: List[CallSiteSummary] = []
        for call_node, return_node, site in routine_psg.call_pairs:
            label = label_of[call_node]
            # Positional (a keyword call costs ~0.3 µs, per call site):
            # site, used, defined, killed, live before, live after.
            call_sites.append(CallSiteSummary(
                site, label.may_use, label.must_def, label.may_def,
                live[call_node], live[return_node],
            ))

        summaries[name] = RoutineSummary(
            name=name,
            call_used_mask=phase1.may_use[entry_node],
            call_defined_mask=phase1.must_def[entry_node],
            call_killed_mask=phase1.may_def[entry_node],
            live_at_entry_mask=live[entry_node],
            exit_live_masks=exit_live,
            exit_kinds=exit_kinds,  # type: ignore[arg-type]
            call_sites=call_sites,
            saved_restored_mask=saved_restored.get(name, 0),
        )
    return SummarySet(summaries=PackedMap.of(summaries, SUMMARY_BODIES))
