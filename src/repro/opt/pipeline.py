"""The optimization pipeline: analyze, transform, re-analyze, verify.

Composes the Figure-1 passes in a sound order:

1. **realloc** — callee-saved → caller-saved renaming (changes what
   routines clobber, so it runs first, bottom-up over the call graph);
2. **spill** — spill removal around calls (consumes "not killed"
   facts, so the program is re-analyzed after realloc);
3. **dce** — interprocedural dead-code elimination (cleans up whatever
   the other passes expose);
4. **deadstore** — frame-store elimination (removes saves whose
   restores the earlier passes deleted).

The program is re-analyzed before every pass, every edit batch goes
through the binary rewriter (displacement/jump-table fix-ups included),
and :func:`optimize_program` optionally executes the original and the
optimized programs to verify observable behaviour is unchanged and to
measure the dynamic-instruction improvement (the §1 "5%-10%" claim).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import Ledger
from repro.reporting.metrics import RunMetrics
from repro.program.model import Program
from repro.program.rewrite import Edits, apply_edits
from repro.interproc.analysis import (
    AnalysisConfig,
    InterproceduralAnalysis,
    _analyze_program,
)
from repro.interproc.frontend import build_frontend
from repro.opt.dce import eliminate_dead_code
from repro.opt.deadstore import eliminate_dead_stores
from repro.opt.realloc import reallocate_callee_saved
from repro.opt.spill import remove_call_spills
from repro.sim.interpreter import ExecutionError, ExecutionResult, run_program

PASS_NAMES = ("realloc", "spill", "dce", "deadstore")


@dataclass
class OptimizationReport:
    """What one pass did."""

    name: str
    routines_changed: int
    instructions_deleted: int
    instructions_rewritten: int

    @property
    def total_edits(self) -> int:
        return self.instructions_deleted + self.instructions_rewritten


@dataclass
class OptimizationResult:
    """Original and optimized programs plus per-pass accounting;
    ``metrics.ledger`` counts the run's work, its analyses' included."""

    original: Program
    optimized: Program
    reports: List[OptimizationReport] = field(default_factory=list)
    metrics: RunMetrics = field(default_factory=RunMetrics)
    baseline_run: Optional[ExecutionResult] = None
    optimized_run: Optional[ExecutionResult] = None

    @property
    def instructions_removed(self) -> int:
        return self.original.instruction_count - self.optimized.instruction_count

    @property
    def dynamic_improvement(self) -> float:
        """Fractional reduction in executed instructions (0.07 = 7%)."""
        if self.baseline_run is None or self.optimized_run is None:
            raise ValueError("optimize_program(..., verify=True) required")
        before = self.baseline_run.steps
        after = self.optimized_run.steps
        if before == 0:
            return 0.0
        return (before - after) / before

    def behaviour_preserved(self) -> bool:
        """True when both runs produced the same observable behaviour."""
        if self.baseline_run is None or self.optimized_run is None:
            raise ValueError("optimize_program(..., verify=True) required")
        return self.baseline_run.observable == self.optimized_run.observable


def _edit_counts(edits: Edits) -> Tuple[int, int, int]:
    routines = 0
    deleted = 0
    rewritten = 0
    for routine_edits in edits.values():
        if not routine_edits:
            continue
        routines += 1
        for replacement in routine_edits.values():
            if replacement is None:
                deleted += 1
            else:
                rewritten += 1
    return routines, deleted, rewritten


def _run_realloc(analysis: InterproceduralAnalysis) -> Edits:
    return reallocate_callee_saved(
        analysis.call_graph, analysis.result, analysis.config.convention
    )


def _run_spill(analysis: InterproceduralAnalysis) -> Edits:
    edits: Edits = {}
    for name, cfg in analysis.cfgs.items():
        routine_edits = remove_call_spills(cfg, analysis.summary(name))
        if routine_edits:
            edits[name] = routine_edits
    return edits


def _run_dce(analysis: InterproceduralAnalysis) -> Edits:
    edits: Edits = {}
    for name, cfg in analysis.cfgs.items():
        routine_edits = eliminate_dead_code(cfg, analysis.summary(name))
        if routine_edits:
            edits[name] = routine_edits
    return edits


def _run_deadstore(analysis: InterproceduralAnalysis) -> Edits:
    edits: Edits = {}
    for name, cfg in analysis.cfgs.items():
        routine_edits = eliminate_dead_stores(cfg, analysis.summary(name))
        if routine_edits:
            edits[name] = routine_edits
    return edits


_PASSES: Dict[str, Callable[[InterproceduralAnalysis], Edits]] = {
    "realloc": _run_realloc,
    "spill": _run_spill,
    "dce": _run_dce,
    "deadstore": _run_deadstore,
}


def _optimize_program(
    program: Program,
    passes: Sequence[str] = PASS_NAMES,
    config: Optional[AnalysisConfig] = None,
    verify: bool = False,
    max_steps: int = 5_000_000,
) -> OptimizationResult:
    """Run the pipeline; optionally verify behaviour by execution.

    Under ``verify`` a run that faults, or an optimized run whose
    observable behaviour differs, raises :class:`ExecutionError`.
    """
    for name in passes:
        if name not in _PASSES:
            raise ValueError(f"unknown pass {name!r}; known: {sorted(_PASSES)}")

    current = program
    reports: List[OptimizationReport] = []
    with Ledger() as ledger:
        for name in passes:
            # The passes read the CFGs the analysis walked: a front end
            # passed in is the pipeline's, and keeps its rows.
            analysis = _analyze_program(current, config, build_frontend(current))
            edits = _PASSES[name](analysis)
            routines, deleted, rewritten = _edit_counts(edits)
            reports.append(
                OptimizationReport(
                    name=name,
                    routines_changed=routines,
                    instructions_deleted=deleted,
                    instructions_rewritten=rewritten,
                )
            )
            if edits:
                current = apply_edits(current, edits)
        result = OptimizationResult(
            original=program, optimized=current, reports=reports,
            metrics=RunMetrics(ledger, routines_total=program.routine_count),
        )
        if verify:
            result.baseline_run = run_program(program, max_steps=max_steps)
            result.optimized_run = run_program(current, max_steps=max_steps)
            if not result.behaviour_preserved():
                raise ExecutionError(
                    "optimization changed observable behaviour: "
                    f"{result.baseline_run.observable} != "
                    f"{result.optimized_run.observable}"
                )
    return result


