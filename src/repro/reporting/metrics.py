"""Stage timing and incremental-analysis metrics.

The paper breaks total analysis time into five stages: CFG Build,
Initialization (DEF/UBD generation), PSG Build, Phase 1 and Phase 2.
:class:`StageTimer` measures them with a monotonic clock and
:class:`StageTimings` carries the results.

:class:`IncrementalMetrics` instruments the incremental re-analysis
engine (:mod:`repro.interproc.incremental`): routines re-solved versus
reused per phase, SCCs solved, worklist iterations, and per-stage wall
time — the numbers ``spike-analyze analyze --incremental --stats``
prints and the warm/cold benchmarks report.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from repro.obs.tracer import span as _obs_span

#: Stage names, in pipeline order (the Figure-13 legend).
STAGE_NAMES = ("cfg_build", "initialization", "psg_build", "phase1", "phase2")


@dataclass
class StageTimings:
    """Seconds spent in each stage of one analysis run."""

    cfg_build: float = 0.0
    initialization: float = 0.0
    psg_build: float = 0.0
    phase1: float = 0.0
    phase2: float = 0.0

    @property
    def total(self) -> float:
        """Total dataflow analysis time (the Table-2 column)."""
        return (
            self.cfg_build
            + self.initialization
            + self.psg_build
            + self.phase1
            + self.phase2
        )

    def fractions(self) -> Dict[str, float]:
        """Per-stage fraction of total time (the Figure-13 bars)."""
        total = self.total
        if total <= 0:
            return {name: 0.0 for name in STAGE_NAMES}
        return {name: getattr(self, name) / total for name in STAGE_NAMES}

    def as_dict(self) -> Dict[str, float]:
        result = {name: getattr(self, name) for name in STAGE_NAMES}
        result["total"] = self.total
        return result


@dataclass
class StageTimer:
    """Accumulates wall-clock time into a :class:`StageTimings`."""

    timings: StageTimings = field(default_factory=StageTimings)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a ``with`` block under stage ``name``.

        Every timed stage also opens an obs span of the same name, so
        ``--trace`` gets the Figure-13 stage breakdown for free.
        """
        if name not in STAGE_NAMES:
            raise ValueError(f"unknown stage {name!r}")
        start = time.perf_counter()
        try:
            with _obs_span(name, kind="stage"):
                yield
        finally:
            elapsed = time.perf_counter() - start
            setattr(self.timings, name, getattr(self.timings, name) + elapsed)


#: Incremental stage names, in pipeline order (superset of the paper's
#: five: fingerprinting and summary assembly are incremental-only).
INCREMENTAL_STAGES = (
    "cfg_build",
    "fingerprint",
    "initialization",
    "psg_build",
    "phase1",
    "phase2",
    "assemble",
)


@dataclass
class IncrementalMetrics:
    """What one incremental analysis run did, and how long it took.

    ``phaseN_solved`` counts routines whose phase-N answer was
    recomputed this run; ``phaseN_reused`` counts routines whose
    cached answer was kept.  ``solved + reused == routines_total`` per
    phase on a warm run.
    """

    routines_total: int = 0
    #: Routines whose content fingerprint changed (or that are new).
    dirty_routines: List[str] = field(default_factory=list)
    cold: bool = False
    phase1_solved: int = 0
    phase1_reused: int = 0
    phase2_solved: int = 0
    phase2_reused: int = 0
    phase1_sccs_solved: int = 0
    phase2_sccs_solved: int = 0
    phase1_iterations: int = 0
    phase2_iterations: int = 0
    #: Routines whose phase-N answer was adopted from the cross-image
    #: summary store (:mod:`repro.interproc.store`) instead of being
    #: solved or reused from the per-image cache.
    phase1_store_hits: int = 0
    phase2_store_hits: int = 0
    #: CFGs this run built in this process: every routine on a cold
    #: run; on a warm one only those whose front-end record did not
    #: apply plus those a re-solved component needed.
    cfgs_built: int = 0
    #: stage name -> wall seconds (keys from :data:`INCREMENTAL_STAGES`).
    seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a ``with`` block under incremental stage ``name``."""
        if name not in INCREMENTAL_STAGES:
            raise ValueError(f"unknown incremental stage {name!r}")
        start = time.perf_counter()
        try:
            with _obs_span(name, kind="stage", incremental=True):
                yield
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form of the incremental work metrics."""
        return {
            "mode": "cold" if self.cold else "warm",
            "routines_total": self.routines_total,
            "dirty_routines": list(self.dirty_routines),
            "phase1_solved": self.phase1_solved,
            "phase1_reused": self.phase1_reused,
            "phase2_solved": self.phase2_solved,
            "phase2_reused": self.phase2_reused,
            "phase1_sccs_solved": self.phase1_sccs_solved,
            "phase2_sccs_solved": self.phase2_sccs_solved,
            "phase1_iterations": self.phase1_iterations,
            "phase2_iterations": self.phase2_iterations,
            "phase1_store_hits": self.phase1_store_hits,
            "phase2_store_hits": self.phase2_store_hits,
            "cfgs_built": self.cfgs_built,
            "seconds": dict(self.seconds),
            "total_seconds": self.total_seconds,
        }

    def render(self) -> str:
        """The human-readable ``--stats`` block."""
        lines = [
            f"mode:               {'cold' if self.cold else 'warm'}",
            f"routines:           {self.routines_total}",
            f"dirty routines:     {len(self.dirty_routines)}"
            + (
                f"  ({', '.join(self.dirty_routines[:8])}"
                + (", ..." if len(self.dirty_routines) > 8 else "")
                + ")"
                if self.dirty_routines
                else ""
            ),
            f"phase1 solved:      {self.phase1_solved}  "
            f"(reused {self.phase1_reused}, "
            f"{self.phase1_sccs_solved} SCCs, "
            f"{self.phase1_iterations} iterations)",
            f"phase2 solved:      {self.phase2_solved}  "
            f"(reused {self.phase2_reused}, "
            f"{self.phase2_sccs_solved} SCCs, "
            f"{self.phase2_iterations} iterations)",
            f"cfgs built:         {self.cfgs_built}",
            f"total time:         {self.total_seconds:.3f} s",
        ]
        if self.phase1_store_hits or self.phase2_store_hits:
            lines.insert(
                -1,
                f"store hits:         phase1 {self.phase1_store_hits}, "
                f"phase2 {self.phase2_store_hits}",
            )
        for name in INCREMENTAL_STAGES:
            if name in self.seconds:
                lines.append(f"  {name:<16}{self.seconds[name]:.3f} s")
        return "\n".join(lines)


@dataclass
class QueryMetrics(IncrementalMetrics):
    """What one demand-driven query did (:mod:`repro.interproc.demand`).

    Extends :class:`IncrementalMetrics` — a query *is* a scoped warm
    run — with the queried routine and the size of the two dependency
    cones it was restricted to.  ``phaseN_solved + phaseN_reused`` sums
    to the cone size, not ``routines_total``: routines outside the
    cones are never examined at all.
    """

    routine: str = ""
    #: SCC-condensation components in the phase-1 (callee) cone.
    phase1_cone_components: int = 0
    #: Components in the phase-2 (caller) cone.
    phase2_cone_components: int = 0
    #: Routines in the phase-1 cone.
    phase1_cone_routines: int = 0
    #: Routines in the phase-2 cone.
    phase2_cone_routines: int = 0

    def as_dict(self) -> Dict[str, object]:
        payload = super().as_dict()
        payload.update(
            routine=self.routine,
            phase1_cone_components=self.phase1_cone_components,
            phase2_cone_components=self.phase2_cone_components,
            phase1_cone_routines=self.phase1_cone_routines,
            phase2_cone_routines=self.phase2_cone_routines,
        )
        return payload

    def render(self) -> str:
        lines = [
            f"routine:            {self.routine}",
            f"cone (phase1):      {self.phase1_cone_routines} routines in "
            f"{self.phase1_cone_components} components",
            f"cone (phase2):      {self.phase2_cone_routines} routines in "
            f"{self.phase2_cone_components} components",
        ]
        return "\n".join(lines) + "\n" + super().render()
