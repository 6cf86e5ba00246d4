"""The per-run metrics of an analysis: one stage clock, and work counts
read from the run's ledger.

The paper breaks total analysis time into five stages (§4, Figure 13):
CFG Build, Initialization (DEF/UBD generation), PSG Build, Phase 1 and
Phase 2; the incremental engine also times fingerprinting and summary
assembly.  :class:`RunMetrics` times them with a monotonic clock, and
every work count it reports — routines solved, reused and adopted per
phase, worklist iterations, CFGs built, a query's cone sizes — is read
from the run's :class:`~repro.obs.metrics.Ledger`, so ``--stats``, the
schema-1 payload and the registry counter for the same event are one
number.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.obs.metrics import Ledger
from repro.obs.tracer import span as _obs_span

#: Stage names, in pipeline order.  A whole-program run times the
#: paper's five (the Figure-13 legend); ``fingerprint`` and ``assemble``
#: are the incremental engine's own.
STAGE_NAMES = (
    "cfg_build",
    "fingerprint",
    "initialization",
    "psg_build",
    "phase1",
    "phase2",
    "assemble",
)


def _counted(name: str, phase: Optional[str] = None) -> property:
    """A read-only field: the run ledger's ``name{phase=}`` counter."""
    labels = {} if phase is None else {"phase": phase}
    return property(lambda self: int(self.ledger.value(name, **labels)))


@dataclass
class RunMetrics:
    """What one run did, and how long each stage took.

    ``phaseN_solved`` counts routines whose phase-N answer was
    recomputed this run, ``phaseN_reused`` those whose cached answer
    was kept and ``phaseN_store_hits`` those adopted from the
    cross-image summary store (:mod:`repro.interproc.store`); on a warm
    run the three sum to ``routines_total`` per phase, on a query to
    the cone size (routines outside the cones are never examined).
    """

    #: The run's own counters (opened by the run's entry point).
    ledger: Ledger = field(default_factory=Ledger)
    routines_total: int = 0
    #: Routines whose content fingerprint changed (or that are new).
    dirty_routines: List[str] = field(default_factory=list)
    cold: bool = False
    #: A query's routine, and the SCC-condensation components in its
    #: phase-1 (callee) and phase-2 (caller) cones.
    routine: str = ""
    phase1_cone_components: int = 0
    phase2_cone_components: int = 0
    #: stage name -> wall seconds, for the stages that ran (keys from
    #: :data:`STAGE_NAMES`).
    seconds: Dict[str, float] = field(default_factory=dict)

    phase1_solved = _counted("engine.solved", "phase1")
    phase2_solved = _counted("engine.solved", "phase2")
    phase1_reused = _counted("engine.reused", "phase1")
    phase2_reused = _counted("engine.reused", "phase2")
    phase1_store_hits = _counted("engine.adopted", "phase1")
    phase2_store_hits = _counted("engine.adopted", "phase2")
    phase1_sccs_solved = _counted("engine.sccs_solved", "phase1")
    phase2_sccs_solved = _counted("engine.sccs_solved", "phase2")
    phase1_iterations = _counted("solver.iterations", "phase1")
    phase2_iterations = _counted("solver.iterations", "phase2")
    #: CFGs this run walked: every routine on a cold run; on a warm one
    #: only those whose front-end record did not apply plus those a
    #: re-solved component needed.
    cfgs_built = _counted("frontend.rows")
    phase1_cone_routines = _counted("query.cone_routines", "phase1")
    phase2_cone_routines = _counted("query.cone_routines", "phase2")

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
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed

    @property
    def total_seconds(self) -> float:
        """Total analysis time (the Table-2 column)."""
        return sum(self.seconds.values())

    def stage_seconds(self) -> Dict[str, float]:
        """Seconds per stage that ran, in pipeline order, plus ``total``."""
        result = {
            name: self.seconds[name] for name in STAGE_NAMES
            if name in self.seconds
        }
        result["total"] = self.total_seconds
        return result

    def fractions(self) -> Dict[str, float]:
        """Per-stage fraction of total time (the Figure-13 bars)."""
        total = self.total_seconds
        return {
            name: seconds / total if total > 0 else 0.0
            for name, seconds in self.stage_seconds().items()
            if name != "total"
        }

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form of an incremental run's or a query's work."""
        payload: Dict[str, object] = {
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
        if self.routine:
            payload.update(
                routine=self.routine,
                phase1_cone_components=self.phase1_cone_components,
                phase2_cone_components=self.phase2_cone_components,
                phase1_cone_routines=self.phase1_cone_routines,
                phase2_cone_routines=self.phase2_cone_routines,
            )
        return payload

    def render(self) -> str:
        """The human-readable ``--stats`` block of an incremental run or
        a query."""
        lines = []
        if self.routine:
            lines += [
                f"routine:            {self.routine}",
                f"cone (phase1):      {self.phase1_cone_routines} routines in "
                f"{self.phase1_cone_components} components",
                f"cone (phase2):      {self.phase2_cone_routines} routines in "
                f"{self.phase2_cone_components} components",
            ]
        dirty = self.dirty_routines
        lines += [
            f"mode:               {'cold' if self.cold else 'warm'}",
            f"routines:           {self.routines_total}",
            f"dirty routines:     {len(dirty)}"
            + (
                f"  ({', '.join(dirty[:8])}"
                + (", ..." if len(dirty) > 8 else "")
                + ")"
                if dirty
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
        ]
        if self.phase1_store_hits or self.phase2_store_hits:
            lines.append(
                f"store hits:         phase1 {self.phase1_store_hits}, "
                f"phase2 {self.phase2_store_hits}"
            )
        lines.append(f"total time:         {self.total_seconds:.3f} s")
        for name in STAGE_NAMES:
            if name in self.seconds:
                lines.append(f"  {name:<16}{self.seconds[name]:.3f} s")
        return "\n".join(lines)
