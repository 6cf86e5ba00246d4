"""Interprocedural dataflow (§2, §3.2-§3.5).

The two-phase analysis over the Program Summary Graph:

* :mod:`repro.interproc.phase1` — call-used / call-defined /
  call-killed per routine (Figure 8), with callee-saved filtering
  (§3.4) and calling-standard assumptions at unknown call sites (§3.5);
* :mod:`repro.interproc.phase2` — live-at-entry / live-at-exit per
  routine (Figure 10), the precise meet-over-all-valid-paths solution;
* :mod:`repro.interproc.savedregs` — detection of the callee-saved
  registers a routine saves and restores;
* :mod:`repro.interproc.summaries` — the per-routine summary record the
  optimizer consumes;
* :mod:`repro.interproc.analysis` — the top-level driver, with the
  stage timing and memory accounting the paper's §4 reports;
* :mod:`repro.interproc.frontend` — the front-end product every path
  starts from (CFGs, call graph, condensation, routine fingerprints);
* :mod:`repro.interproc.incremental` — fingerprint-scoped incremental
  re-analysis over the call-graph SCC condensation, warm-started from
  a persisted :class:`~repro.interproc.persist.SummaryCache`;
* :mod:`repro.interproc.parallel` — the sharded parallel solver: the
  condensation partitioned into cost-balanced shards, solved on a
  worker pool callee-first (phase 1) then caller-first (phase 2), with
  results bit-identical to the serial driver at any worker count;
* :mod:`repro.interproc.baseline` — the whole-program-CFG analysis
  [Srivastava93] used as the comparison baseline and as a correctness
  oracle for the PSG path.
"""

from repro.interproc.summaries import (
    SummarySet,
    CallSiteSummary,
    RoutineSummary,
)
from repro.interproc.analysis import (
    AnalysisConfig,
    InterproceduralAnalysis,
    StageTimings,
)
from repro.interproc.savedregs import (
    SaveRestoreSites,
    find_save_restore_sites,
    saved_restored_registers,
)
from repro.interproc.baseline import analyze_program_baseline
from repro.interproc.errors import AnalysisError
from repro.interproc.frontend import routine_fingerprint
from repro.interproc.incremental import IncrementalAnalysis
from repro.interproc.parallel import (
    ParallelAnalysis,
    analyze_incremental_parallel,
    analyze_parallel,
)
from repro.interproc.persist import (
    SummaryCache,
    SummaryFormatError,
    dump_cache,
    dump_summaries,
    image_fingerprint,
    load_cache,
    load_summaries,
)

__all__ = [
    "AnalysisConfig",
    "AnalysisError",
    "SummarySet",
    "CallSiteSummary",
    "IncrementalAnalysis",
    "InterproceduralAnalysis",
    "ParallelAnalysis",
    "RoutineSummary",
    "SaveRestoreSites",
    "StageTimings",
    "SummaryCache",
    "SummaryFormatError",
    "analyze_incremental_parallel",
    "analyze_parallel",
    "analyze_program_baseline",
    "dump_cache",
    "dump_summaries",
    "find_save_restore_sites",
    "image_fingerprint",
    "load_cache",
    "load_summaries",
    "routine_fingerprint",
    "saved_restored_registers",
]
