"""Dataflow foundations: register sets, local sets, and solvers.

* :mod:`repro.dataflow.regset` — immutable register sets backed by int
  bitmasks (the "bit vector" of classic dataflow); all analyses
  manipulate raw masks in their inner loops and expose
  :class:`RegisterSet` at API boundaries.
* :mod:`repro.dataflow.local` — per-basic-block DEF and UBD
  (used-before-defined) sets, the paper's "Initialization" stage.
* :mod:`repro.dataflow.solver` — the priority worklist of the PSG
  problems (phases and whole-CFG baseline).
* :mod:`repro.dataflow.equations` — the Figure-6 backward equations that
  label flow-summary edges (MAY-USE / MAY-DEF / MUST-DEF over a CFG
  subgraph).
* :mod:`repro.dataflow.liveness` — §2's conventional liveness: one
  backward solve over CFG rows, which the optimizer's passes run over
  registers (calls replaced by call-summary instructions) and frame
  slots.
"""

from repro.dataflow.regset import RegisterSet, EMPTY_SET, UNIVERSE
from repro.dataflow.local import LocalSets, compute_local_sets
from repro.dataflow.equations import SummaryTriple

__all__ = [
    "EMPTY_SET",
    "LocalSets",
    "RegisterSet",
    "SummaryTriple",
    "UNIVERSE",
    "compute_local_sets",
]
