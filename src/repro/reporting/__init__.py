"""Measurement and presentation helpers for the §4 experiments.

* :mod:`repro.reporting.metrics` — a run's metrics: the stage clock
  matching Figure 13's breakdown (CFG Build / Initialization / PSG
  Build / Phase 1 / Phase 2) and the work counts of its ledger;
* :mod:`repro.reporting.memory` — the explicit memory model used to
  report "Memory Usage" in Table 2 and Figure 15 (set/node/edge byte
  costs, mirroring the paper's own accounting discussion);
* :mod:`repro.reporting.tables` — text renderers that print results in
  the shape of the paper's tables.
"""

from repro.reporting.metrics import RunMetrics
from repro.reporting.memory import (
    MemoryModel,
    cfg_analysis_memory,
    psg_analysis_memory,
)
from repro.reporting.tables import format_table, format_markdown_table
from repro.reporting.dot import cfg_to_dot, psg_to_dot
from repro.reporting.annotate import render_annotated_listing

__all__ = [
    "MemoryModel",
    "render_annotated_listing",
    "RunMetrics",
    "cfg_analysis_memory",
    "cfg_to_dot",
    "format_markdown_table",
    "format_table",
    "psg_analysis_memory",
    "psg_to_dot",
]
