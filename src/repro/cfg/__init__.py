"""Control-flow graphs over decoded routines.

* :mod:`repro.cfg.cfg` — the per-routine CFG: flat block rows (blocks
  ended by branches *and* by call instructions, as the paper assumes),
  arcs, per-block DEF/UBD masks, call sites and typed exits;
* :mod:`repro.cfg.build` — one walk per routine from instructions to
  rows: leader analysis, jump-table-driven multiway branches, per-block
  DEF/UBD masks, resolution of indirect-call targets by backward
  constant tracking and the §3.4 save/restore pattern;
* :mod:`repro.cfg.callgraph` — the interprocedural call graph plus the
  escape analysis that decides which routines may be called from
  unknown call sites.
"""

from repro.cfg.cfg import (
    CallSite,
    CfgError,
    ControlFlowGraph,
    ExitKind,
    TerminatorKind,
)
from repro.cfg.build import (
    build_all_cfgs,
    build_cfg,
    resolve_register_constant,
)
from repro.cfg.callgraph import CallGraph, build_call_graph

__all__ = [
    "CallGraph",
    "CallSite",
    "CfgError",
    "ControlFlowGraph",
    "ExitKind",
    "TerminatorKind",
    "build_all_cfgs",
    "build_call_graph",
    "build_cfg",
    "resolve_register_constant",
]
