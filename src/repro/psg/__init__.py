"""The Program Summary Graph (§3.1, §3.6).

The PSG is the paper's compact representation of a program's intra- and
interprocedural control flow:

* one **entry node** per routine entrance, one **exit node** per exit,
  and a **call node** / **return node** pair per call instruction
  (§3.1), plus optional **branch nodes** at multiway branches (§3.6);
* **flow-summary edges** connecting nodes with a control-flow path
  between their locations, labeled with the MAY-USE / MAY-DEF /
  MUST-DEF sets of the paths they stand for (computed by the Figure-6
  equations over per-edge CFG subgraphs);
* **call-return edges** connecting each call node to its return node,
  whose labels are filled in by phase 1 with the callee's summary.
"""

from repro.psg.nodes import NodeKind
from repro.psg.graph import ProgramSummaryGraph, RoutinePSG
from repro.psg.build import PsgConfig, build_psg, build_routine_psg

__all__ = [
    "NodeKind",
    "ProgramSummaryGraph",
    "PsgConfig",
    "RoutinePSG",
    "build_psg",
    "build_routine_psg",
]
