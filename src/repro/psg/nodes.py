"""PSG node types.

Nodes carry *where* they are (routine + basic block); all dataflow
state lives in the analysis engines so a PSG can be reused across
phases and configurations.  A built graph holds nodes as rows,
flow-summary edges in its arena and call-return edges as its ``cr_*``
columns (:class:`repro.psg.graph.ProgramSummaryGraph`).  Call-return
edges are labeled during phase 1 (the callee's entry sets are copied
onto them) and those labels are retained for phase 2, exactly as in
the paper.
"""

from __future__ import annotations

import enum


class NodeKind(enum.IntEnum):
    """The PSG node types of §3.1 and §3.6."""

    ENTRY = 0
    EXIT = 1
    CALL = 2
    RETURN = 3
    BRANCH = 4
