"""PSG node and edge types.

Nodes carry *where* they are (routine + basic block); all dataflow
state lives in the analysis engines so a PSG can be reused across
phases and configurations.  A built graph holds nodes as rows and
flow-summary edges in its arena.  Call-return edges are labeled
during phase 1 (the callee's entry sets are copied onto them) and
those labels are retained for phase 2, exactly as in the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.dataflow.equations import SummaryTriple


class NodeKind(enum.IntEnum):
    """The PSG node types of §3.1 and §3.6."""

    ENTRY = 0
    EXIT = 1
    CALL = 2
    RETURN = 3
    BRANCH = 4


@dataclass(slots=True)
class CallReturnEdge:
    """A call-return edge; ``label`` is written by phase 1.

    ``callees`` lists the routines the call can reach: one name for a
    resolved call, several for a hinted indirect call (the edge label
    is the MAY-union / MUST-intersection of their entry summaries), and
    empty for an unknown target, in which case the §3.5
    calling-standard label is fixed at construction.
    """

    src: int
    dst: int
    callees: Tuple[str, ...]
    label: SummaryTriple = field(default_factory=SummaryTriple)

    @property
    def callee(self) -> Optional[str]:
        """The unique callee, when there is exactly one."""
        return self.callees[0] if len(self.callees) == 1 else None

    @property
    def is_unknown(self) -> bool:
        return not self.callees
