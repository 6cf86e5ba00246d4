"""PSG node and edge types.

Nodes carry *where* they are (routine + basic block); all dataflow
state lives in the analysis engines so a PSG can be reused across
phases and configurations.  A built graph holds nodes as rows and
flow-summary edges in its arena; :class:`PSGNode` and :class:`FlowEdge`
are what it materialises on request (unfrozen: a frozen dataclass pays
an ``object.__setattr__`` per field).  Call-return edges are labeled
during phase 1 (the callee's entry sets are copied onto them) and
those labels are retained for phase 2, exactly as in the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.cfg.cfg import CallSite, ExitKind
from repro.dataflow.equations import SummaryTriple


class NodeKind(enum.IntEnum):
    """The PSG node types of §3.1 and §3.6."""

    ENTRY = 0
    EXIT = 1
    CALL = 2
    RETURN = 3
    BRANCH = 4


@dataclass
class PSGNode:
    """One PSG node.

    ``block`` is the basic-block index the node's program location
    belongs to: the entry block for ENTRY, the exit block for EXIT, the
    call-ending block for CALL *and* RETURN (the return node's paths
    start at that block's successors), and the multiway-branch block
    for BRANCH.  ``ProgramSummaryGraph.check`` enforces that an EXIT
    carries its ``exit_kind`` and a CALL or RETURN its ``call_site``.
    """

    id: int
    kind: NodeKind
    routine: str
    block: int
    exit_kind: Optional[ExitKind] = None
    call_site: Optional[CallSite] = None

    def describe(self) -> str:
        """A short human-readable identity, e.g. ``call@main:3``."""
        return f"{self.kind.name.lower()}@{self.routine}:{self.block}"


@dataclass
class FlowEdge:
    """A flow-summary edge with its Figure-6 label."""

    src: int
    dst: int
    label: SummaryTriple


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
