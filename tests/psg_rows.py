"""Hand-built PSG nodes and call-return edges: one node's entry in each
of the node rows a :class:`~repro.psg.build.PsgAssembly` holds
(``node_kind``, ``node_routine``, ``node_block``, ``node_detail``), one
edge's in each of its ``cr_*`` columns.

The engine and ``check()`` tests build their graphs node by node through
:func:`add_node` and :func:`add_call_return`; production writes the rows
a routine at a time.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cfg.cfg import CallSite, ExitKind
from repro.dataflow.equations import SummaryTriple
from repro.psg.build import PsgAssembly
from repro.psg.nodes import NodeKind


def add_node(
    assembly: PsgAssembly,
    kind: NodeKind,
    routine: str,
    block: int = 0,
    exit_kind: Optional[ExitKind] = None,
    call_site: Optional[CallSite] = None,
) -> int:
    """Append one node to ``assembly``'s rows; returns its id.  Its
    detail is ``exit_kind`` or ``call_site``, whichever is given."""
    assembly.node_kind.append(kind)
    assembly.node_routine.append(routine)
    assembly.node_block.append(block)
    assembly.node_detail.append(call_site if exit_kind is None else exit_kind)
    return len(assembly.node_kind) - 1


def add_call_return(
    assembly: PsgAssembly,
    call: int,
    ret: int,
    callees: Tuple[str, ...],
    label: SummaryTriple = SummaryTriple(),
) -> None:
    """Append one call-return edge to ``assembly``'s columns."""
    assembly.cr_call.append(call)
    assembly.cr_return.append(ret)
    assembly.cr_targets.append(callees)
    assembly.cr_label.append(label)
