"""Graphviz DOT export for CFGs and PSGs.

Handy for inspecting what the analysis built — render with e.g.
``dot -Tsvg out.dot -o out.svg``.  The PSG export mirrors the paper's
figures: entry/exit nodes as ellipses, call/return pairs as boxes
joined by a dashed call-return edge, branch nodes as diamonds, and
flow-summary edges labeled with their (MAY-USE, MAY-DEF, MUST-DEF)
sets.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dataflow.regset import RegisterSet
from repro.cfg.cfg import ControlFlowGraph, TerminatorKind
from repro.isa.instructions import render_row
from repro.psg.graph import ProgramSummaryGraph
from repro.psg.nodes import NodeKind


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def cfg_to_dot(cfg: ControlFlowGraph, max_instructions: int = 4) -> str:
    """One routine's CFG as a DOT digraph.

    Each block shows up to ``max_instructions`` instructions; call and
    exit blocks are highlighted.
    """
    lines: List[str] = [
        f'digraph "{_escape(cfg.routine.name)}_cfg" {{',
        "  node [shape=box, fontname=monospace, fontsize=9];",
    ]
    rows = cfg.routine.rows
    exits = {index for index, _kind in cfg.exits}
    for index, terminator in enumerate(cfg.terminators):
        start, stop = cfg.bounds(index)
        body = [render_row(row) for row in rows[start:stop][:max_instructions]]
        if stop - start > max_instructions:
            body.append(f"... +{stop - start - max_instructions}")
        label = f"B{index}\\n" + "\\l".join(_escape(t) for t in body) + "\\l"
        attributes = [f'label="{label}"']
        if terminator == TerminatorKind.CALL:
            attributes.append('style=filled fillcolor="#cfe8ff"')
        elif index in exits:
            attributes.append('style=filled fillcolor="#ffd9cf"')
        elif index == cfg.entry_index:
            attributes.append('style=filled fillcolor="#d8f5d3"')
        lines.append(f"  b{index} [{' '.join(attributes)}];")
    for index, successors in enumerate(cfg.successors):
        for successor in successors:
            lines.append(f"  b{index} -> b{successor};")
    lines.append("}")
    return "\n".join(lines)


def _set_label(mask: int) -> str:
    return _escape(repr(RegisterSet.from_mask(mask)))


def psg_to_dot(
    psg: ProgramSummaryGraph,
    routine: Optional[str] = None,
    show_labels: bool = True,
) -> str:
    """The PSG (or one routine's slice of it) as a DOT digraph."""
    selected = None if routine is None else {routine}
    lines: List[str] = [
        'digraph "psg" {',
        "  node [fontname=monospace, fontsize=9];",
        "  edge [fontname=monospace, fontsize=8];",
    ]
    shapes = {
        NodeKind.ENTRY: "ellipse",
        NodeKind.EXIT: "ellipse",
        NodeKind.CALL: "box",
        NodeKind.RETURN: "box",
        NodeKind.BRANCH: "diamond",
    }
    wanted = set()
    for node, (kind, owner) in enumerate(zip(psg.node_kind, psg.node_routine)):
        if selected is not None and owner not in selected:
            continue
        wanted.add(node)
        extra = ""
        if kind == NodeKind.ENTRY:
            extra = ' style=filled fillcolor="#d8f5d3"'
        elif kind == NodeKind.EXIT:
            extra = ' style=filled fillcolor="#ffd9cf"'
        lines.append(
            f'  n{node} [shape={shapes[kind]} '
            f'label="{_escape(psg.describe(node))}"{extra}];'
        )
    arena = psg.arena
    for src, dst, label_index in zip(
        arena.edge_src, arena.edge_dst, arena.edge_label
    ):
        if src not in wanted or dst not in wanted:
            continue
        if show_labels:
            may_use, may_def, must_def = arena.labels[label_index]
            label = (
                f"U:{_set_label(may_use)}\\n"
                f"D:{_set_label(may_def)}\\n"
                f"M:{_set_label(must_def)}"
            )
            lines.append(f'  n{src} -> n{dst} [label="{label}"];')
        else:
            lines.append(f"  n{src} -> n{dst};")
    for src, dst, targets in zip(psg.cr_call, psg.cr_return, psg.cr_targets):
        if src not in wanted or dst not in wanted:
            continue
        callees = ",".join(targets) if targets else "?"
        lines.append(
            f'  n{src} -> n{dst} [style=dashed label="{_escape(callees)}"];'
        )
    lines.append("}")
    return "\n".join(lines)
