"""Summary-annotated disassembly listings.

The paper's figures present code with the interprocedural facts inline:

.. code-block:: none

    def Ra
    call [ used by call = {Rb} ]      (Figure 1b)
    ...
    ret [ used on return = {} ]       (Figure 1a)

This module renders exactly that view for a whole analyzed program:
each call instruction is annotated with the callee's call-used /
call-defined / call-killed sets, each return with the live-at-exit set,
and each routine header with its entry summary — the human-readable
face of :class:`~repro.interproc.summaries.RoutineSummary`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, List, Optional

from repro.dataflow.regset import RegisterSet
from repro.isa.instructions import ControlKind, render_row
from repro.cfg.cfg import ExitKind

if TYPE_CHECKING:  # avoid a package-init cycle with repro.interproc
    from repro.interproc.analysis import InterproceduralAnalysis


def _set(mask: int) -> str:
    return repr(RegisterSet.from_mask(mask))


def render_annotated_listing(
    analysis: "InterproceduralAnalysis",
    routines: Optional[List[str]] = None,
) -> str:
    """Render the paper-style annotated listing.

    ``routines`` restricts output to the named routines (default: all,
    in address order).
    """
    program = analysis.program
    names = routines if routines is not None else program.routine_names()
    lines: List[str] = []
    for name in names:
        routine = program.routine(name)
        summary = analysis.summary(name)
        cfg = analysis.cfgs[name]
        lines.append(
            f"{name}:  [ live-at-entry = {_set(summary.live_at_entry_mask)} ]"
        )
        lines.append(
            f"    ; call-used = {_set(summary.call_used_mask)}  "
            f"call-defined = {_set(summary.call_defined_mask)}  "
            f"call-killed = {_set(summary.call_killed_mask)}"
        )
        if summary.saved_restored_mask:
            lines.append(
                f"    ; saves/restores {_set(summary.saved_restored_mask)}"
            )
        site_by_index = {
            s.site.instruction_index: s for s in summary.call_sites
        }
        exit_by_block = dict(summary.exit_kinds)
        for index, row in enumerate(routine.rows):
            address = routine.address_of(index)
            text = f"    {address:#010x}  {render_row(row)}"
            control = row[0]
            if control in (ControlKind.CALL_DIRECT, ControlKind.CALL_INDIRECT):
                site = site_by_index.get(index)
                if site is not None:
                    target = (
                        "/".join(site.site.targets)
                        if site.site.targets
                        else "<unknown>"
                    )
                    text += (
                        f"    [ {target}: used = {_set(site.used_mask)}, "
                        f"defined = {_set(site.defined_mask)}, "
                        f"killed = {_set(site.killed_mask)} ]"
                    )
            elif control == ControlKind.RETURN:
                block = bisect_right(cfg.starts, index) - 1
                if exit_by_block.get(block) == ExitKind.RETURN:
                    mask = summary.exit_live_masks[block]
                    text += f"    [ used on return = {_set(mask)} ]"
            lines.append(text)
        lines.append("")
    return "\n".join(lines)
