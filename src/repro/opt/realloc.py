"""Callee-saved → caller-saved reallocation (Figure 1d).

The compiler put a value that lives across calls into a callee-saved
register ``Rs``, paying a save and a restore in the prologue/epilogue:

.. code-block:: none

    save Rs
    ...
    def Rs
    call   [ killed by call = ∅ ]
    use Rs
    ...
    restore Rs

If the summaries show some caller-saved register ``Rt`` is not killed
by any call the routine makes, the value can live in ``Rt`` instead and
the save/restore disappears.  Large applications spend up to 16% of
their time in call overhead [Cohn96], so this is where the paper's
5-10% improvements mostly come from.

Renaming one routine changes what *it* clobbers, which can invalidate
the facts a caller's own rename depends on.  The pass therefore
processes routines callees-first (reverse topological order over the
call graph) and tracks, per routine, the caller-saved registers newly
clobbered by renames — transitively through the call graph.  Checking
a call site uses ``call-killed ∪ transitive-new-clobbers(callee)``, and
routines inside one strongly connected component additionally avoid
every rename target claimed by the component (two mutually recursive
routines must not claim the same scratch register).

Per-candidate safety conditions:

* ``Rs`` is provably saved/restored (prologue/epilogue discipline) and
  its stack slot is touched by nothing but the save and the restores;
* with the save/restore gone, the routine never reads the *incoming*
  value of ``Rs`` (every interior use is covered by an interior
  definition);
* ``Rt`` occurs nowhere in the routine, is not (effectively) killed by
  any call the routine makes, and is not live at any routine exit.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.isa.calling_convention import CallingConvention
from repro.isa.encoding import code_words, decode_row, replace_fields
from repro.isa.registers import NUM_INTEGER_REGISTERS
from repro.dataflow.liveness import solve
from repro.cfg.build import frame_accesses
from repro.cfg.callgraph import CallGraph
from repro.cfg.cfg import ControlFlowGraph, ExitKind
from repro.interproc.savedregs import find_save_restore_sites
from repro.interproc.summaries import SummarySet, RoutineSummary
from repro.program.rewrite import Edits, RoutineEdits


def reallocate_callee_saved(
    call_graph: CallGraph,
    analysis: SummarySet,
    convention: CallingConvention,
) -> Edits:
    """Whole-program reallocation; returns rewrite edits per routine."""
    cfgs = call_graph.cfgs
    components = call_graph.strongly_connected_components()

    #: caller-saved registers each routine newly clobbers (transitive).
    extra_killed: Dict[str, int] = {name: 0 for name in cfgs}
    edits: Edits = {}

    for component in components:
        members = set(component)
        claimed = 0  # rename targets claimed within this component
        # Clobbers flowing in from callees outside the component.
        inherited = 0
        for name in component:
            for callee in call_graph.callees_of(name):
                if callee not in members:
                    inherited |= extra_killed[callee]
        for name in component:
            routine_edits, new_clobbers = _reallocate_routine(
                name,
                cfgs[name],
                analysis.summaries[name],
                call_graph,
                convention,
                extra_killed,
                members,
                claimed | inherited,
            )
            claimed |= new_clobbers
            extra_killed[name] |= new_clobbers
            if routine_edits:
                edits[name] = routine_edits
        # Finalize: every member transitively exposes the whole
        # component's new clobbers plus everything inherited.
        for name in component:
            extra_killed[name] |= claimed | inherited
    return edits


def _reallocate_routine(
    name: str,
    cfg: ControlFlowGraph,
    summary: RoutineSummary,
    call_graph: CallGraph,
    convention: CallingConvention,
    extra_killed: Dict[str, int],
    component: Set[str],
    blocked_targets: int,
) -> Tuple[RoutineEdits, int]:
    """Rename what we can in one routine.

    Returns (edits, mask of caller-saved registers newly clobbered).
    """
    sites = find_save_restore_sites(cfg, convention)
    if not sites:
        return {}, 0

    # A routine that calls into its own SCC (including itself) must not
    # rename: the renamed value would be live across a call to code that
    # — after the very same rename — clobbers the new register.  The
    # callee-saved discipline was precisely what protected it.
    for site_summary in summary.call_sites:
        if any(target in component for target in site_summary.site.targets):
            return {}, 0

    # Effective kill mask over every call the routine makes.
    killed_by_calls = 0
    for site_summary in summary.call_sites:
        killed_by_calls |= site_summary.killed_mask
        for target in site_summary.site.targets:
            killed_by_calls |= extra_killed[target]

    rows = cfg.routine.rows  # row[1]/row[2]: use/def masks
    occurs = 0
    for row in rows:
        occurs |= row[1] | row[2]
    exit_live = 0
    for block, kind in summary.exit_kinds.items():
        if kind == ExitKind.UNKNOWN_JUMP:
            exit_live = ~0
            break
        exit_live |= summary.exit_live_masks[block]

    slot_accesses = frame_accesses(rows)
    candidates = sorted(convention.temporaries, key=lambda r: r.index)

    edits: RoutineEdits = {}
    new_clobbers = 0
    for register, site_info in sorted(sites.items()):
        protected = {site_info.save_index, *site_info.restore_indices}
        if any(index in edits for index in protected):
            continue
        # The save slot is accessed only by the save and the restores.
        if set(slot_accesses[site_info.slot]) != protected:
            continue
        # With them gone, is the register live at entry: would the
        # routine read its caller's value?
        bit = 1 << register
        uses = [row[1] & bit for row in rows]
        defs = [row[2] & bit for row in rows]
        if solve(cfg, uses, defs, {}, protected)[0][cfg.entry_index]:
            continue
        target = _pick_target(
            register,
            candidates,
            occurs,
            killed_by_calls | new_clobbers | blocked_targets,
            exit_live,
        )
        if target is None:
            continue
        _apply_rename(cfg, register, target, protected, edits)
        occurs |= 1 << target
        new_clobbers |= 1 << target
    return edits, new_clobbers


def _pick_target(
    saved_register: int,
    candidates,
    occurs: int,
    killed: int,
    exit_live: int,
) -> Optional[int]:
    saved_is_integer = saved_register < NUM_INTEGER_REGISTERS
    for candidate in candidates:
        index = candidate.index
        if (index < NUM_INTEGER_REGISTERS) != saved_is_integer:
            continue
        bit = 1 << index
        if occurs & bit or killed & bit or exit_live & bit:
            continue
        return index
    return None


def _apply_rename(
    cfg: ControlFlowGraph,
    old: int,
    new: int,
    deleted: Set[int],
    edits: RoutineEdits,
) -> None:
    for index in deleted:
        edits[index] = None
    words = code_words(cfg.routine.code)
    for index, row in enumerate(cfg.routine.rows):
        # Later renames must compose with earlier ones (an instruction
        # may mention two saved registers), and skip instructions this
        # or an earlier rename deleted.
        word = edits.get(index, words[index])
        if word is None:
            continue
        if index in edits:
            row = decode_row(word)
        fields = {
            field: new
            for field, register in zip(("ra", "rb", "rc"), row[5:8])
            if register == old
        }
        if fields:
            edits[index] = replace_fields(word, **fields)
