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

from dataclasses import replace as dataclass_replace
from typing import Dict, List, Optional, Set, Tuple

from repro.isa.calling_convention import CallingConvention
from repro.isa.instructions import Instruction
from repro.isa.registers import NUM_INTEGER_REGISTERS
from repro.cfg.callgraph import CallGraph
from repro.cfg.cfg import ControlFlowGraph, ExitKind
from repro.interproc.savedregs import SaveRestoreSites, find_save_restore_sites
from repro.interproc.summaries import SummarySet, RoutineSummary
from repro.program.rewrite import Edits


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
) -> Tuple[Dict[int, Optional[Instruction]], int]:
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

    occurs = _occurring_registers(cfg)
    exit_live = 0
    for block, kind in summary.exit_kinds.items():
        if kind == ExitKind.UNKNOWN_JUMP:
            exit_live = ~0
            break
        exit_live |= summary.exit_live_masks[block]

    slot_accesses = _slot_access_indices(cfg)
    candidates = sorted(convention.temporaries, key=lambda r: r.index)

    edits: Dict[int, Optional[Instruction]] = {}
    new_clobbers = 0
    for register, site_info in sorted(sites.items()):
        protected = {site_info.save_index, *site_info.restore_indices}
        if any(index in edits for index in protected):
            continue
        if not _slot_private(slot_accesses, site_info, protected):
            continue
        if _reads_incoming_value(cfg, register, protected):
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


def _occurring_registers(cfg: ControlFlowGraph) -> int:
    mask = 0
    for block in cfg.blocks:
        for instruction in block.instructions:
            mask |= instruction.use_mask | instruction.def_mask
    return mask


def _slot_access_indices(cfg: ControlFlowGraph) -> Dict[int, List[int]]:
    """sp-relative slot -> routine indices of instructions touching it."""
    from repro.isa.instructions import Opcode
    from repro.isa.registers import STACK_POINTER

    accesses: Dict[int, List[int]] = {}
    for block in cfg.blocks:
        for offset, instruction in enumerate(block.instructions):
            if (
                instruction.opcode
                in (Opcode.STQ, Opcode.LDQ, Opcode.STT, Opcode.LDT)
                and instruction.rb == STACK_POINTER
            ):
                accesses.setdefault(instruction.displacement, []).append(
                    block.start + offset
                )
    return accesses


def _slot_private(
    slot_accesses: Dict[int, List[int]],
    site_info: SaveRestoreSites,
    protected: Set[int],
) -> bool:
    """The save slot is accessed only by the save and the restores."""
    return set(slot_accesses.get(site_info.slot, [])) == protected


def _reads_incoming_value(
    cfg: ControlFlowGraph, register: int, skipped: Set[int]
) -> bool:
    """Would the routine (sans save/restore) read the caller's value?

    Single-register liveness: ``register`` live at entry means some
    path reads it before any interior definition.
    """
    blocks = cfg.blocks
    gen = [False] * len(blocks)
    kill = [False] * len(blocks)
    for block in blocks:
        block_kill = False
        block_gen = False
        for offset, instruction in enumerate(block.instructions):
            if block.start + offset in skipped:
                continue
            if not block_kill and register in instruction.uses():
                block_gen = True
            if register in instruction.defs():
                block_kill = True
        gen[block.index] = block_gen
        kill[block.index] = block_kill

    live_in = [False] * len(blocks)
    changed = True
    while changed:
        changed = False
        for block in reversed(blocks):
            out = any(live_in[s] for s in block.successors)
            new_in = gen[block.index] or (out and not kill[block.index])
            if new_in != live_in[block.index]:
                live_in[block.index] = new_in
                changed = True
    return live_in[cfg.entry_index]


def _apply_rename(
    cfg: ControlFlowGraph,
    old: int,
    new: int,
    deleted: Set[int],
    edits: Dict[int, Optional[Instruction]],
) -> None:
    for index in deleted:
        edits[index] = None
    for block in cfg.blocks:
        for offset, original in enumerate(block.instructions):
            index = block.start + offset
            if index in deleted:
                continue
            # Later renames must compose with earlier ones (an
            # instruction may mention two saved registers), and skip
            # instructions an earlier rename already deleted.
            instruction = edits.get(index, original)
            if instruction is None:
                continue
            fields = {}
            if instruction.ra == old:
                fields["ra"] = new
            if instruction.rb == old:
                fields["rb"] = new
            if instruction.rc == old:
                fields["rc"] = new
            if fields:
                edits[index] = dataclass_replace(instruction, **fields)
