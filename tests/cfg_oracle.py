"""The block-object CFG carver: the reference ``build_cfg``'s one walk
is tested against.

These are ``build_cfg``'s carving loop, its block-object invariant
check and the §3.4 prologue/epilogue matcher as they stood in ``src/``
before one walk per routine wrote a CFG's block rows: leaders from a
terminator table, one block record (:class:`tests.records.Block`) per
leader over its own instruction slice, arcs wired block by block, predecessors, call sites
and exits from a second pass over the blocks — and save/restore
detection walking the entry and exit blocks' instruction slices.
:func:`oracle_cfg` turns the carved blocks into the rows a
:class:`ControlFlowGraph` holds (DEF/UBD per block slice), so the two
compare with ``==``; :func:`local_sets_of_rows` is the per-block DEF/UBD
pass, also from ``src/``.  Constant tracking (``resolve_register_constant``)
is shared with the production builder; call classification is the
per-site :func:`classify_call` that production's one resolver
(:func:`repro.cfg.build.resolve_call_sites`) replaced, kept here as its
reference.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.cfg.build import resolve_register_constant
from repro.cfg.cfg import (
    CallSite,
    CfgError,
    ControlFlowGraph,
    ExitKind,
    RecordedSite,
    TerminatorKind,
)
from repro.dataflow.local import LocalSets
from repro.isa.encoding import INSTRUCTION_SIZE
from repro.isa.instructions import ControlKind, Opcode
from repro.isa.registers import STACK_POINTER
from repro.program.model import Program, Routine
from tests.decoded import Row, rows_of
from tests.records import Block

#: Every register of the unified 64-register file.
ALL_REGISTERS = (1 << 64) - 1

_EXIT_TERMINATORS = (
    TerminatorKind.RETURN, TerminatorKind.HALT, TerminatorKind.UNKNOWN_JUMP
)


class Carved(NamedTuple):
    """One routine carved into block objects."""

    routine: Routine
    blocks: List[Block]
    call_sites: List[CallSite]
    exits: List[Tuple[int, ExitKind]]
    recorded_sites: List[RecordedSite]


def oracle_cfg(program: Program, routine: Routine) -> ControlFlowGraph:
    """The routine's CFG rows, taken from :func:`carve`'s blocks."""
    carved = carve(program, routine)
    blocks = carved.blocks
    local_sets = [
        local_sets_of_rows(_instructions(routine, block)) for block in blocks
    ]
    return ControlFlowGraph(
        routine=routine,
        starts=[block.start for block in blocks],
        successors=[tuple(block.successors) for block in blocks],
        terminators=[block.terminator for block in blocks],
        ubd=[sets.ubd_mask for sets in local_sets],
        defs=[sets.def_mask for sets in local_sets],
        call_sites=carved.call_sites,
        recorded_sites=carved.recorded_sites,
        exits=carved.exits,
        saved=oracle_saved_mask(carved, ALL_REGISTERS),
    )


def local_sets_of_rows(rows: Iterable[tuple]) -> LocalSets:
    """Compute DEF/UBD over a sequence of rows."""
    def_mask = 0
    ubd_mask = 0
    for _control, use_mask, row_def_mask, *_operands in rows:
        ubd_mask |= use_mask & ~def_mask
        def_mask |= row_def_mask
    return LocalSets(def_mask=def_mask, ubd_mask=ubd_mask)


def carve(program: Program, routine: Routine) -> Carved:
    """Carve one routine, block object by block object."""
    instructions = rows_of(routine.code)
    count = len(instructions)

    term_kind: Dict[int, TerminatorKind] = {}
    term_targets: Dict[int, List[int]] = {}
    for index, instruction in enumerate(instructions):
        control = instruction.control
        if control == ControlKind.FALLTHROUGH:
            continue
        if control == ControlKind.COND_BRANCH:
            term_kind[index] = TerminatorKind.COND_BRANCH
            term_targets[index] = [_branch_target(routine, index, instruction)]
        elif control == ControlKind.UNCOND_BRANCH:
            term_kind[index] = TerminatorKind.UNCOND_BRANCH
            term_targets[index] = [_branch_target(routine, index, instruction)]
        elif control == ControlKind.INDIRECT_JUMP:
            address = routine.address_of(index)
            targets = program.jump_targets.get(address)
            if targets is None:
                term_kind[index] = TerminatorKind.UNKNOWN_JUMP
            else:
                term_kind[index] = TerminatorKind.MULTIWAY
                term_targets[index] = [
                    _target_index(routine, index, target) for target in targets
                ]
        elif control in (ControlKind.CALL_DIRECT, ControlKind.CALL_INDIRECT):
            term_kind[index] = TerminatorKind.CALL
            if index + 1 >= count:
                raise CfgError(
                    f"{routine.name!r}: call at the last instruction has no "
                    f"return point"
                )
        elif control == ControlKind.RETURN:
            term_kind[index] = TerminatorKind.RETURN
        elif control == ControlKind.HALT:
            term_kind[index] = TerminatorKind.HALT
        else:  # pragma: no cover - exhaustive
            raise AssertionError(control)

    last = instructions[-1].control
    if last in (ControlKind.FALLTHROUGH, ControlKind.COND_BRANCH):
        raise CfgError(
            f"{routine.name!r}: control falls off the end of the routine"
        )

    leaders: Set[int] = {0}
    for index in term_kind:
        if index + 1 < count:
            leaders.add(index + 1)
        for target in term_targets.get(index, ()):
            leaders.add(target)
    ordered_leaders = sorted(leaders)
    blocks: List[Block] = []
    leader_to_block: Dict[int, int] = {}
    for block_index, start in enumerate(ordered_leaders):
        stop = (
            ordered_leaders[block_index + 1]
            if block_index + 1 < len(ordered_leaders)
            else count
        )
        terminator = term_kind.get(stop - 1, TerminatorKind.FALLTHROUGH)
        blocks.append(
            Block(block_index, start, stop, terminator, successors=[])
        )
        leader_to_block[start] = block_index

    for block in blocks:
        successors: List[int] = []
        last_index = block.stop - 1
        kind = block.terminator
        if kind == TerminatorKind.FALLTHROUGH:
            successors.append(leader_to_block[block.stop])
        elif kind == TerminatorKind.COND_BRANCH:
            successors.append(leader_to_block[term_targets[last_index][0]])
            fall = leader_to_block[block.stop]
            if fall not in successors:
                successors.append(fall)
        elif kind == TerminatorKind.UNCOND_BRANCH:
            successors.append(leader_to_block[term_targets[last_index][0]])
        elif kind == TerminatorKind.MULTIWAY:
            seen: Set[int] = set()
            for target in term_targets[last_index]:
                successor = leader_to_block[target]
                if successor not in seen:
                    seen.add(successor)
                    successors.append(successor)
        elif kind == TerminatorKind.CALL:
            successors.append(leader_to_block[block.stop])
        block.successors = successors
    for block in blocks:
        for successor in block.successors:
            blocks[successor].predecessors.append(block.index)

    recorded_sites: List[RecordedSite] = []
    call_sites: List[CallSite] = []
    exits: List[tuple] = []
    for block in blocks:
        if block.terminator == TerminatorKind.CALL:
            recorded = _record_site(routine, block)
            recorded_sites.append(recorded)
            call_sites.append(classify_call(program, routine, recorded))
        elif block.terminator == TerminatorKind.RETURN:
            exits.append((block.index, ExitKind.RETURN))
        elif block.terminator == TerminatorKind.HALT:
            exits.append((block.index, ExitKind.HALT))
        elif block.terminator == TerminatorKind.UNKNOWN_JUMP:
            exits.append((block.index, ExitKind.UNKNOWN_JUMP))

    carved = Carved(routine, blocks, call_sites, exits, recorded_sites)
    check(carved)
    return carved


def check(carved: Carved) -> None:
    """The block-object invariants; raise :class:`CfgError`."""
    blocks = carved.blocks
    expected_start = 0
    for index, block in enumerate(blocks):
        if block.index != index:
            raise CfgError(f"block {index} has mismatched index {block.index}")
        if block.start != expected_start:
            raise CfgError(f"block {index} does not start where block "
                           f"{index - 1} stopped")
        if block.stop <= block.start:
            raise CfgError(f"block {index} is empty")
        expected_start = block.stop
        for successor in block.successors:
            if not 0 <= successor < len(blocks):
                raise CfgError(f"block {index} has bad successor {successor}")
            if index not in blocks[successor].predecessors:
                raise CfgError(
                    f"arc {index}->{successor} missing reverse predecessor"
                )
        if block.terminator in _EXIT_TERMINATORS and block.successors:
            raise CfgError(f"exit block {index} has successors")
    if expected_start != len(carved.routine):
        raise CfgError("blocks do not cover the routine")
    for block_index, _kind in carved.exits:
        if blocks[block_index].terminator not in _EXIT_TERMINATORS:
            raise CfgError(f"exit list names non-exit block {block_index}")


def _branch_target(routine: Routine, index: int, instruction: Row) -> int:
    target = index + 1 + instruction.displacement
    if not 0 <= target < len(routine):
        raise CfgError(
            f"{routine.name!r}: branch at {routine.address_of(index):#x} "
            f"targets instruction {target}, outside the routine"
        )
    return target


def _target_index(routine: Routine, jump_index: int, address: int) -> int:
    if not routine.contains(address) or (address - routine.address) % 4:
        raise CfgError(
            f"{routine.name!r}: jump table at "
            f"{routine.address_of(jump_index):#x} targets {address:#x}, "
            f"outside the routine"
        )
    return routine.index_of(address)


def _instructions(routine: Routine, block: Block) -> Tuple[Row, ...]:
    return rows_of(routine.code)[block.start : block.stop]


def _record_site(routine: Routine, block: Block) -> RecordedSite:
    instruction_index = block.stop - 1
    instruction = rows_of(routine.code)[instruction_index]
    if instruction.control == ControlKind.CALL_DIRECT:
        return RecordedSite(block.index, instruction_index, indirect=False)
    return RecordedSite(
        block.index,
        instruction_index,
        indirect=True,
        constant=resolve_register_constant(
            routine.rows[block.start : block.stop],
            instruction_index - block.start,
            instruction.rb,
        ),
    )


# ----------------------------------------------------------------------
# §3.4 save/restore detection over block slices
# ----------------------------------------------------------------------


def oracle_saved_mask(carved: Carved, candidates: int) -> int:
    """Mask of the ``candidates`` registers the routine saves in its
    entry block and restores on every RETURN exit."""
    slots = _prologue_saves(carved, candidates)
    if not slots:
        return 0
    if any(kind == ExitKind.UNKNOWN_JUMP for _b, kind in carved.exits):
        return 0
    mask = 0
    for register, (slot, _save_index) in slots.items():
        restores: List[int] = []
        for exit_block, kind in carved.exits:
            if kind != ExitKind.RETURN:
                continue
            restore = _epilogue_restore_index(carved, exit_block, register, slot)
            if restore is None:
                restores = []
                break
            restores.append(restore)
        if restores:
            mask |= 1 << register
    return mask


def _prologue_saves(
    carved: Carved, candidates: int
) -> Dict[int, Tuple[int, int]]:
    slots: Dict[int, Tuple[int, int]] = {}
    defined = 0
    entry = carved.blocks[0]
    for offset_in_block, instruction in enumerate(
        _instructions(carved.routine, entry)
    ):
        if (
            instruction.opcode in (Opcode.STQ, Opcode.STT)
            and instruction.rb == STACK_POINTER
        ):
            register = instruction.ra
            bit = 1 << register
            if bit & candidates and not (bit & defined):
                slots.setdefault(
                    register,
                    (instruction.displacement, entry.start + offset_in_block),
                )
        defined |= instruction.def_mask
    return slots


def _epilogue_restore_index(
    carved: Carved, exit_block: int, register: int, slot: int
) -> Optional[int]:
    block = carved.blocks[exit_block]
    last_def: Optional[Row] = None
    last_index = -1
    for offset_in_block, instruction in enumerate(
        _instructions(carved.routine, block)
    ):
        if instruction.def_mask >> register & 1:
            last_def = instruction
            last_index = block.start + offset_in_block
    if last_def is None:
        return None
    if (
        last_def.opcode in (Opcode.LDQ, Opcode.LDT)
        and last_def.rb == STACK_POINTER
        and last_def.displacement == slot
        and last_def.ra == register
    ):
        return last_index
    return None


def classify_call(program: Program, routine: Routine, site: RecordedSite) -> CallSite:
    """Whom the call at ``site`` reaches in ``program``: a direct call's
    entry, else a linker target-set hint, else the recorded constant if
    it names an entry.  Raises :class:`CfgError` for a ``bsr`` or a
    hint naming a non-entry."""
    call_address = routine.address_of(site.instruction_index)
    if not site.indirect:
        call = rows_of(routine.code)[site.instruction_index]
        target = call_address + INSTRUCTION_SIZE * (1 + call.displacement)
        callee = program.routine_at(target)
        if callee is None:
            raise CfgError(
                f"{routine.name!r}: bsr at {call_address:#x} targets "
                f"{target:#x}, not a routine entry"
            )
        return CallSite(site.block, site.instruction_index, (callee.name,), False)
    hinted = program.call_target_hints.get(call_address)
    if hinted:
        names = []
        for target in hinted:
            hinted_routine = program.routine_at(target)
            if hinted_routine is None:
                raise CfgError(
                    f"{routine.name!r}: call-target hint at "
                    f"{call_address:#x} names {target:#x}, not a routine entry"
                )
            names.append(hinted_routine.name)
        return CallSite(site.block, site.instruction_index, tuple(names), True)
    targets: tuple = ()
    if site.constant is not None:
        callee = program.routine_at(site.constant)
        if callee is not None:
            targets = (callee.name,)
    return CallSite(site.block, site.instruction_index, targets, True)
