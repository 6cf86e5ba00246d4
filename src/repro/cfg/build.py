"""CFG construction from decoded routines.

This is the paper's "CFG Build" stage.  For each routine:

1. classify every instruction's control behaviour;
2. recover branch targets (PC-relative) and multiway-branch targets
   (by extracting the jump table stored with the program, §3.5);
3. find block leaders and carve the routine into basic blocks — blocks
   end at branches *and at calls*;
4. wire successor/predecessor arcs;
5. resolve indirect-call targets where possible by tracking the
   address materialization (``ldah``/``lda`` chains) backward through
   the block, mirroring how Spike leans on linker-visible constants.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.isa.encoding import INSTRUCTION_SIZE
from repro.isa.instructions import ControlKind, Instruction, Opcode
from repro.isa.registers import ZERO_REGISTER
from repro.program.model import Program, Routine
from repro.cfg.cfg import (
    BasicBlock,
    CallSite,
    CfgError,
    ControlFlowGraph,
    ExitKind,
    TerminatorKind,
)


#: Bound once: the per-instruction test below is the hottest line of
#: the front end, and an enum member lookup costs more than the test.
_FALLTHROUGH = ControlKind.FALLTHROUGH


def build_all_cfgs(program: Program) -> Dict[str, ControlFlowGraph]:
    """Build the CFG for every routine of ``program``."""
    return {routine.name: build_cfg(program, routine) for routine in program}


def build_cfg(program: Program, routine: Routine) -> ControlFlowGraph:
    """Build the CFG for one routine."""
    instructions = routine.instructions
    count = len(instructions)

    # ------------------------------------------------------------------
    # 1-2: classify terminators and recover their targets
    # ------------------------------------------------------------------
    term_kind: Dict[int, TerminatorKind] = {}
    term_targets: Dict[int, List[int]] = {}
    for index, instruction in enumerate(instructions):
        control = instruction.control
        if control is _FALLTHROUGH:
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

    # ------------------------------------------------------------------
    # 3: leaders and blocks
    # ------------------------------------------------------------------
    leaders: Set[int] = {0}
    for index in term_kind:
        if index + 1 < count:
            leaders.add(index + 1)
        for target in term_targets.get(index, ()):
            leaders.add(target)
    ordered_leaders = sorted(leaders)
    blocks: List[BasicBlock] = []
    leader_to_block: Dict[int, int] = {}
    for block_index, start in enumerate(ordered_leaders):
        stop = (
            ordered_leaders[block_index + 1]
            if block_index + 1 < len(ordered_leaders)
            else count
        )
        terminator = term_kind.get(stop - 1, TerminatorKind.FALLTHROUGH)
        blocks.append(
            BasicBlock(
                index=block_index,
                start=start,
                stop=stop,
                instructions=instructions[start:stop],
                terminator=terminator,
            )
        )
        leader_to_block[start] = block_index

    # ------------------------------------------------------------------
    # 4: arcs
    # ------------------------------------------------------------------
    for block in blocks:
        successors: List[int] = []
        last_index = block.terminator_index
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
        # RETURN / HALT / UNKNOWN_JUMP: no intraprocedural successors.
        block.successors = successors
    for block in blocks:
        for successor in block.successors:
            blocks[successor].predecessors.append(block.index)

    # ------------------------------------------------------------------
    # 5: call sites and exits
    # ------------------------------------------------------------------
    call_sites: List[CallSite] = []
    exits: List[tuple] = []
    for block in blocks:
        last_index = block.terminator_index
        instruction = instructions[last_index]
        if block.terminator == TerminatorKind.CALL:
            call_sites.append(
                _classify_call(program, routine, block, last_index, instruction)
            )
        elif block.terminator == TerminatorKind.RETURN:
            exits.append((block.index, ExitKind.RETURN))
        elif block.terminator == TerminatorKind.HALT:
            exits.append((block.index, ExitKind.HALT))
        elif block.terminator == TerminatorKind.UNKNOWN_JUMP:
            exits.append((block.index, ExitKind.UNKNOWN_JUMP))

    cfg = ControlFlowGraph(
        routine=routine, blocks=blocks, call_sites=call_sites, exits=exits
    )
    cfg.check()
    return cfg


def _branch_target(routine: Routine, index: int, instruction: Instruction) -> int:
    """Instruction index targeted by a PC-relative branch."""
    target = index + 1 + instruction.displacement
    if not 0 <= target < len(routine.instructions):
        raise CfgError(
            f"{routine.name!r}: branch at {routine.address_of(index):#x} "
            f"targets instruction {target}, outside the routine"
        )
    return target


def _target_index(routine: Routine, jump_index: int, address: int) -> int:
    """Instruction index of a jump-table target address."""
    if not routine.contains(address):
        raise CfgError(
            f"{routine.name!r}: jump table at "
            f"{routine.address_of(jump_index):#x} targets {address:#x}, "
            f"outside the routine"
        )
    return routine.index_of(address)


def _classify_call(
    program: Program,
    routine: Routine,
    block: BasicBlock,
    instruction_index: int,
    instruction: Instruction,
) -> CallSite:
    if instruction.control == ControlKind.CALL_DIRECT:
        target = (
            routine.address_of(instruction_index)
            + INSTRUCTION_SIZE * (1 + instruction.displacement)
        )
        callee = program.routine_at(target)
        if callee is None:
            raise CfgError(
                f"{routine.name!r}: bsr at "
                f"{routine.address_of(instruction_index):#x} targets "
                f"{target:#x}, not a routine entry"
            )
        return CallSite(
            block=block.index,
            instruction_index=instruction_index,
            targets=(callee.name,),
            indirect=False,
        )
    # Indirect call: a linker target-set hint wins (§3.5's suggested
    # improvement); otherwise try to resolve the target register to a
    # constant by backward tracking.
    call_address = routine.address_of(instruction_index)
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
        return CallSite(
            block=block.index,
            instruction_index=instruction_index,
            targets=tuple(names),
            indirect=True,
        )
    local_index = instruction_index - block.start
    address = resolve_register_constant(
        block.instructions, local_index, instruction.rb
    )
    targets: tuple = ()
    if address is not None:
        callee = program.routine_at(address)
        if callee is not None:
            targets = (callee.name,)
    return CallSite(
        block=block.index,
        instruction_index=instruction_index,
        targets=targets,
        indirect=True,
    )


def resolve_register_constant(
    instructions: Sequence[Instruction], upto: int, register: int
) -> Optional[int]:
    """Resolve the value of ``register`` just before ``instructions[upto]``.

    Walks backward through the straight-line prefix, following
    ``lda``/``ldah`` address-materialization chains and register moves
    (``bis zero, rs, rd``).  Returns the constant value or ``None`` when
    the value is not a visible constant.
    """
    target = register
    addend = 0
    for index in range(upto - 1, -1, -1):
        instruction = instructions[index]
        if target not in instruction.defs():
            continue
        opcode = instruction.opcode
        if opcode is Opcode.LDA:
            addend += instruction.displacement
            if instruction.rb == ZERO_REGISTER:
                return addend
            target = instruction.rb
        elif opcode is Opcode.LDAH:
            addend += instruction.displacement << 16
            if instruction.rb == ZERO_REGISTER:
                return addend
            target = instruction.rb
        elif (
            opcode is Opcode.BIS
            and instruction.literal is None
            and instruction.ra == ZERO_REGISTER
        ):
            target = instruction.rb
        elif (
            opcode is Opcode.BIS
            and instruction.literal is None
            and instruction.rb == ZERO_REGISTER
        ):
            target = instruction.ra
        else:
            return None
    return None
