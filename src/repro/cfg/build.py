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

Step 5 is split in two so that a warm run can skip steps 1-4: *where*
a call sits and which constant feeds it (:class:`RecordedSite`) depend
only on the routine's own shape and are remembered in the sidecar's
front-end records; *whom* it reaches (:func:`classify_call`) depends on
the image's symbol and hint tables and is re-derived every run, by the
same function whether the site came from a fresh CFG or from a record.
:class:`LazyCfgs` is the mapping that then builds a CFG only when some
consumer actually asks for that routine's.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterator, List, Optional, Sequence, Set

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
    FrontendRecord,
    RecordedSite,
    TerminatorKind,
)
from repro.obs.metrics import REGISTRY


#: Bound once: the per-instruction test below is the hottest line of
#: the front end, and an enum member lookup costs more than the test.
_FALLTHROUGH = ControlKind.FALLTHROUGH


def build_all_cfgs(program: Program) -> Dict[str, ControlFlowGraph]:
    """Build the CFG for every routine of ``program``."""
    return {routine.name: build_cfg(program, routine) for routine in program}


class LazyCfgs(Mapping):
    """Every routine's CFG, by name, each built on first access.

    A full read-only mapping over the program's routines in program
    order: ``len``, iteration and ``in`` never build anything, while
    ``cfgs[name]`` (and therefore ``get``/``items``/``values``) builds
    through :func:`build_cfg` once and keeps the result.  ``built`` is
    the plain dict of what exists so far — what to hand a worker
    process, and the count a run reports as ``cfgs_built``.

    Not synchronized: fill it under whatever serializes the analysis
    that owns it (the daemon's per-entry lock).
    """

    def __init__(
        self,
        program: Program,
        built: Optional[Dict[str, ControlFlowGraph]] = None,
    ) -> None:
        self._program = program
        self._routines = {routine.name: routine for routine in program}
        self.built: Dict[str, ControlFlowGraph] = dict(built or {})

    def __getitem__(self, name: str) -> ControlFlowGraph:
        cfg = self.built.get(name)
        if cfg is None:
            cfg = build_cfg(self._program, self._routines[name])
            self.built[name] = cfg
        return cfg

    def __contains__(self, name: object) -> bool:
        return name in self._routines

    def __iter__(self) -> Iterator[str]:
        return iter(self._routines)

    def __len__(self) -> int:
        return len(self._routines)


def build_cfg(program: Program, routine: Routine) -> ControlFlowGraph:
    """Build the CFG for one routine."""
    REGISTRY.inc("cfg.built")
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
    recorded_sites: List[RecordedSite] = []
    call_sites: List[CallSite] = []
    exits: List[tuple] = []
    for block in blocks:
        if block.terminator == TerminatorKind.CALL:
            recorded = _record_site(block)
            recorded_sites.append(recorded)
            call_sites.append(classify_call(program, routine, recorded))
        elif block.terminator == TerminatorKind.RETURN:
            exits.append((block.index, ExitKind.RETURN))
        elif block.terminator == TerminatorKind.HALT:
            exits.append((block.index, ExitKind.HALT))
        elif block.terminator == TerminatorKind.UNKNOWN_JUMP:
            exits.append((block.index, ExitKind.UNKNOWN_JUMP))

    cfg = ControlFlowGraph(
        routine=routine,
        blocks=blocks,
        call_sites=call_sites,
        exits=exits,
        recorded_sites=recorded_sites,
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


def _record_site(block: BasicBlock) -> RecordedSite:
    """The shape-determined half of the call ending ``block``: an
    indirect call's target register is resolved to a constant by
    backward tracking through the block (also under a hint, which may
    be gone from the next image while the code is not)."""
    instruction_index = block.terminator_index
    instruction = block.instructions[-1]
    if instruction.control == ControlKind.CALL_DIRECT:
        return RecordedSite(block.index, instruction_index, indirect=False)
    return RecordedSite(
        block.index,
        instruction_index,
        indirect=True,
        constant=resolve_register_constant(
            block.instructions, len(block.instructions) - 1, instruction.rb
        ),
    )


def classify_call(
    program: Program, routine: Routine, site: RecordedSite
) -> CallSite:
    """Whom the call at ``site`` reaches in ``program``."""
    call_address = routine.address_of(site.instruction_index)
    if not site.indirect:
        displacement = routine.instructions[site.instruction_index].displacement
        target = call_address + INSTRUCTION_SIZE * (1 + displacement)
        callee = program.routine_at(target)
        if callee is None:
            raise CfgError(
                f"{routine.name!r}: bsr at {call_address:#x} targets "
                f"{target:#x}, not a routine entry"
            )
        return CallSite(
            block=site.block,
            instruction_index=site.instruction_index,
            targets=(callee.name,),
            indirect=False,
        )
    # Indirect call: a linker target-set hint wins (§3.5's suggested
    # improvement); otherwise the target register's constant, if it has
    # one and that names a routine entry.
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
            block=site.block,
            instruction_index=site.instruction_index,
            targets=tuple(names),
            indirect=True,
        )
    targets: tuple = ()
    if site.constant is not None:
        callee = program.routine_at(site.constant)
        if callee is not None:
            targets = (callee.name,)
    return CallSite(
        block=site.block,
        instruction_index=site.instruction_index,
        targets=targets,
        indirect=True,
    )


def recorded_call_sites(
    program: Program, routine: Routine, record: FrontendRecord
) -> Optional[List[CallSite]]:
    """``routine``'s call sites re-resolved from ``record`` instead of
    from its CFG, or ``None`` when the record cannot be describing this
    routine (a site that is not a call of the recorded kind, or has no
    return point) — the caller then builds the CFG as if there had been
    no record.  Raises the same :class:`CfgError` as :func:`build_cfg`
    for a ``bsr`` or hint naming a non-entry."""
    instructions = routine.instructions
    last = len(instructions) - 1
    for site in record.sites:
        if site.instruction_index >= last:
            return None
        expected = (
            ControlKind.CALL_INDIRECT if site.indirect
            else ControlKind.CALL_DIRECT
        )
        if instructions[site.instruction_index].control != expected:
            return None
    return [classify_call(program, routine, site) for site in record.sites]


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
        if not instruction.def_mask >> target & 1:
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
