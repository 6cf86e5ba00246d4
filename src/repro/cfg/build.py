"""CFG Build: one walk per routine, from instruction rows to block rows.

This is the paper's "CFG Build" stage, with its "Initialization" (the
per-block DEF/UBD sets, and the §3.4 save/restore pattern) folded in.
For each routine, :func:`build_cfg` reads its instruction rows
(``Routine.rows``, see :data:`repro.isa.instructions.ROW_FIELDS`) and:

1. classifies every instruction's control behaviour in one walk,
   recovering branch targets (PC-relative) and multiway-branch targets
   (from the jump table stored with the program, §3.5) — the block
   leaders;
2. makes one pass over the block bounds: each block's terminator,
   successor tuple and DEF/UBD masks — blocks end at branches *and at
   calls*;
3. resolves the call sites, tracking an indirect call's target register
   backward through its block (``ldah``/``lda`` chains, mirroring how
   Spike leans on linker-visible constants);
4. finds the registers saved in the entry block and restored on every
   RETURN exit.

The result is a :class:`~repro.cfg.cfg.ControlFlowGraph` held as those
rows — what the PSG build, the call graph, the §3.4 filter, the
reports and the whole-CFG baseline read.  The frame-slot format the optimizer's passes share
(:func:`frame_slot`) is read here too, beside the save/restore matcher
that uses it.

Call-site resolution is split in two so that a warm run can skip the
walk: *where* a call sits and which constant feeds it
(:class:`RecordedSite`) depend only on the routine's own shape and are
remembered in the front-end records; *whom* it reaches
(:func:`resolve_call_sites`) depends on the image's symbol and hint
tables and is re-derived every run, by the one resolver whether the
sites came from a fresh walk or from a record.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.isa.encoding import INSTRUCTION_SIZE
from repro.isa.instructions import ControlKind, Opcode
from repro.isa.registers import STACK_POINTER, ZERO_REGISTER
from repro.program.model import Program, Routine
from repro.cfg.cfg import (
    CallSite,
    CfgError,
    ControlFlowGraph,
    ExitKind,
    RecordedSite,
    TerminatorKind,
)
from repro.obs.metrics import REGISTRY


# Enum members bound once: in the loops below a member lookup
# (``ControlKind.RETURN``) costs more than the test it feeds, and an
# enum's hash is a Python call, so members are compared by identity and
# never looked up in a set or dict.
_FALLTHROUGH = ControlKind.FALLTHROUGH
_COND_BRANCH = ControlKind.COND_BRANCH
_UNCOND_BRANCH = ControlKind.UNCOND_BRANCH
_INDIRECT_JUMP = ControlKind.INDIRECT_JUMP
_CALL_DIRECT = ControlKind.CALL_DIRECT
_CALL_INDIRECT = ControlKind.CALL_INDIRECT
_RET = ControlKind.RETURN
_HALT = ControlKind.HALT
_NEXT = TerminatorKind.FALLTHROUGH
_COND = TerminatorKind.COND_BRANCH
_UNCOND = TerminatorKind.UNCOND_BRANCH
_MULTIWAY = TerminatorKind.MULTIWAY
_UNKNOWN = TerminatorKind.UNKNOWN_JUMP
_CALL = TerminatorKind.CALL
_RETURN = TerminatorKind.RETURN
_EXIT_RETURN = ExitKind.RETURN
_EXIT_HALT = ExitKind.HALT
_EXIT_UNKNOWN = ExitKind.UNKNOWN_JUMP
#: Builds a named-tuple row without the Python frame of its generated
#: ``__new__`` (about half the cost, once per call site).
_new_row = tuple.__new__
#: The frame-slot format: a slot is an ``sp`` displacement, read and
#: written only by these opcodes through ``sp`` (:func:`frame_slot`).
STACK_STORES = (Opcode.STQ, Opcode.STT)
STACK_LOADS = (Opcode.LDQ, Opcode.LDT)


def build_cfg(program: Program, routine: Routine) -> ControlFlowGraph:
    """One routine's CFG rows (see the module docstring).  Raises
    :class:`CfgError` for control flow no CFG can model, in the order
    the instructions and then the call blocks are met."""
    REGISTRY.inc("frontend.rows")
    rows = routine.rows
    count = len(rows)

    # 1: terminator kinds and targets, in one walk (row[0] is the
    # control kind, row[3] the displacement)
    kinds: Dict[int, TerminatorKind] = {}
    targets: Dict[int, List[int]] = {}
    leaders = {0}
    for index, row in enumerate(rows):
        control = row[0]
        if control is _FALLTHROUGH:
            continue
        if control is _COND_BRANCH or control is _UNCOND_BRANCH:
            kinds[index] = _COND if control is _COND_BRANCH else _UNCOND
            target = _branch_target(routine, index, row[3], count)
            targets[index] = [target]
            leaders.add(target)
        elif control is _CALL_DIRECT or control is _CALL_INDIRECT:
            kinds[index] = _CALL
            if index + 1 >= count:
                raise CfgError(
                    f"{routine.name!r}: call at the last instruction has no "
                    f"return point"
                )
        elif control is _INDIRECT_JUMP:
            table = program.jump_targets.get(routine.address_of(index))
            if table is None:
                kinds[index] = _UNKNOWN
            else:
                kinds[index] = _MULTIWAY
                targets[index] = [
                    _target_index(routine, index, target) for target in table
                ]
                leaders.update(targets[index])
        elif control is _RET:
            kinds[index] = _RETURN
        elif control is _HALT:
            kinds[index] = TerminatorKind.HALT
        else:  # pragma: no cover - exhaustive
            raise AssertionError(control)
        leaders.add(index + 1)
    last = rows[-1][0]
    if last is _FALLTHROUGH or last is _COND_BRANCH:
        raise CfgError(
            f"{routine.name!r}: control falls off the end of the routine"
        )
    leaders.discard(count)

    # 2: one pass over the block bounds
    starts = sorted(leaders)
    block_of = {start: block for block, start in enumerate(starts)}
    bounds = list(zip(starts, starts[1:] + [count]))
    successors: List[Tuple[int, ...]] = []
    terminators: List[TerminatorKind] = []
    ubd: List[int] = []
    defs: List[int] = []
    calls: List[int] = []
    exits: List[Tuple[int, ExitKind]] = []
    for block, (start, stop) in enumerate(bounds):
        used = defined = 0
        for row in rows[start:stop]:  # row[1]/row[2]: use/def masks
            used |= row[1] & ~defined
            defined |= row[2]
        ubd.append(used)
        defs.append(defined)
        kind = kinds.get(stop - 1, _NEXT)
        terminators.append(kind)
        if kind is _COND:
            taken = block_of[targets[stop - 1][0]]
            successors.append((taken,) if taken == block + 1 else (taken, block + 1))
        elif kind is _CALL:
            successors.append((block + 1,))
            calls.append(block)
        elif kind is _UNCOND:
            successors.append((block_of[targets[stop - 1][0]],))
        elif kind is _NEXT:
            successors.append((block + 1,))
        elif kind is _MULTIWAY:
            successors.append(
                tuple(dict.fromkeys(block_of[target] for target in targets[stop - 1]))
            )
        else:
            successors.append(())
            exits.append((
                block,
                _EXIT_RETURN if kind is _RETURN
                else _EXIT_UNKNOWN if kind is _UNKNOWN
                else _EXIT_HALT,
            ))

    # 3: call sites, in block order
    recorded_sites = [_record_site(rows, block, *bounds[block]) for block in calls]
    call_sites = resolve_call_sites(program, routine, recorded_sites)
    assert call_sites is not None  # a walk's sites are calls of their kind

    # 4: the §3.4 save/restore pattern
    saved = 0
    for register in stack_saves(
        rows,
        bounds[0][1],
        [(*bounds[block], kind) for block, kind in exits],
    ):
        saved |= 1 << register

    cfg = ControlFlowGraph(
        routine=routine,
        starts=starts,
        successors=successors,
        terminators=terminators,
        ubd=ubd,
        defs=defs,
        call_sites=call_sites,
        recorded_sites=recorded_sites,
        exits=exits,
        saved=saved,
    )
    cfg.check()
    return cfg


def build_all_cfgs(program: Program) -> Dict[str, ControlFlowGraph]:
    """Build the CFG for every routine of ``program``."""
    return {routine.name: build_cfg(program, routine) for routine in program}


class LazyCfgs(Mapping):
    """Every routine's CFG, by name, in program order, each built by
    :func:`build_cfg` on first access and kept: ``len``, iteration and
    ``in`` walk nothing.  ``built`` is the plain dict of what exists so
    far; a CFG taken out of it is walked again on its next access.
    ``walks`` counts the walks.

    Not synchronized: fill it under whatever serializes the analysis
    that owns it (the daemon's per-entry lock).
    """

    def __init__(self, program: Program) -> None:
        self._program = program
        self._routines = {routine.name: routine for routine in program}
        self.built: Dict[str, ControlFlowGraph] = {}
        self.walks = 0

    def __getitem__(self, name: str) -> ControlFlowGraph:
        cfg = self.built.get(name)
        if cfg is None:
            cfg = self.built[name] = build_cfg(self._program, self._routines[name])
            self.walks += 1
        return cfg

    def __contains__(self, name: object) -> bool:
        return name in self._routines

    def __iter__(self) -> Iterator[str]:
        return iter(self._routines)

    def __len__(self) -> int:
        return len(self._routines)


def _branch_target(
    routine: Routine, index: int, displacement: int, count: int
) -> int:
    """Instruction index targeted by a PC-relative branch of the
    ``count``-instruction ``routine``."""
    target = index + 1 + displacement
    if not 0 <= target < count:
        raise CfgError(
            f"{routine.name!r}: branch at {routine.address_of(index):#x} "
            f"targets instruction {target}, outside the routine"
        )
    return target


def _target_index(routine: Routine, jump_index: int, address: int) -> int:
    """Instruction index of a jump-table target address (one off an
    instruction boundary is outside every instruction of the routine)."""
    offset = address - routine.address
    if not routine.contains(address) or offset % INSTRUCTION_SIZE:
        raise CfgError(
            f"{routine.name!r}: jump table at "
            f"{routine.address_of(jump_index):#x} targets {address:#x}, "
            f"outside the routine"
        )
    return offset // INSTRUCTION_SIZE


def _record_site(
    rows: Sequence[tuple], block: int, start: int, stop: int
) -> RecordedSite:
    """The shape-determined half of the call ending the block
    ``[start, stop)``: an indirect call's target register is resolved to
    a constant by backward tracking through the block (also under a
    hint, which may be gone from the next image while the code is
    not)."""
    row = rows[stop - 1]  # row[0] is the control kind, row[6] rb
    if row[0] is _CALL_DIRECT:
        return _new_row(RecordedSite, (block, stop - 1, False, None))
    constant = resolve_register_constant(rows[start:stop], stop - 1 - start, row[6])
    return _new_row(RecordedSite, (block, stop - 1, True, constant))


def stack_saves(
    rows: Sequence[tuple],
    entry_stop: int,
    exits: Sequence[Tuple[int, int, ExitKind]],
) -> Dict[int, Tuple[int, int, Tuple[int, ...]]]:
    """Registers saved in the prologue and restored on every return.

    A **save** is a store of a register to a stack slot (``stq rs,
    k(sp)`` / ``stt fs, k(sp)``) in the entry block — instruction rows
    ``rows[:entry_stop]`` — before any other definition of that
    register; a **restore** is a load of the same register from the same
    slot that is the last write to it in a RETURN exit block.  ``exits``
    lists the exit blocks as ``(start, stop, kind)``.  HALT exits need
    not restore (control never returns through them); an UNKNOWN_JUMP
    exit disqualifies every register (nobody can see whether it is
    restored wherever control ends up), and so does having no RETURN
    exit at all.

    Returns register index -> (slot, save index, restore indices in exit
    order) for every register — :mod:`repro.interproc.savedregs` keeps
    the calling convention's callee-saved ones (§3.4).
    """
    slots: Dict[int, Tuple[int, int]] = {}
    defined = 0
    for index in range(entry_stop):
        _control, _uses, defs, displacement, opcode, ra, rb, _rc, _literal = (
            rows[index]
        )
        if rb == STACK_POINTER and opcode in STACK_STORES:
            if not defined >> ra & 1:
                slots.setdefault(ra, (displacement, index))
        defined |= defs
    if not slots or any(kind is _EXIT_UNKNOWN for *_, kind in exits):
        return {}
    returns = [(start, stop) for start, stop, kind in exits if kind is _EXIT_RETURN]
    found: Dict[int, Tuple[int, int, Tuple[int, ...]]] = {}
    for register, (slot, save_index) in slots.items():
        restores = []
        for start, stop in returns:
            restore = _restore_index(rows, start, stop, register, slot)
            if restore is None:
                break
            restores.append(restore)
        else:
            if restores:
                found[register] = (slot, save_index, tuple(restores))
    return found


def _restore_index(
    rows: Sequence[tuple], start: int, stop: int, register: int, slot: int
) -> Optional[int]:
    """Index of the block's last write to ``register`` when that write
    reloads it from ``slot``."""
    for index in range(stop - 1, start - 1, -1):
        row = rows[index]  # row[2] is the def mask, row[4] the opcode, row[5] ra
        if row[2] >> register & 1:
            if frame_slot(row) == slot and row[4] in STACK_LOADS and row[5] == register:
                return index
            return None
    return None


def frame_slot(row: tuple) -> Optional[int]:
    """The slot an instruction row loads or stores through ``sp``, or
    ``None``."""
    if row[6] == STACK_POINTER and (row[4] in STACK_LOADS or row[4] in STACK_STORES):
        return row[3]
    return None


def frame_accesses(rows: Sequence[tuple]) -> Dict[int, List[int]]:
    """Frame slot -> indices of the instruction rows that access it."""
    accesses: Dict[int, List[int]] = {}
    for index, row in enumerate(rows):
        slot = frame_slot(row)
        if slot is not None:
            accesses.setdefault(slot, []).append(index)
    return accesses


def resolve_call_sites(
    program: Program, routine: Routine, sites: Sequence[RecordedSite]
) -> Optional[List[CallSite]]:
    """Whom each of ``routine``'s recorded ``sites`` reaches in
    ``program``: the call sites of :func:`build_cfg` (which passes the
    sites of its walk) and of a warm front end (which passes a
    front-end record's).

    ``None`` when the sites cannot be describing this routine — one is
    not a call of the recorded kind, or has no return point — and the
    caller then walks the routine as if there had been no record.
    Otherwise raises :class:`CfgError`, site by site, for a ``bsr`` or a
    hint naming a non-entry.  An indirect call's linker target-set hint
    wins (§3.5's suggested improvement); otherwise its recorded
    constant, if that names a routine entry.
    """
    rows = routine.rows
    last = len(rows) - 1
    for _block, index, indirect, _constant in sites:
        if index >= last or rows[index][0] is not (
            _CALL_INDIRECT if indirect else _CALL_DIRECT
        ):
            return None
    routine_at = program.routine_at
    hints = program.call_target_hints
    name = routine.name
    base = routine.address
    resolved: List[CallSite] = []
    append = resolved.append
    for block, index, indirect, constant in sites:
        call_address = base + INSTRUCTION_SIZE * index
        if not indirect:
            # row[3] is the displacement
            target = call_address + INSTRUCTION_SIZE * (1 + rows[index][3])
            callee = routine_at(target)
            if callee is None:
                raise CfgError(
                    f"{name!r}: bsr at {call_address:#x} targets "
                    f"{target:#x}, not a routine entry"
                )
            append(_new_row(CallSite, (block, index, (callee.name,), False)))
            continue
        hinted = hints.get(call_address)
        if hinted:
            names = []
            for target in hinted:
                callee = routine_at(target)
                if callee is None:
                    raise CfgError(
                        f"{name!r}: call-target hint at {call_address:#x} "
                        f"names {target:#x}, not a routine entry"
                    )
                names.append(callee.name)
            append(_new_row(CallSite, (block, index, tuple(names), True)))
            continue
        callee = None if constant is None else routine_at(constant)
        targets = () if callee is None else (callee.name,)
        append(_new_row(CallSite, (block, index, targets, True)))
    return resolved


def resolve_register_constant(
    rows: Sequence[tuple], upto: int, register: int
) -> Optional[int]:
    """Resolve the value of ``register`` just before instruction row
    ``rows[upto]``.

    Walks backward through the straight-line prefix, following
    ``lda``/``ldah`` address-materialization chains and register moves
    (``bis zero, rs, rd``).  Returns the constant value or ``None`` when
    the value is not a visible constant.
    """
    target = register
    addend = 0
    for index in range(upto - 1, -1, -1):
        _control, _uses, defs, displacement, opcode, ra, rb, _rc, literal = (
            rows[index]
        )
        if not defs >> target & 1:
            continue
        if opcode is Opcode.LDA:
            addend += displacement
            if rb == ZERO_REGISTER:
                return addend
            target = rb
        elif opcode is Opcode.LDAH:
            addend += displacement << 16
            if rb == ZERO_REGISTER:
                return addend
            target = rb
        elif opcode is Opcode.BIS and literal is None and ra == ZERO_REGISTER:
            target = rb
        elif opcode is Opcode.BIS and literal is None and rb == ZERO_REGISTER:
            target = ra
        else:
            return None
    return None
