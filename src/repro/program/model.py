"""The decoded program model.

After loading an executable image, the analysis works on a
:class:`Program`: a collection of :class:`Routine` objects (the paper's
"routines": instruction sequences generated for high-level procedures,
with a single entry and one or more exits), plus the interprocedural
facts recovered from the image — jump-table target sets and the export
list.

Addresses are byte addresses in the image's address space; every
instruction occupies 4 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.isa.encoding import INSTRUCTION_SIZE, encode_stream
from repro.isa.instructions import Instruction


class ProgramError(ValueError):
    """Raised for structurally invalid programs."""


@dataclass
class Routine:
    """A routine: a named, contiguous sequence of instructions.

    ``instructions[i]`` lives at ``address + 4 * i``.  The sequence is
    stored as a tuple: editing a routine means building a new one (as
    the rewriter and :func:`repro.workloads.mutate.perturb_routine`
    do), which is what lets a lifted routine keep its image bytes.
    """

    name: str
    address: int
    instructions: Tuple[Instruction, ...]
    exported: bool = False
    #: The routine's code bytes: the slice of the image's text section
    #: it was decoded from when the disassembler built it, else ``None``
    #: until :meth:`code_bytes` first encodes ``instructions`` (never
    #: copied by ``dataclasses.replace`` and not part of equality).  It
    #: saves re-encoding ``instructions`` every time something hashes
    #: them; see :mod:`repro.interproc.frontend`.
    code: Optional[bytes] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        self.instructions = tuple(self.instructions)
        if not self.instructions:
            raise ProgramError(f"routine {self.name!r} has no instructions")
        if self.address % INSTRUCTION_SIZE:
            raise ProgramError(
                f"routine {self.name!r} at unaligned address {self.address:#x}"
            )

    def code_bytes(self) -> bytes:
        """The encoded instructions (the image's own bytes for a lifted
        routine; encoded once and kept otherwise)."""
        if self.code is None:
            self.code = encode_stream(self.instructions)
        return self.code

    @property
    def size(self) -> int:
        """Code size in bytes."""
        return len(self.instructions) * INSTRUCTION_SIZE

    @property
    def end(self) -> int:
        """One past the last code byte."""
        return self.address + self.size

    def address_of(self, index: int) -> int:
        """Address of ``instructions[index]``."""
        if not 0 <= index < len(self.instructions):
            raise IndexError(index)
        return self.address + index * INSTRUCTION_SIZE

    def index_of(self, address: int) -> int:
        """Instruction index at ``address`` within this routine."""
        offset = address - self.address
        if offset < 0 or offset >= self.size or offset % INSTRUCTION_SIZE:
            raise ProgramError(
                f"address {address:#x} is not an instruction of {self.name!r}"
            )
        return offset // INSTRUCTION_SIZE

    def contains(self, address: int) -> bool:
        """True when ``address`` is inside this routine's code."""
        return self.address <= address < self.end

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)


@dataclass
class Program:
    """A whole decoded program.

    ``jump_targets`` maps the address of each indirect ``jmp`` with a
    recovered jump table to the tuple of its target addresses; indirect
    jumps absent from the map have *unknown* targets and are treated
    conservatively (§3.5).
    """

    routines: List[Routine]
    entry: str
    jump_targets: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    data: bytes = b""
    data_base: int = 0
    #: jmp instruction address -> address of its table in the data
    #: section (kept so the binary rewriter can patch table entries).
    jump_table_locations: Dict[int, int] = field(default_factory=dict)
    #: data-section addresses of 8-byte words holding code addresses
    #: (function-pointer tables); the rewriter relocates them.
    data_relocations: List[int] = field(default_factory=list)
    #: jsr instruction address -> tuple of possible target entry
    #: addresses (linker-provided §3.5 hints).
    call_target_hints: Dict[int, Tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._by_name: Dict[str, Routine] = {}
        for routine in self.routines:
            if routine.name in self._by_name:
                raise ProgramError(f"duplicate routine name {routine.name!r}")
            self._by_name[routine.name] = routine
        ordered = sorted(self.routines, key=lambda r: r.address)
        for before, after in zip(ordered, ordered[1:]):
            if after.address < before.end:
                raise ProgramError(
                    f"routines {before.name!r} and {after.name!r} overlap"
                )
        self._by_entry: Dict[int, Routine] = {
            routine.address: routine for routine in self.routines
        }
        self._ordered: List[Routine] = ordered
        if self.entry not in self._by_name:
            raise ProgramError(f"entry routine {self.entry!r} not present")

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def routine(self, name: str) -> Routine:
        """The routine called ``name``."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ProgramError(f"no routine named {name!r}") from None

    def routine_names(self) -> List[str]:
        """All routine names, in address order."""
        return [routine.name for routine in self._ordered]

    @property
    def entry_routine(self) -> Routine:
        """The program's entry routine."""
        return self._by_name[self.entry]

    def routine_at(self, address: int) -> Optional[Routine]:
        """The routine whose *entry* is at ``address``, if any."""
        return self._by_entry.get(address)

    def routine_containing(self, address: int) -> Optional[Routine]:
        """The routine whose code contains ``address``, if any."""
        low, high = 0, len(self._ordered) - 1
        while low <= high:
            mid = (low + high) // 2
            routine = self._ordered[mid]
            if address < routine.address:
                high = mid - 1
            elif address >= routine.end:
                low = mid + 1
            else:
                return routine
        return None

    def instruction_at(self, address: int) -> Tuple[Routine, int]:
        """The (routine, index) of the instruction at ``address``."""
        routine = self.routine_containing(address)
        if routine is None:
            raise ProgramError(f"address {address:#x} is not in any routine")
        return routine, routine.index_of(address)

    # ------------------------------------------------------------------
    # Statistics (the units the paper's tables report)
    # ------------------------------------------------------------------

    @property
    def routine_count(self) -> int:
        return len(self.routines)

    @property
    def instruction_count(self) -> int:
        return sum(len(routine) for routine in self.routines)

    def exported_routines(self) -> List[Routine]:
        """Routines callable from outside the image."""
        return [routine for routine in self._ordered if routine.exported]

    def __iter__(self) -> Iterator[Routine]:
        return iter(self._ordered)


def check_single_entry(program: Program) -> None:
    """Validate the paper's routine model: no branch in one routine may
    target the middle of another routine (routines have a single entry).

    Raises :class:`ProgramError` on violation.  Call targets (BSR) must be
    routine entry addresses.
    """
    entries = {routine.address for routine in program.routines}
    for routine in program:
        for index, instruction in enumerate(routine.instructions):
            control = instruction.opcode.control
            if control.name in ("COND_BRANCH", "UNCOND_BRANCH"):
                target = (
                    routine.address_of(index)
                    + INSTRUCTION_SIZE
                    + instruction.displacement * INSTRUCTION_SIZE
                )
                if not routine.contains(target):
                    raise ProgramError(
                        f"{routine.name!r}: branch at {routine.address_of(index):#x} "
                        f"targets {target:#x} outside the routine"
                    )
            elif control.name == "CALL_DIRECT":
                target = (
                    routine.address_of(index)
                    + INSTRUCTION_SIZE
                    + instruction.displacement * INSTRUCTION_SIZE
                )
                if target not in entries:
                    raise ProgramError(
                        f"{routine.name!r}: call at {routine.address_of(index):#x} "
                        f"targets {target:#x}, not a routine entry"
                    )
    for jump_address, targets in program.jump_targets.items():
        owner = program.routine_containing(jump_address)
        if owner is None:
            raise ProgramError(f"jump table owner {jump_address:#x} not in code")
        for target in targets:
            if not owner.contains(target):
                raise ProgramError(
                    f"{owner.name!r}: jump table at {jump_address:#x} has target "
                    f"{target:#x} outside the routine"
                )


def program_statistics(program: Program) -> Dict[str, float]:
    """Whole-program statistics in the units of Table 2/3.

    Returns routine count, instruction count and per-routine averages of
    calls and conditional branches (block counts come from the CFG layer).
    """
    calls = 0
    branches = 0
    for routine in program:
        for instruction in routine:
            if instruction.is_call:
                calls += 1
            elif instruction.opcode.control.name == "COND_BRANCH":
                branches += 1
            elif instruction.opcode.control.name == "INDIRECT_JUMP":
                branches += 1
    count = max(program.routine_count, 1)
    return {
        "routines": float(program.routine_count),
        "instructions": float(program.instruction_count),
        "calls_per_routine": calls / count,
        "branches_per_routine": branches / count,
    }
