"""The decoded program model.

After loading an executable image, the analysis works on a
:class:`Program`: a collection of :class:`Routine` objects (the paper's
"routines": instruction sequences generated for high-level procedures,
with a single entry and one or more exits), plus the interprocedural
facts recovered from the image — jump-table target sets and the export
list.

A routine *is* its code: its slice of 32-bit words is the one thing
anything edits (the rewriter, the optimizer's renames and the
benchmark's mutations all go through
:func:`repro.isa.encoding.replace_fields`), and its decoded rows
(:func:`repro.isa.encoding.decode_row`) are the one read-only view of
it, which the analysis, the optimizer, the simulator and the listings
all read.

Addresses are byte addresses in the image's address space; every
instruction occupies 4 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.isa.encoding import INSTRUCTION_SIZE, decode_rows
from repro.isa.instructions import ControlKind


class ProgramError(ValueError):
    """Raised for structurally invalid programs."""


@dataclass
class Routine:
    """A routine: a named, contiguous run of code words.

    Word ``i`` of ``code`` lives at ``address + 4 * i``.  A routine is
    never changed in place: editing one builds a new one from new words,
    and two routines are equal when their names, addresses, code and
    export flags are.  ``rows`` holds one decoded row per word
    (:func:`repro.isa.encoding.decode_row`), what every reader reads:
    handed over by the disassembler and the rewriter (:meth:`lifted`,
    :meth:`relinked`), decoded on first read otherwise.
    """

    name: str
    address: int
    code: bytes
    exported: bool = False

    def __post_init__(self) -> None:
        count, partial = divmod(len(self.code), INSTRUCTION_SIZE)
        if partial:
            raise ProgramError(
                f"routine {self.name!r} ends in a partial instruction"
            )
        self._count = count
        self._rows: Optional[Tuple[tuple, ...]] = None
        self._check()

    @classmethod
    def lifted(
        cls,
        name: str,
        address: int,
        code: bytes,
        rows: Tuple[tuple, ...],
        exported: bool,
    ) -> "Routine":
        """The routine whose code bytes ``code`` decode to ``rows``,
        unchecked: the image it was lifted from has been validated
        (:meth:`repro.program.image.ExecutableImage.validate`)."""
        routine = cls.__new__(cls)
        routine.name = name
        routine.address = address
        routine.code = code
        routine.exported = exported
        routine._count = len(rows)
        routine._rows = rows
        return routine

    def _check(self) -> None:
        if not self._count:
            raise ProgramError(f"routine {self.name!r} has no instructions")
        if self.address % INSTRUCTION_SIZE:
            raise ProgramError(
                f"routine {self.name!r} at unaligned address {self.address:#x}"
            )

    def relinked(
        self, address: int, code: bytes, rows: Tuple[tuple, ...]
    ) -> "Routine":
        """This routine at ``address`` with code ``code``, whose rows
        are ``rows``.  Code equal to its own keeps its own code bytes and
        rows, and the routine itself when the address is its own too.
        An edit may have deleted every word: the result is checked."""
        if code == self.code:
            if address == self.address:
                return self
            code, rows = self.code, self.rows
        routine = Routine.lifted(self.name, address, code, rows, self.exported)
        routine._check()
        return routine

    @property
    def rows(self) -> Tuple[tuple, ...]:
        """One decoded row per word."""
        if self._rows is None:
            self._rows = decode_rows(self.code)
        return self._rows

    @property
    def size(self) -> int:
        """Code size in bytes."""
        return self._count * INSTRUCTION_SIZE

    @property
    def end(self) -> int:
        """One past the last code byte."""
        return self.address + self.size

    def address_of(self, index: int) -> int:
        """Address of ``rows[index]``."""
        if not 0 <= index < self._count:
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
        return self._count


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
        names: Set[str] = set()
        for routine in self.routines:
            if routine.name in names:
                raise ProgramError(f"duplicate routine name {routine.name!r}")
            names.add(routine.name)
        ordered = sorted(self.routines, key=lambda r: r.address)
        for before, after in zip(ordered, ordered[1:]):
            if after.address < before.end:
                raise ProgramError(
                    f"routines {before.name!r} and {after.name!r} overlap"
                )
        if self.entry not in names:
            raise ProgramError(f"entry routine {self.entry!r} not present")
        self._index(ordered)

    @classmethod
    def lifted(
        cls,
        routines: List[Routine],
        entry: str,
        jump_targets: Dict[int, Tuple[int, ...]],
        data: bytes,
        data_base: int,
        jump_table_locations: Dict[int, int],
        data_relocations: List[int],
        call_target_hints: Dict[int, Tuple[int, ...]],
    ) -> "Program":
        """The program of ``routines``, unchecked: they are in address
        order, disjoint and named apart, and ``entry`` names one of
        them — the routines of an image that
        :meth:`~repro.program.image.ExecutableImage.validate` passed."""
        program = cls.__new__(cls)
        program.routines = routines
        program.entry = entry
        program.jump_targets = jump_targets
        program.data = data
        program.data_base = data_base
        program.jump_table_locations = jump_table_locations
        program.data_relocations = data_relocations
        program.call_target_hints = call_target_hints
        program._index(routines)
        return program

    def _index(self, ordered: List[Routine]) -> None:
        """Look-ups over ``ordered``, the routines in address order."""
        self._ordered: List[Routine] = ordered
        self._by_name: Dict[str, Routine] = {r.name: r for r in ordered}
        self._by_entry: Dict[int, Routine] = {r.address: r for r in ordered}

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


def program_statistics(program: Program) -> Dict[str, float]:
    """Whole-program statistics in the units of Table 2/3.

    Returns routine count, instruction count and per-routine averages of
    calls and conditional branches (block counts come from the CFG layer).
    """
    calls = 0
    branches = 0
    for routine in program:
        for row in routine.rows:
            control = row[0]
            calls += control in (ControlKind.CALL_DIRECT, ControlKind.CALL_INDIRECT)
            branches += control in (ControlKind.COND_BRANCH, ControlKind.INDIRECT_JUMP)
    count = max(program.routine_count, 1)
    return {
        "routines": float(program.routine_count),
        "instructions": float(program.instruction_count),
        "calls_per_routine": calls / count,
        "branches_per_routine": branches / count,
    }
