"""Register sets as immutable int-backed bit vectors.

The paper's dataflow sets (MAY-USE, MAY-DEF, MUST-DEF, DEF, UBD,
live-at-entry, live-at-exit, call-used, call-defined, call-killed) are
all sets of machine registers — classic bit vectors.  With 64
architectural registers, a set fits in one machine word; in Python we
represent it as an int bitmask, which makes union/intersection/
difference single arithmetic operations.

Inner loops of the solvers work on raw masks for speed.
:class:`RegisterSet` is the immutable, hashable wrapper used at API
boundaries; it supports the full set algebra via operators.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Iterable, Iterator, List, Tuple

from repro.isa.registers import (
    ALL_REGISTERS,
    FLOAT_ZERO_REGISTER,
    NUM_REGISTERS,
    Register,
    RegisterLike,
    ZERO_REGISTER,
    register_index,
)

#: Bitmask covering every architectural register.
FULL_MASK: int = (1 << NUM_REGISTERS) - 1

#: Bitmask of the registers the analysis tracks: everything except the
#: hardwired zero registers, which carry no dataflow.
TRACKED_MASK: int = FULL_MASK & ~(1 << ZERO_REGISTER) & ~(1 << FLOAT_ZERO_REGISTER)


def mask_of(registers: Iterable[RegisterLike]) -> int:
    """Build a raw bitmask from register-like values."""
    mask = 0
    for register in registers:
        mask |= 1 << register_index(register)
    return mask


def iter_mask(mask: int) -> Iterator[int]:
    """Yield the register indices set in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=4096)
def sorted_names(mask: int) -> Tuple[str, ...]:
    """Sorted member names of ``mask``, as JSON shows a register set.
    Memoized: a payload renders the same few hundred masks thousands of
    times (callers copy the tuple into a fresh list)."""
    if not 0 <= mask <= FULL_MASK:
        raise ValueError(f"mask {mask:#x} exceeds the register file")
    return tuple(sorted(ALL_REGISTERS[index].name for index in iter_mask(mask)))


# Every RegisterSet construction (including the one behind each set
# operator) bumps this process-local count.  It is deliberately a bare
# dict increment rather than a registry call: this is the hottest
# API-boundary path, and the observability layer folds the delta into
# ``regset.constructed`` once per run instead.
_STATS = {"constructed": 0}


def construction_count() -> int:
    """Cumulative number of RegisterSet objects built in this process."""
    return _STATS["constructed"]


class RegisterSet:
    """An immutable set of registers.

    Construct from register-like values (``Register``, index, or name)
    or adopt a raw mask with :meth:`from_mask`:

    >>> s = RegisterSet(["r1", "r2"])
    >>> "r1" in s, "r3" in s
    (True, False)
    >>> (s | RegisterSet(["r3"])).mask == RegisterSet(["r1", "r2", "r3"]).mask
    True
    """

    __slots__ = ("_mask",)

    def __init__(self, registers: Iterable[RegisterLike] = ()) -> None:
        self._mask = mask_of(registers)
        _STATS["constructed"] += 1

    @classmethod
    def from_mask(cls, mask: int) -> "RegisterSet":
        """Adopt a raw bitmask (must fit the register file)."""
        if not 0 <= mask <= FULL_MASK:
            raise ValueError(f"mask {mask:#x} exceeds the register file")
        instance = cls.__new__(cls)
        instance._mask = mask
        _STATS["constructed"] += 1
        return instance

    @property
    def mask(self) -> int:
        """The raw bitmask."""
        return self._mask

    # -- set algebra ----------------------------------------------------

    def __or__(self, other: "RegisterSet") -> "RegisterSet":
        return RegisterSet.from_mask(self._mask | other._mask)

    def __and__(self, other: "RegisterSet") -> "RegisterSet":
        return RegisterSet.from_mask(self._mask & other._mask)

    def __sub__(self, other: "RegisterSet") -> "RegisterSet":
        return RegisterSet.from_mask(self._mask & ~other._mask & FULL_MASK)

    def __xor__(self, other: "RegisterSet") -> "RegisterSet":
        return RegisterSet.from_mask(self._mask ^ other._mask)

    def union(self, *others: "RegisterSet") -> "RegisterSet":
        mask = self._mask
        for other in others:
            mask |= other._mask
        return RegisterSet.from_mask(mask)

    def intersection(self, *others: "RegisterSet") -> "RegisterSet":
        mask = self._mask
        for other in others:
            mask &= other._mask
        return RegisterSet.from_mask(mask)

    def difference(self, other: "RegisterSet") -> "RegisterSet":
        return self - other

    def complement(self) -> "RegisterSet":
        """All registers not in this set."""
        return RegisterSet.from_mask(~self._mask & FULL_MASK)

    def add(self, register: RegisterLike) -> "RegisterSet":
        """A new set with ``register`` included."""
        return RegisterSet.from_mask(self._mask | (1 << register_index(register)))

    def remove(self, register: RegisterLike) -> "RegisterSet":
        """A new set with ``register`` excluded."""
        mask = self._mask & ~(1 << register_index(register))
        return RegisterSet.from_mask(mask & FULL_MASK)

    # -- predicates -------------------------------------------------------

    def __contains__(self, register: RegisterLike) -> bool:
        return bool(self._mask >> register_index(register) & 1)

    def issubset(self, other: "RegisterSet") -> bool:
        return self._mask & ~other._mask == 0

    def issuperset(self, other: "RegisterSet") -> bool:
        return other._mask & ~self._mask == 0

    def isdisjoint(self, other: "RegisterSet") -> bool:
        return self._mask & other._mask == 0

    def __bool__(self) -> bool:
        return self._mask != 0

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RegisterSet):
            return self._mask == other._mask
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("RegisterSet", self._mask))

    # -- iteration / presentation -----------------------------------------

    def __iter__(self) -> Iterator[Register]:
        # Interned instances from the ISA table: iterating a set never
        # constructs (or range-checks) a Register per member.
        return (ALL_REGISTERS[index] for index in iter_mask(self._mask))

    def registers(self) -> List[Register]:
        """Members as a sorted list."""
        return list(self)

    def names(self) -> FrozenSet[str]:
        """Member names as a frozen set of strings."""
        return frozenset(register.name for register in self)

    def __repr__(self) -> str:
        members = ", ".join(register.name for register in self)
        return f"{{{members}}}"


#: The empty register set.
EMPTY_SET: RegisterSet = RegisterSet.from_mask(0)

#: The set of all registers.
UNIVERSE: RegisterSet = RegisterSet.from_mask(FULL_MASK)
