"""The Alpha register file.

The Alpha architecture has 32 integer registers (``r0`` .. ``r31``) and 32
floating-point registers (``f0`` .. ``f31``).  Register ``r31`` and ``f31``
always read as zero and discard writes.  Spike's dataflow analysis tracks
all 64 registers uniformly; a register is identified by a small integer
index in ``[0, 64)`` where indices ``0..31`` are the integer registers and
``32..63`` are the floating-point registers.

The conventional Alpha software names (``v0``, ``t0``–``t11``, ``s0``–``s5``,
``a0``–``a5``, ``ra``, ``pv``, ``at``, ``gp``, ``sp``, ``zero``) are
provided for readability in assembly listings and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

#: Total number of architectural registers tracked by the analysis.
NUM_REGISTERS = 64

#: Number of integer registers (indices ``0..31``).
NUM_INTEGER_REGISTERS = 32

#: Number of floating-point registers (indices ``32..63``).
NUM_FLOAT_REGISTERS = 32

#: Index of the integer zero register ``r31``.
ZERO_REGISTER = 31

#: Index of the floating-point zero register ``f31``.
FLOAT_ZERO_REGISTER = 63

#: Index of the stack pointer ``r30`` (``sp``).
STACK_POINTER = 30

#: Index of the return-address register ``r26`` (``ra``).
RETURN_ADDRESS = 26

#: Index of the procedure-value register ``r27`` (``pv`` / ``t12``).
PROCEDURE_VALUE = 27

#: Index of the global-pointer register ``r29`` (``gp``).
GLOBAL_POINTER = 29

#: Index of the frame-pointer register ``r15`` (``fp`` / ``s6``).
FRAME_POINTER = 15


@dataclass(frozen=True, order=True)
class Register:
    """An architectural register, identified by its index.

    ``Register`` is a tiny value type: two registers compare equal exactly
    when their indices are equal, and registers sort by index.  The class
    carries helpers to map between indices, hardware names (``r4``,
    ``f2``) and software names (``t3``, ``s0``).
    """

    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < NUM_REGISTERS:
            raise ValueError(
                f"register index {self.index} out of range [0, {NUM_REGISTERS})"
            )

    @property
    def is_integer(self) -> bool:
        """True for ``r0``..``r31``."""
        return self.index < NUM_INTEGER_REGISTERS

    @property
    def is_float(self) -> bool:
        """True for ``f0``..``f31``."""
        return self.index >= NUM_INTEGER_REGISTERS

    @property
    def is_zero(self) -> bool:
        """True for the hardwired zero registers ``r31`` and ``f31``."""
        return self.index in (ZERO_REGISTER, FLOAT_ZERO_REGISTER)

    @property
    def hardware_name(self) -> str:
        """The architectural name: ``r<n>`` or ``f<n>``."""
        if self.is_integer:
            return f"r{self.index}"
        return f"f{self.index - NUM_INTEGER_REGISTERS}"

    @property
    def name(self) -> str:
        """The conventional software name (falls back to hardware name)."""
        name = _SOFTWARE_NAMES.get(self.index)
        return self.hardware_name if name is None else name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Register({self.name})"

    def __str__(self) -> str:
        return self.name

    @classmethod
    def integer(cls, number: int) -> "Register":
        """The integer register ``r<number>``."""
        if not 0 <= number < NUM_INTEGER_REGISTERS:
            raise ValueError(f"no integer register r{number}")
        return cls(number)

    @classmethod
    def float(cls, number: int) -> "Register":
        """The floating-point register ``f<number>``."""
        if not 0 <= number < NUM_FLOAT_REGISTERS:
            raise ValueError(f"no float register f{number}")
        return cls(NUM_INTEGER_REGISTERS + number)

    @classmethod
    def parse(cls, text: str) -> "Register":
        """Parse a register from its hardware or software name.

        >>> Register.parse("r4").index
        4
        >>> Register.parse("sp").index
        30
        >>> Register.parse("f2").index
        34
        """
        name = text.strip().lower()
        if name in _NAME_TO_INDEX:
            return cls(_NAME_TO_INDEX[name])
        raise ValueError(f"unknown register name {text!r}")


def _build_software_names() -> Dict[int, str]:
    """Alpha software register names per the calling standard."""
    names: Dict[int, str] = {0: "v0"}
    for i in range(8):  # t0..t7 = r1..r8
        names[1 + i] = f"t{i}"
    for i in range(6):  # s0..s5 = r9..r14
        names[9 + i] = f"s{i}"
    names[FRAME_POINTER] = "fp"
    for i in range(6):  # a0..a5 = r16..r21
        names[16 + i] = f"a{i}"
    for i in range(4):  # t8..t11 = r22..r25
        names[22 + i] = f"t{8 + i}"
    names[RETURN_ADDRESS] = "ra"
    names[PROCEDURE_VALUE] = "pv"
    names[28] = "at"
    names[GLOBAL_POINTER] = "gp"
    names[STACK_POINTER] = "sp"
    names[ZERO_REGISTER] = "zero"
    return names


_SOFTWARE_NAMES: Dict[int, str] = _build_software_names()


def _build_name_table() -> Dict[str, int]:
    table: Dict[str, int] = {}
    for index in range(NUM_REGISTERS):
        reg = Register(index)
        table[reg.hardware_name] = index
    for index, name in _SOFTWARE_NAMES.items():
        table[name] = index
    # The floating zero register also answers to "fzero".
    table["fzero"] = FLOAT_ZERO_REGISTER
    return table


_NAME_TO_INDEX: Dict[str, int] = _build_name_table()

#: All integer registers, in index order.
INTEGER_REGISTERS: Tuple[Register, ...] = tuple(
    Register(i) for i in range(NUM_INTEGER_REGISTERS)
)

#: All floating-point registers, in index order.
FLOAT_REGISTERS: Tuple[Register, ...] = tuple(
    Register(NUM_INTEGER_REGISTERS + i) for i in range(NUM_FLOAT_REGISTERS)
)

#: All registers, in index order.
ALL_REGISTERS: Tuple[Register, ...] = INTEGER_REGISTERS + FLOAT_REGISTERS


def all_registers() -> Iterator[Register]:
    """Iterate over every architectural register in index order."""
    return iter(ALL_REGISTERS)


#: What names a register: a :class:`Register`, an index or a name.
RegisterLike = Union[Register, int, str]


def register_index(value: RegisterLike) -> int:
    """The index of a register-like value (raises :class:`ValueError`)."""
    if isinstance(value, Register):
        return value.index
    if isinstance(value, int):
        if not 0 <= value < NUM_REGISTERS:
            raise ValueError(f"register index {value} out of range")
        return value
    return Register.parse(value).index


class RegisterFile:
    """A concrete register file holding 64-bit values.

    Used by the interpreter (:mod:`repro.sim`).  Reads of the zero
    registers always return 0 and writes to them are discarded, exactly as
    on real Alpha hardware.  Values are kept as Python ints and wrapped to
    64-bit two's complement on write.
    """

    __slots__ = ("_values",)

    _MASK = (1 << 64) - 1

    def __init__(self, initial: Optional[Dict[int, int]] = None) -> None:
        self._values: List[int] = [0] * NUM_REGISTERS
        if initial:
            for index, value in initial.items():
                self.write(index, value)

    @staticmethod
    def _index_of(register: "Register | int") -> int:
        index = register.index if isinstance(register, Register) else register
        if not 0 <= index < NUM_REGISTERS:
            raise IndexError(f"register index {index} out of range")
        return index

    def read(self, register: "Register | int") -> int:
        """Read a register; zero registers read as 0."""
        index = self._index_of(register)
        if index in (ZERO_REGISTER, FLOAT_ZERO_REGISTER):
            return 0
        return self._values[index]

    def write(self, register: "Register | int", value: int) -> None:
        """Write a register; writes to zero registers are discarded."""
        index = self._index_of(register)
        if index in (ZERO_REGISTER, FLOAT_ZERO_REGISTER):
            return
        self._values[index] = value & self._MASK

    def read_signed(self, register: "Register | int") -> int:
        """Read a register as a signed 64-bit value."""
        value = self.read(register)
        if value >= 1 << 63:
            value -= 1 << 64
        return value

    def snapshot(self) -> Tuple[int, ...]:
        """An immutable copy of the whole file (zero registers as 0)."""
        values = list(self._values)
        values[ZERO_REGISTER] = 0
        values[FLOAT_ZERO_REGISTER] = 0
        return tuple(values)

    def copy(self) -> "RegisterFile":
        """An independent copy of this register file."""
        clone = RegisterFile()
        clone._values = list(self._values)
        return clone
