"""The Windows NT calling standard for Alpha.

Section 3.4 and 3.5 of the paper rely on the calling standard
[CALLSTD] in two ways:

* *callee-saved registers* must be saved by a routine before use and
  restored before exit, so their definitions and uses must not propagate
  to callers (§3.4);
* *indirect calls to unknown targets* are assumed to obey the standard:
  argument registers are call-used, return-value registers are
  call-defined, and temporary (caller-saved) registers are call-killed
  (§3.5).

This module encodes those register roles.  The role partition follows the
Alpha calling standard:

========  =======================  ==========================
Role      Integer registers        Floating-point registers
========  =======================  ==========================
return    r0 (v0)                  f0, f1
temp      r1–r8, r22–r25, r27,     f10–f15, f22–f30
          r28
saved     r9–r14, r15 (fp)         f2–f9
args      r16–r21 (a0–a5)          f16–f21
special   r26 (ra), r29 (gp),      f31 (zero)
          r30 (sp), r31 (zero)
========  =======================  ==========================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

from repro.isa.registers import (
    GLOBAL_POINTER,
    RETURN_ADDRESS,
    STACK_POINTER,
    Register,
)


def _ints(*numbers: int) -> FrozenSet[Register]:
    return frozenset(Register.integer(n) for n in numbers)


def _floats(*numbers: int) -> FrozenSet[Register]:
    return frozenset(Register.float(n) for n in numbers)


@dataclass(frozen=True)
class CallingConvention:
    """A partition of the register file into calling-standard roles.

    All sets are frozen sets of :class:`~repro.isa.registers.Register`.
    The partition must be consistent: every register belongs to at most
    one of ``argument_registers`` / ``return_registers`` /
    ``callee_saved`` / ``temporaries`` (``return_registers`` may overlap
    ``temporaries`` since return registers are caller-saved).
    """

    name: str
    #: Registers used to pass the first arguments (a0-a5, f16-f21).
    argument_registers: FrozenSet[Register]
    #: Registers used to return values (v0, f0, f1).
    return_registers: FrozenSet[Register]
    #: Registers a callee must preserve (s0-s5, fp, f2-f9).
    callee_saved: FrozenSet[Register]
    #: Caller-saved scratch registers (t0-t11, pv, at, f10-f15, f22-f30).
    temporaries: FrozenSet[Register]
    #: The stack pointer; preserved across calls by convention.
    stack_pointer: Register = field(default_factory=lambda: Register(STACK_POINTER))
    #: The return-address register, written by call instructions.
    return_address: Register = field(default_factory=lambda: Register(RETURN_ADDRESS))
    #: The global pointer; treated as preserved across calls.
    global_pointer: Register = field(default_factory=lambda: Register(GLOBAL_POINTER))

    def __post_init__(self) -> None:
        groups: Tuple[FrozenSet[Register], ...] = (
            self.argument_registers,
            self.callee_saved,
            self.temporaries,
        )
        seen: set = set()
        for group in groups:
            overlap = seen & set(group)
            if overlap:
                raise ValueError(
                    f"register roles overlap in convention {self.name!r}: {overlap}"
                )
            seen.update(group)

    @property
    def caller_saved(self) -> FrozenSet[Register]:
        """Registers a caller must assume are clobbered by any call."""
        return (
            self.temporaries
            | self.return_registers
            | self.argument_registers
            | frozenset({self.return_address})
        )

    def unknown_call_used(self) -> FrozenSet[Register]:
        """Registers assumed used by a call to an unknown target (§3.5).

        Arguments may be read, the callee's return needs the return
        address, and any conforming callee reads the stack and global
        pointers.
        """
        return self.argument_registers | frozenset(
            {self.return_address, self.stack_pointer, self.global_pointer}
        )

    def unknown_call_defined(self) -> FrozenSet[Register]:
        """Registers assumed defined by a call to an unknown target (§3.5)."""
        return self.return_registers

    def unknown_call_killed(self) -> FrozenSet[Register]:
        """Registers assumed killed by a call to an unknown target (§3.5)."""
        return self.caller_saved


def _nt_alpha() -> CallingConvention:
    return CallingConvention(
        name="nt-alpha",
        argument_registers=_ints(16, 17, 18, 19, 20, 21)
        | _floats(16, 17, 18, 19, 20, 21),
        return_registers=_ints(0) | _floats(0, 1),
        callee_saved=_ints(9, 10, 11, 12, 13, 14, 15) | _floats(2, 3, 4, 5, 6, 7, 8, 9),
        temporaries=_ints(1, 2, 3, 4, 5, 6, 7, 8, 22, 23, 24, 25, 27, 28)
        | _floats(10, 11, 12, 13, 14, 15, 22, 23, 24, 25, 26, 27, 28, 29, 30),
    )


#: The Windows NT Alpha calling standard used throughout the paper.
NT_ALPHA: CallingConvention = _nt_alpha()

