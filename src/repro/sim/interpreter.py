"""A functional interpreter for decoded programs.

Executes a :class:`~repro.program.model.Program` the way the hardware
would: a program counter walks the flat address space, calls write the
return address into the link register and returns jump through it, and
memory is a flat 64-bit-word store holding the data section, the stack
and anything the program writes.

Simplifications (documented substitutions, see DESIGN.md):

* floating-point registers hold 64-bit integers and the FP arithmetic
  opcodes behave like their integer counterparts — the dataflow
  analysis only cares about *which* registers are read and written,
  never about their values;
* memory accesses must be 8-byte aligned (the generator and the
  examples only emit aligned frames).

The interpreter executes the program's decoded rows, the same rows the
analysis reads.  Trace mode additionally records, for every dynamic
call, the registers read-before-written and written during the call's
extent — straight from each row's use and def masks — and the
registers whose values differ across it; the property-based test suite
checks those against the interprocedural summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.encoding import INSTRUCTION_SIZE
from repro.isa.instructions import ControlKind, Opcode
from repro.isa.registers import STACK_POINTER, RegisterFile
from repro.program.model import Program

_MASK64 = (1 << 64) - 1

#: Default stack top (grows downward).
DEFAULT_STACK_BASE = 0x7FFF_FF00

#: Register index of ``a0``, the OUTPUT operand.
_A0 = 16


class ExecutionError(RuntimeError):
    """Raised for invalid execution: bad PC, misalignment, runaway —
    and by ``optimize(verify=True)`` when the optimized program's
    observable behaviour differs from the original's."""


@dataclass
class CallRecord:
    """Register usage observed during one dynamic call (trace mode)."""

    callee: str
    #: Registers read before being written during the call's extent.
    read_before_write: int
    #: Registers written during the call's extent.
    written: int
    #: Registers whose value at return differs from the value at call.
    changed: int


@dataclass
class _Frame:
    callee: str
    return_pc: int
    entry_snapshot: Tuple[int, ...]
    read_before_write: int = 0
    written: int = 0


@dataclass
class ExecutionResult:
    """Everything observable about one run."""

    outputs: List[int]
    steps: int
    exit_value: int
    final_registers: Tuple[int, ...]
    opcode_counts: Dict[str, int] = field(default_factory=dict)
    call_records: List[CallRecord] = field(default_factory=list)

    @property
    def observable(self) -> Tuple[Tuple[int, ...], int]:
        """The behaviour two runs must share to count as equivalent."""
        return (tuple(self.outputs), self.exit_value)


class Interpreter:
    """Executes one program; create a fresh instance per run."""

    def __init__(
        self,
        program: Program,
        max_steps: int = 5_000_000,
        trace_calls: bool = False,
        stack_base: int = DEFAULT_STACK_BASE,
    ) -> None:
        self.program = program
        self.max_steps = max_steps
        self.trace_calls = trace_calls
        self.registers = RegisterFile()
        self.memory: Dict[int, int] = {}
        self._load_data(program)
        self.registers.write(STACK_POINTER, stack_base)
        self.outputs: List[int] = []
        self.opcode_counts: Dict[str, int] = {}
        self.call_records: List[CallRecord] = []
        self._frames: List[_Frame] = []
        # Pre-index rows by absolute address.
        self._by_address: Dict[int, tuple] = {}
        for routine in program:
            self._by_address.update(zip(
                range(routine.address, routine.end, INSTRUCTION_SIZE),
                routine.rows,
            ))

    def _load_data(self, program: Program) -> None:
        data = program.data
        base = program.data_base
        for offset in range(0, len(data) - len(data) % 8, 8):
            self.memory[base + offset] = int.from_bytes(
                data[offset : offset + 8], "little"
            )

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------

    def load_quad(self, address: int) -> int:
        if address % 8:
            raise ExecutionError(f"unaligned load at {address:#x}")
        return self.memory.get(address, 0)

    def store_quad(self, address: int, value: int) -> None:
        if address % 8:
            raise ExecutionError(f"unaligned store at {address:#x}")
        self.memory[address] = value & _MASK64

    # ------------------------------------------------------------------
    # Tracing helpers
    # ------------------------------------------------------------------

    def _trace_call(self, callee: str, return_pc: int) -> None:
        if self.trace_calls:
            self._frames.append(
                _Frame(
                    callee=callee,
                    return_pc=return_pc,
                    entry_snapshot=self.registers.snapshot(),
                )
            )

    def _trace_return(self, target_pc: int) -> None:
        if not self.trace_calls:
            return
        # Pop every frame whose return point we just reached (a RET can
        # conceptually return through several frames only in nonconforming
        # code; normal code pops exactly one).
        if self._frames and self._frames[-1].return_pc == target_pc:
            frame = self._frames.pop()
            snapshot = self.registers.snapshot()
            changed = 0
            for index, (before, after) in enumerate(
                zip(frame.entry_snapshot, snapshot)
            ):
                if before != after:
                    changed |= 1 << index
            self.call_records.append(
                CallRecord(
                    callee=frame.callee,
                    read_before_write=frame.read_before_write,
                    written=frame.written,
                    changed=changed,
                )
            )
            if self._frames:
                parent = self._frames[-1]
                parent.read_before_write |= (
                    frame.read_before_write & ~parent.written
                )
                parent.written |= frame.written

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, entry: Optional[str] = None) -> ExecutionResult:
        """Execute from ``entry`` (default: the program's entry routine)."""
        program = self.program
        registers = self.registers
        frames = self._frames
        trace_calls = self.trace_calls
        pc = program.routine(entry or program.entry).address
        steps = 0
        counts = self.opcode_counts
        while True:
            row = self._by_address.get(pc)
            if row is None:
                raise ExecutionError(f"PC {pc:#x} is not executable code")
            steps += 1
            if steps > self.max_steps:
                raise ExecutionError(f"exceeded {self.max_steps} steps")
            (control, use_mask, def_mask, displacement,
             opcode, ra, rb, _rc, _literal) = row
            mnemonic = opcode.mnemonic
            counts[mnemonic] = counts.get(mnemonic, 0) + 1
            if trace_calls and frames:
                # The caller's frame sees a call's own reads and link
                # write; the callee's frame sees its return's.
                frame = frames[-1]
                frame.read_before_write |= use_mask & ~frame.written
                frame.written |= def_mask
            next_pc = pc + INSTRUCTION_SIZE

            if control is ControlKind.FALLTHROUGH:
                if opcode is Opcode.OUTPUT:
                    self.outputs.append(registers.read(_A0))
                else:
                    self._execute_straightline(row)
            elif control is ControlKind.COND_BRANCH:
                if self._branch_taken(opcode, ra):
                    next_pc += displacement * INSTRUCTION_SIZE
            elif control is ControlKind.UNCOND_BRANCH:
                registers.write(ra, next_pc)
                next_pc += displacement * INSTRUCTION_SIZE
            elif control is ControlKind.HALT:
                break
            else:
                # Calls, returns and indirect jumps: write the link
                # register, then go to the (PC-relative or register) target.
                if control is ControlKind.CALL_DIRECT:
                    target = next_pc + displacement * INSTRUCTION_SIZE
                else:
                    target = registers.read(rb)
                registers.write(ra, next_pc)
                if control is ControlKind.RETURN:
                    self._trace_return(target)
                elif control is not ControlKind.INDIRECT_JUMP:
                    callee = program.routine_at(target)
                    self._trace_call(
                        callee.name if callee else f"{target:#x}", next_pc
                    )
                next_pc = target
            pc = next_pc

        return ExecutionResult(
            outputs=self.outputs,
            steps=steps,
            exit_value=registers.read(0),
            final_registers=registers.snapshot(),
            opcode_counts=counts,
            call_records=self.call_records,
        )

    def _branch_taken(self, opcode: Opcode, ra: int) -> bool:
        value = self.registers.read_signed(ra)
        if opcode is Opcode.BEQ or opcode is Opcode.FBEQ:
            return value == 0
        if opcode is Opcode.BNE or opcode is Opcode.FBNE:
            return value != 0
        if opcode is Opcode.BLT:
            return value < 0
        if opcode is Opcode.BLE:
            return value <= 0
        if opcode is Opcode.BGT:
            return value > 0
        if opcode is Opcode.BGE:
            return value >= 0
        if opcode is Opcode.BLBC:
            return (value & 1) == 0
        if opcode is Opcode.BLBS:
            return (value & 1) == 1
        raise AssertionError(opcode)  # pragma: no cover

    def _execute_straightline(self, row: tuple) -> None:
        registers = self.registers
        _control, _uses, _defs, displacement, opcode, ra, rb, rc, literal = row

        if opcode is Opcode.LDA:
            registers.write(ra, registers.read(rb) + displacement)
        elif opcode is Opcode.LDAH:
            registers.write(ra, registers.read(rb) + (displacement << 16))
        elif opcode in (Opcode.LDQ, Opcode.LDT):
            address = (registers.read(rb) + displacement) & _MASK64
            registers.write(ra, self.load_quad(address))
        elif opcode in (Opcode.STQ, Opcode.STT):
            address = (registers.read(rb) + displacement) & _MASK64
            self.store_quad(address, registers.read(ra))
        else:
            registers.write(rc, self._operate(opcode, ra, rb, rc, literal))

    def _operate(
        self, opcode: Opcode, ra: int, rb: int, rc: int, literal: Optional[int]
    ) -> int:
        """The value an operate instruction writes to ``rc``."""
        registers = self.registers
        a = registers.read(ra)
        b = literal if literal is not None else registers.read(rb)
        a_signed = a - (1 << 64) if a >= 1 << 63 else a
        b_signed = b - (1 << 64) if b >= 1 << 63 else b

        if opcode in (Opcode.ADDQ, Opcode.ADDT):
            value = a + b
        elif opcode in (Opcode.SUBQ, Opcode.SUBT):
            value = a - b
        elif opcode in (Opcode.MULQ, Opcode.MULT):
            value = a * b
        elif opcode is Opcode.AND:
            value = a & b
        elif opcode is Opcode.BIC:
            value = a & ~b
        elif opcode is Opcode.BIS:
            value = a | b
        elif opcode is Opcode.ORNOT:
            value = a | (~b & _MASK64)
        elif opcode is Opcode.XOR:
            value = a ^ b
        elif opcode is Opcode.EQV:
            value = ~(a ^ b) & _MASK64
        elif opcode is Opcode.SLL:
            value = a << (b & 63)
        elif opcode is Opcode.SRL:
            value = a >> (b & 63)
        elif opcode is Opcode.SRA:
            value = a_signed >> (b & 63)
        elif opcode in (Opcode.CMPEQ, Opcode.CMPTEQ):
            value = 1 if a == b else 0
        elif opcode in (Opcode.CMPLT, Opcode.CMPTLT):
            value = 1 if a_signed < b_signed else 0
        elif opcode is Opcode.CMPLE:
            value = 1 if a_signed <= b_signed else 0
        elif opcode is Opcode.CMPULT:
            value = 1 if a < b else 0
        elif opcode is Opcode.CMPULE:
            value = 1 if a <= b else 0
        elif opcode is Opcode.CMOVEQ:
            value = b if a == 0 else registers.read(rc)
        elif opcode is Opcode.CMOVNE:
            value = b if a != 0 else registers.read(rc)
        elif opcode in (Opcode.CPYS, Opcode.ITOFT, Opcode.FTOIT):
            # Register-file transfers: value moves unchanged (CPYS with
            # identical operands is the canonical FP move).
            value = b if opcode is Opcode.CPYS else a
        else:  # pragma: no cover - exhaustive over operate opcodes
            raise AssertionError(opcode)
        return value


def run_program(
    program: Program,
    entry: Optional[str] = None,
    max_steps: int = 5_000_000,
    trace_calls: bool = False,
) -> ExecutionResult:
    """Convenience wrapper: build an interpreter and run once."""
    interpreter = Interpreter(
        program, max_steps=max_steps, trace_calls=trace_calls
    )
    return interpreter.run(entry)
