"""Alpha-like instruction set architecture.

This subpackage models the parts of the Alpha AXP architecture that
Spike's interprocedural dataflow analysis depends on:

* a 64-entry register file (32 integer + 32 floating-point registers)
  with the conventional Alpha names and the Windows NT calling-standard
  roles (:mod:`repro.isa.registers`,
  :mod:`repro.isa.calling_convention`);
* instruction semantics at the level the analysis needs — for every
  instruction, the registers it reads and writes, and how it transfers
  control (:mod:`repro.isa.instructions`);
* a 32-bit binary encoding with Alpha-style instruction formats so that
  programs can round-trip through an executable image
  (:mod:`repro.isa.encoding`).
"""

from repro.isa.calling_convention import CallingConvention, NT_ALPHA
from repro.isa.registers import (
    FLOAT_REGISTERS,
    INTEGER_REGISTERS,
    NUM_REGISTERS,
    Register,
    RegisterFile,
)
from repro.isa.instructions import Instruction, Opcode
from repro.isa.encoding import decode_instruction, encode_instruction

__all__ = [
    "CallingConvention",
    "FLOAT_REGISTERS",
    "INTEGER_REGISTERS",
    "Instruction",
    "NT_ALPHA",
    "NUM_REGISTERS",
    "Opcode",
    "Register",
    "RegisterFile",
    "decode_instruction",
    "encode_instruction",
]
