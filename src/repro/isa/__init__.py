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
* a 32-bit binary encoding with Alpha-style instruction formats: one
  field table encodes a word (``encode``), edits one
  (``replace_fields``) and decodes one into a row (``decode_row``)
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
from repro.isa.instructions import Opcode
from repro.isa.encoding import decode_row, encode, replace_fields

__all__ = [
    "CallingConvention",
    "FLOAT_REGISTERS",
    "INTEGER_REGISTERS",
    "NT_ALPHA",
    "NUM_REGISTERS",
    "Opcode",
    "Register",
    "RegisterFile",
    "decode_row",
    "encode",
    "replace_fields",
]
