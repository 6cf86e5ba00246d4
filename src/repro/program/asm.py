"""An assembler for the Alpha-like ISA.

The assembler offers two front ends over one resolution core:

* a **programmatic API** (:class:`Assembler`) used by the synthetic
  workload generator and by tests, with labels, symbolic call targets,
  jump tables and a ``li`` (load-immediate / load-address) pseudo-op;
* a **text syntax** (:func:`assemble`) used in examples:

  .. code-block:: none

      .routine main export
          li      t0, 10
      loop:
          subq    t0, #1, t0
          bsr     ra, helper
          bne     t0, loop
          ret     (ra)
      .routine helper
          addq    a0, #1, v0
          ret     (ra)

Both produce an :class:`~repro.program.image.ExecutableImage`; nothing
downstream of the assembler ever sees symbolic names — exactly the
situation a post-link optimizer faces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.isa.encoding import (
    INSTRUCTION_SIZE,
    decode_row,
    encode,
    replace_fields,
    words_code,
)
from repro.isa.instructions import ControlKind, Format, MNEMONIC_TO_OPCODE, Opcode
from repro.isa.registers import (
    Register,
    RegisterLike,
    ZERO_REGISTER,
    register_index,
)
from repro.program.image import (
    DEFAULT_DATA_BASE,
    DEFAULT_TEXT_BASE,
    CallTargetHint,
    ExecutableImage,
    JumpTableInfo,
    Symbol,
    pack_jump_table,
)


class AssemblyError(ValueError):
    """Raised for malformed assembly input."""


@dataclass(slots=True)
class _Slot:
    """One instruction position: its word and, for a word whose
    displacement :meth:`Assembler.build` resolves, what it refers to."""

    word: int
    #: "insn" (resolved) | "branch" (to ``label``) | "bsr" (to routine
    #: ``symbol``) | "li_high" / "li_low" (the ldah / lda half of
    #: ``symbol``'s address; ``label`` is "code" or "data").
    kind: str = "insn"
    label: str = ""
    symbol: str = ""


@dataclass
class _RoutineRecord:
    name: str
    exported: bool
    start_slot: int
    end_slot: int = -1


class Assembler:
    """Incrementally build a program, then :meth:`build` an image."""

    def __init__(
        self,
        text_base: int = DEFAULT_TEXT_BASE,
        data_base: int = DEFAULT_DATA_BASE,
    ) -> None:
        self._text_base = text_base
        self._data_base = data_base
        self._slots: List[_Slot] = []
        self._routines: List[_RoutineRecord] = []
        self._routine_names: Set[str] = set()
        self._labels: Dict[str, int] = {}
        self._data = bytearray()
        self._data_labels: Dict[str, int] = {}
        self._data_pointers: List[Tuple[int, str]] = []
        self._jump_tables: Dict[str, List[str]] = {}
        self._jump_sites: List[Tuple[int, str]] = []
        self._call_hints: List[Tuple[int, Tuple[str, ...]]] = []

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def current_routine(self) -> str:
        """Name of the routine currently being assembled."""
        if not self._routines:
            raise AssemblyError("no routine started")
        return self._routines[-1].name

    def routine(self, name: str, exported: bool = False) -> "Assembler":
        """Start a new routine."""
        if self._routines:
            self._routines[-1].end_slot = len(self._slots)
        self._add_routine(_RoutineRecord(name, exported, len(self._slots)))
        return self

    def _add_routine(self, record: _RoutineRecord) -> None:
        if record.name in self._routine_names:
            raise AssemblyError(f"duplicate routine {record.name!r}")
        self._routine_names.add(record.name)
        self._routines.append(record)

    def label(self, name: str) -> "Assembler":
        """Define a routine-local label at the next instruction."""
        key = self._label_key(name)
        if key in self._labels:
            raise AssemblyError(f"duplicate label {name!r} in {self.current_routine!r}")
        self._labels[key] = len(self._slots)
        return self

    def _label_key(self, name: str) -> str:
        return f"{self.current_routine}::{name}"

    def _require_routine(self) -> None:
        if not self._routines:
            raise AssemblyError("instruction emitted before any .routine")

    # ------------------------------------------------------------------
    # Instructions
    # ------------------------------------------------------------------

    def emit(self, word: int) -> "Assembler":
        """Emit a fully resolved instruction word (see
        :func:`repro.isa.encoding.encode`)."""
        self._require_routine()
        self._slots.append(_Slot(word))
        return self

    def op(
        self,
        mnemonic: str,
        ra: RegisterLike,
        rb_or_literal: Union[RegisterLike, int],
        rc: RegisterLike,
        *,
        literal: Optional[bool] = None,
    ) -> "Assembler":
        """Emit an operate-format instruction.

        Pass ``literal=True`` to force the second operand to be an 8-bit
        literal even though it is an int (ints are otherwise register
        indices only when they are :class:`Register` or strings).
        """
        opcode = self._opcode(mnemonic)
        if opcode.format not in (Format.OPERATE, Format.OPERATE_FP):
            raise AssemblyError(f"{mnemonic} is not an operate instruction")
        if literal or (literal is None and isinstance(rb_or_literal, int)):
            word = encode(
                opcode, ra=register_index(ra), rc=register_index(rc),
                literal=int(rb_or_literal),
            )
        else:
            word = encode(
                opcode, ra=register_index(ra),
                rb=register_index(rb_or_literal), rc=register_index(rc),
            )
        return self.emit(word)

    def memory(
        self, mnemonic: str, ra: RegisterLike, displacement: int, rb: RegisterLike
    ) -> "Assembler":
        """Emit a memory-format instruction (``op ra, disp(rb)``)."""
        opcode = self._opcode(mnemonic)
        if opcode.format not in (Format.MEMORY, Format.MEMORY_FP):
            raise AssemblyError(f"{mnemonic} is not a memory instruction")
        return self.emit(
            encode(
                opcode, ra=register_index(ra), rb=register_index(rb),
                displacement=displacement,
            )
        )

    def branch(self, mnemonic: str, ra: RegisterLike, label: str) -> "Assembler":
        """Emit a conditional branch to a routine-local label."""
        opcode = self._opcode(mnemonic)
        if opcode.control != ControlKind.COND_BRANCH:
            raise AssemblyError(f"{mnemonic} is not a conditional branch")
        return self._branch(opcode, ra, label)

    def br(self, label: str, ra: RegisterLike = ZERO_REGISTER) -> "Assembler":
        """Emit an unconditional branch to a routine-local label."""
        return self._branch(Opcode.BR, ra, label)

    def _branch(self, opcode: Opcode, ra: RegisterLike, label: str) -> "Assembler":
        self._require_routine()
        self._slots.append(
            _Slot(
                encode(opcode, ra=register_index(ra)), "branch",
                label=self._label_key(label),
            )
        )
        return self

    def bsr(self, target: str, ra: RegisterLike = "ra") -> "Assembler":
        """Emit a direct call to routine ``target``."""
        self._require_routine()
        self._slots.append(_Slot(
            encode(Opcode.BSR, ra=register_index(ra)), "bsr", symbol=target
        ))
        return self

    def jsr(
        self,
        rb: RegisterLike,
        ra: RegisterLike = "ra",
        hint_targets: Optional[Sequence[str]] = None,
    ) -> "Assembler":
        """Emit an indirect call through register ``rb``.

        ``hint_targets`` optionally names every routine the call can
        reach; the image then carries a §3.5 call-target hint so the
        analysis can combine those callees' summaries instead of
        assuming the full calling-standard worst case.
        """
        if hint_targets is not None:
            if not hint_targets:
                raise AssemblyError("hint_targets must not be empty")
            self._call_hints.append((len(self._slots), tuple(hint_targets)))
        return self.emit(
            encode(Opcode.JSR, ra=register_index(ra), rb=register_index(rb))
        )

    def ret(self, rb: RegisterLike = "ra", ra: RegisterLike = ZERO_REGISTER) -> "Assembler":
        """Emit a return through register ``rb`` (normally ``ra``)."""
        return self.emit(
            encode(Opcode.RET, ra=register_index(ra), rb=register_index(rb))
        )

    def jmp(
        self,
        rb: RegisterLike,
        table: Optional[str] = None,
        ra: RegisterLike = ZERO_REGISTER,
    ) -> "Assembler":
        """Emit an indirect jump.

        With ``table`` naming a jump table (see :meth:`jump_table`), the
        image will carry :class:`JumpTableInfo` tying this jump to its
        target set; without it the jump has unknown targets.
        """
        self._require_routine()
        if table is not None:
            self._jump_sites.append((len(self._slots), table))
        return self.emit(
            encode(Opcode.JMP, ra=register_index(ra), rb=register_index(rb))
        )

    def jump_table(self, name: str, labels: Sequence[str]) -> "Assembler":
        """Declare jump table ``name`` targeting routine-local ``labels``.

        The table contents go into the data section at :meth:`build`
        time; the labels are resolved in the routine current *at
        declaration time*.
        """
        if name in self._jump_tables:
            raise AssemblyError(f"duplicate jump table {name!r}")
        if not labels:
            raise AssemblyError(f"jump table {name!r} is empty")
        self._require_routine()
        self._jump_tables[name] = [self._label_key(label) for label in labels]
        return self

    def li(self, rd: RegisterLike, value: Union[int, str]) -> "Assembler":
        """Load an immediate or the address of a symbol into ``rd``.

        ``value`` may be an int, ``"&name"``/plain routine name for a code
        address, or ``"@name"`` for a data label.  Integer values that fit
        a signed 16-bit immediate expand to one ``lda``; everything else
        expands to an ``ldah``/``lda`` pair.
        """
        self._require_routine()
        rd_index = register_index(rd)
        if isinstance(value, int):
            if -0x8000 <= value <= 0x7FFF:
                return self.emit(encode(Opcode.LDA, ra=rd_index, displacement=value))
            high, low = _split_address(value)
            self.emit(encode(Opcode.LDAH, ra=rd_index, displacement=high))
            return self.emit(
                encode(Opcode.LDA, ra=rd_index, rb=rd_index, displacement=low)
            )
        kind = "data" if value.startswith("@") else "code"
        self._slots += _address_slots(rd_index, value.lstrip("&@"), kind)
        return self

    def halt(self) -> "Assembler":
        """Emit the HALT PAL call."""
        return self.emit(encode(Opcode.HALT))

    def output(self) -> "Assembler":
        """Emit the OUTPUT PAL call (writes ``a0`` to the output stream)."""
        return self.emit(encode(Opcode.OUTPUT))

    # ------------------------------------------------------------------
    # Data
    # ------------------------------------------------------------------

    def data_quads(self, name: str, values: Sequence[int]) -> "Assembler":
        """Place 64-bit words in the data section under label ``name``."""
        if name in self._data_labels:
            raise AssemblyError(f"duplicate data label {name!r}")
        self._data_labels[name] = len(self._data)
        for value in values:
            self._data += (value & ((1 << 64) - 1)).to_bytes(8, "little")
        return self

    def data_code_pointers(
        self, name: str, routine_names: Sequence[str]
    ) -> "Assembler":
        """Place routine entry addresses in the data section.

        This is how function-pointer tables (vtables, callback arrays)
        appear in real executables; calls through them are *opaque* to
        the analysis (the target register is loaded from memory), which
        exercises the §3.5 unknown-call path while remaining executable.
        The addresses are fixed up at :meth:`build` time.
        """
        if name in self._data_labels:
            raise AssemblyError(f"duplicate data label {name!r}")
        self._data_labels[name] = len(self._data)
        for routine_name in routine_names:
            self._data_pointers.append((len(self._data), routine_name))
            self._data += b"\x00" * 8
        return self

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    @staticmethod
    def _opcode(mnemonic: str) -> Opcode:
        try:
            return MNEMONIC_TO_OPCODE[mnemonic.lower()]
        except KeyError:
            raise AssemblyError(f"unknown mnemonic {mnemonic!r}") from None

    #: BSR reaches ±2^20 instructions; beyond that a call needs a veneer.
    _BSR_RANGE = 1 << 20

    def _expand_far_calls(self) -> None:
        """Replace out-of-range ``bsr`` slots with ``li pv``/``jsr`` veneers.

        Direct calls encode a signed 21-bit instruction displacement
        (±4 MB), which multi-million-instruction programs exceed — real
        linkers insert range-extension thunks, and so do we.  Each
        overflowing ``bsr`` becomes ``ldah pv / lda pv / jsr`` (three
        slots), after which every slot reference (labels, routine
        boundaries, jump-table sites, call-target hints) is remapped.
        Expansion grows the program, so iterate to a fixed point.
        """
        from bisect import bisect_right

        pv = Register.parse("pv").index
        while True:
            start_of = {
                record.name: record.start_slot for record in self._routines
            }
            overflowing: List[int] = []
            for index, slot in enumerate(self._slots):
                if slot.kind != "bsr":
                    continue
                target = start_of.get(slot.symbol)
                if target is None:
                    raise AssemblyError(
                        f"call to unknown routine {slot.symbol!r}"
                    )
                displacement = target - (index + 1)
                if not -self._BSR_RANGE <= displacement < self._BSR_RANGE:
                    overflowing.append(index)
            if not overflowing:
                return

            def remap(index: int) -> int:
                return index + 2 * bisect_right(overflowing, index - 1)

            new_slots: List[_Slot] = []
            overflow_set = set(overflowing)
            for index, slot in enumerate(self._slots):
                if index in overflow_set:
                    new_slots += _address_slots(pv, slot.symbol, "code")
                    link = decode_row(slot.word)[5]  # the bsr's ra
                    new_slots.append(_Slot(encode(Opcode.JSR, ra=link, rb=pv)))
                else:
                    new_slots.append(slot)
            self._slots = new_slots
            for key in self._labels:
                self._labels[key] = remap(self._labels[key])
            for record in self._routines:
                record.start_slot = remap(record.start_slot)
                record.end_slot = remap(record.end_slot)
            self._jump_sites = [
                (remap(index), name) for index, name in self._jump_sites
            ]
            self._call_hints = [
                (remap(index), names) for index, names in self._call_hints
            ]

    def build(self, entry: Optional[str] = None) -> ExecutableImage:
        """Resolve all references and produce the executable image,
        which ``to_bytes`` and ``disassemble_image`` validate."""
        if not self._routines:
            raise AssemblyError("no routines to assemble")
        self._routines[-1].end_slot = len(self._slots)
        for record in self._routines:
            if record.end_slot <= record.start_slot:
                raise AssemblyError(f"routine {record.name!r} is empty")
        self._expand_far_calls()

        routine_address = {
            record.name: self._text_base + record.start_slot * INSTRUCTION_SIZE
            for record in self._routines
        }

        def slot_address(index: int) -> int:
            return self._text_base + index * INSTRUCTION_SIZE

        # Lay out the data section: user data, then jump tables.
        data = bytearray(self._data)
        for offset, routine_name in self._data_pointers:
            if routine_name not in routine_address:
                raise AssemblyError(
                    f"code pointer to unknown routine {routine_name!r}"
                )
            data[offset : offset + 8] = routine_address[routine_name].to_bytes(
                8, "little"
            )
        table_address: Dict[str, int] = {}
        table_targets: Dict[str, Tuple[int, ...]] = {}
        for name, label_keys in self._jump_tables.items():
            targets = []
            for key in label_keys:
                if key not in self._labels:
                    raise AssemblyError(f"jump table {name!r}: unknown label {key!r}")
                targets.append(slot_address(self._labels[key]))
            table_address[name] = self._data_base + len(data)
            table_targets[name] = tuple(targets)
            data += pack_jump_table(targets)

        def code_symbol_address(symbol: str, kind: str) -> int:
            if kind == "data":
                if symbol not in self._data_labels:
                    raise AssemblyError(f"unknown data label {symbol!r}")
                return self._data_base + self._data_labels[symbol]
            if symbol in routine_address:
                return routine_address[symbol]
            if symbol in table_address:
                return table_address[symbol]
            raise AssemblyError(f"unknown symbol {symbol!r}")

        words: List[int] = []
        for index, slot in enumerate(self._slots):
            kind = slot.kind
            if kind == "insn":
                words.append(slot.word)
                continue
            if kind == "branch":
                if slot.label not in self._labels:
                    raise AssemblyError(f"unknown label {slot.label!r}")
                displacement = self._labels[slot.label] - (index + 1)
            elif kind == "bsr":
                if slot.symbol not in routine_address:
                    raise AssemblyError(f"call to unknown routine {slot.symbol!r}")
                target_slot = (
                    routine_address[slot.symbol] - self._text_base
                ) // INSTRUCTION_SIZE
                displacement = target_slot - (index + 1)
            else:
                high, low = _split_address(
                    code_symbol_address(slot.symbol, slot.label)
                )
                displacement = high if kind == "li_high" else low
            words.append(replace_fields(slot.word, displacement=displacement))

        symbols = [
            Symbol(
                record.name,
                slot_address(record.start_slot),
                (record.end_slot - record.start_slot) * INSTRUCTION_SIZE,
                record.exported,
            )
            for record in self._routines
        ]
        jump_tables = [
            JumpTableInfo(
                jump_address=slot_address(slot_index),
                table_address=table_address[name],
                count=len(table_targets[name]),
            )
            for slot_index, name in self._jump_sites
        ]
        call_target_hints = []
        for slot_index, hint_names in self._call_hints:
            targets = []
            for hint_name in hint_names:
                if hint_name not in routine_address:
                    raise AssemblyError(
                        f"call-target hint names unknown routine {hint_name!r}"
                    )
                targets.append(routine_address[hint_name])
            call_target_hints.append(
                CallTargetHint(slot_address(slot_index), tuple(targets))
            )

        entry_name = entry or self._routines[0].name
        if entry_name not in routine_address:
            raise AssemblyError(f"entry routine {entry_name!r} not defined")
        return ExecutableImage(
            text=words_code(words),
            data=bytes(data),
            text_base=self._text_base,
            data_base=self._data_base,
            entry_point=routine_address[entry_name],
            symbols=symbols,
            jump_tables=jump_tables,
            data_relocations=[
                self._data_base + offset for offset, _name in self._data_pointers
            ],
            call_target_hints=call_target_hints,
        )


def _address_slots(rd: int, symbol: str, kind: str) -> List[_Slot]:
    """The ``ldah rd, hi(zero)`` / ``lda rd, lo(rd)`` pair that loads
    the address of ``symbol`` (a ``kind`` "code" or "data" name)."""
    return [
        _Slot(encode(Opcode.LDAH, ra=rd), "li_high", kind, symbol),
        _Slot(encode(Opcode.LDA, ra=rd, rb=rd), "li_low", kind, symbol),
    ]


def _split_address(value: int) -> Tuple[int, int]:
    """Split ``value`` into (ldah, lda) displacements: value = (h<<16)+l."""
    low = value & 0xFFFF
    if low >= 0x8000:
        low -= 0x10000
    high = (value - low) >> 16
    if not -0x8000 <= high <= 0x7FFF:
        raise AssemblyError(f"address {value:#x} out of ldah/lda range")
    return high, low


# ----------------------------------------------------------------------
# Text front end
# ----------------------------------------------------------------------

_MEMORY_OPERAND = re.compile(r"^(-?\d+)?\(([a-z0-9]+)\)$")
_JUMP_OPERAND = re.compile(r"^\(([a-z0-9]+)\)$")
_TABLE_OPERAND = re.compile(r"^\[([A-Za-z_][\w.]*)\]$")


def assemble(
    source: str,
    *,
    entry: Optional[str] = None,
    text_base: int = DEFAULT_TEXT_BASE,
    data_base: int = DEFAULT_DATA_BASE,
) -> ExecutableImage:
    """Assemble text syntax into an executable image.

    See the module docstring for the syntax.  Comments start with ``;``
    or ``#`` at a token boundary; labels end with ``:`` on their own or
    before an instruction.
    """
    assembler = Assembler(text_base=text_base, data_base=data_base)
    explicit_entry = entry
    for line_number, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split(";", 1)[0].strip()
        if line.startswith("#"):
            continue
        if not line:
            continue
        try:
            line = _consume_labels(assembler, line)
            if not line:
                continue
            if line.startswith("."):
                declared_entry = _directive(assembler, line)
                if declared_entry is not None:
                    explicit_entry = declared_entry
            else:
                _statement(assembler, line)
        except (AssemblyError, ValueError) as exc:
            raise AssemblyError(f"line {line_number}: {exc}") from exc
    return assembler.build(entry=explicit_entry)


def _consume_labels(assembler: Assembler, line: str) -> str:
    while True:
        match = re.match(r"^([A-Za-z_][\w.]*):\s*(.*)$", line)
        if not match:
            return line
        assembler.label(match.group(1))
        line = match.group(2).strip()
        if not line:
            return ""


def _directive(assembler: Assembler, line: str) -> Optional[str]:
    parts = line.split(None, 1)
    directive = parts[0]
    rest = parts[1].strip() if len(parts) > 1 else ""
    if directive == ".routine":
        tokens = rest.split()
        if not tokens:
            raise AssemblyError(".routine needs a name")
        exported = len(tokens) > 1 and tokens[1] == "export"
        assembler.routine(tokens[0], exported=exported)
        return None
    if directive == ".entry":
        if not rest:
            raise AssemblyError(".entry needs a routine name")
        return rest.split()[0]
    if directive == ".jumptable":
        match = re.match(r"^([A-Za-z_][\w.]*)\s*:\s*(.+)$", rest)
        if not match:
            raise AssemblyError(".jumptable syntax: .jumptable NAME: L1, L2, ...")
        labels = [token.strip() for token in match.group(2).split(",")]
        assembler.jump_table(match.group(1), labels)
        return None
    if directive == ".data":
        match = re.match(r"^([A-Za-z_][\w.]*)\s*:\s*(.+)$", rest)
        if not match:
            raise AssemblyError(".data syntax: .data NAME: v1, v2, ...")
        values = [int(token.strip(), 0) for token in match.group(2).split(",")]
        assembler.data_quads(match.group(1), values)
        return None
    raise AssemblyError(f"unknown directive {directive!r}")


def _statement(assembler: Assembler, line: str) -> None:
    parts = line.split(None, 1)
    mnemonic = parts[0].lower()
    operand_text = parts[1] if len(parts) > 1 else ""
    operands = [token.strip() for token in operand_text.split(",")] if operand_text else []

    if mnemonic == "li":
        if len(operands) != 2:
            raise AssemblyError("li needs 2 operands")
        target: Union[int, str]
        if operands[1].startswith(("&", "@")):
            target = operands[1]
        else:
            target = int(operands[1], 0)
        assembler.li(operands[0], target)
        return
    if mnemonic == "halt":
        assembler.halt()
        return
    if mnemonic == "output":
        assembler.output()
        return

    opcode = MNEMONIC_TO_OPCODE.get(mnemonic)
    if opcode is None:
        raise AssemblyError(f"unknown mnemonic {mnemonic!r}")

    if opcode.format in (Format.OPERATE, Format.OPERATE_FP):
        if len(operands) != 3:
            raise AssemblyError(f"{mnemonic} needs 3 operands")
        if operands[1].startswith("#"):
            assembler.op(
                mnemonic, operands[0], int(operands[1][1:], 0), operands[2],
                literal=True,
            )
        else:
            assembler.op(mnemonic, operands[0], operands[1], operands[2])
        return

    if opcode.format in (Format.MEMORY, Format.MEMORY_FP):
        if len(operands) != 2:
            raise AssemblyError(f"{mnemonic} needs 2 operands")
        match = _MEMORY_OPERAND.match(operands[1].replace(" ", ""))
        if not match:
            raise AssemblyError(f"bad memory operand {operands[1]!r}")
        displacement = int(match.group(1) or "0", 0)
        assembler.memory(mnemonic, operands[0], displacement, match.group(2))
        return

    if opcode is Opcode.BSR:
        if len(operands) == 1:
            assembler.bsr(operands[0])
        elif len(operands) == 2:
            assembler.bsr(operands[1], ra=operands[0])
        else:
            raise AssemblyError("bsr needs 1 or 2 operands")
        return

    if opcode is Opcode.BR:
        if len(operands) == 1:
            assembler.br(operands[0])
        elif len(operands) == 2:
            assembler.br(operands[1], ra=operands[0])
        else:
            raise AssemblyError("br needs 1 or 2 operands")
        return

    if opcode.control == ControlKind.COND_BRANCH:
        if len(operands) != 2:
            raise AssemblyError(f"{mnemonic} needs 2 operands")
        assembler.branch(mnemonic, operands[0], operands[1])
        return

    if opcode is Opcode.JSR:
        ra_text, target_text = _jump_operands(mnemonic, operands, default_ra="ra")
        match = _JUMP_OPERAND.match(target_text)
        if not match:
            raise AssemblyError(f"bad jsr operand {target_text!r}")
        assembler.jsr(match.group(1), ra=ra_text)
        return

    if opcode is Opcode.RET:
        ra_text, target_text = _jump_operands(mnemonic, operands, default_ra="zero")
        match = _JUMP_OPERAND.match(target_text)
        if not match:
            raise AssemblyError(f"bad ret operand {target_text!r}")
        assembler.ret(rb=match.group(1), ra=ra_text)
        return

    if opcode is Opcode.JMP:
        stripped = [op.replace(" ", "") for op in operands]
        if len(stripped) == 1:
            match = _JUMP_OPERAND.match(stripped[0])
            if not match:
                raise AssemblyError(f"bad jmp operand {stripped[0]!r}")
            assembler.jmp(match.group(1))
            return
        if len(stripped) == 2:
            table_match = _TABLE_OPERAND.match(stripped[1])
            if table_match:
                assembler.jmp(stripped[0], table=table_match.group(1))
                return
            match = _JUMP_OPERAND.match(stripped[1])
            if match:
                assembler.jmp(match.group(1), ra=stripped[0])
                return
        raise AssemblyError("jmp syntax: jmp (rb) | jmp rb, [TABLE] | jmp ra, (rb)")

    raise AssemblyError(f"cannot assemble {mnemonic!r} here")


def _jump_operands(
    mnemonic: str, operands: List[str], default_ra: str
) -> Tuple[str, str]:
    """Split JSR/RET operands into (link register, target)."""
    stripped = [op.replace(" ", "") for op in operands]
    if len(stripped) == 1:
        return default_ra, stripped[0]
    if len(stripped) == 2:
        return stripped[0], stripped[1]
    raise AssemblyError(f"{mnemonic} needs 1 or 2 operands")
