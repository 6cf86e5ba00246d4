"""The SAX ("Simple Alpha eXecutable") image format.

A SAX image is what our stand-in linker produces and what the analysis
consumes, playing the role of the Alpha/NT PE executables Spike operates
on.  An image holds:

* a **text section**: contiguous 32-bit instruction words at
  ``text_base``;
* a **data section**: raw bytes at ``data_base`` (jump tables and
  program data);
* a **symbol table**: one entry per routine giving its name, entry
  address and size in bytes;
* **jump-table metadata**: for each indirect ``jmp`` whose target set is
  known to the linker, the address of its jump table in the data section
  and the number of entries (§3.5 of the paper: "Spike extracts the
  jump-table stored with the program");
* an **export list**: routines callable from outside the image, which
  must therefore be analyzed under worst-case assumptions about their
  callers;
* the **entry point** address.

The binary serialization is a small sectioned format with a magic number
and explicit lengths; it exists so that the "post-link" pipeline is real:
programs round-trip through bytes before being analyzed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

MAGIC = b"SAX1"

#: Default load address of the text section.
DEFAULT_TEXT_BASE = 0x0001_0000

#: Default load address of the data section.
DEFAULT_DATA_BASE = 0x0040_0000

#: Size in bytes of a jump-table entry (a 64-bit code address).
JUMP_TABLE_ENTRY_SIZE = 8

_HEADER = struct.Struct("<4sIQQQIIIIII")
_HINT_FIXED = struct.Struct("<QI")
#: A symbol's address, size, export flag and name length; the name follows.
_SYMBOL_FIXED = struct.Struct("<QQBH")
_JUMP_TABLE = struct.Struct("<QQI")
_U64 = struct.Struct("<Q")


class ImageFormatError(ValueError):
    """Raised for malformed or inconsistent executable images."""


class Symbol(NamedTuple):
    """A routine symbol: name, entry address and code size in bytes."""

    name: str
    address: int
    size: int
    exported: bool = False

    @property
    def end(self) -> int:
        """One past the last byte of the routine's code."""
        return self.address + self.size


class CallTargetHint(NamedTuple):
    """Linker-provided target set for one indirect call (§3.5).

    The paper notes that "dataflow accuracy can be improved if
    additional information is provided to Spike by the compiler or
    linker" about indirect calls.  A hint lists every routine entry a
    ``jsr`` at ``call_address`` can reach (a virtual dispatch's
    implementations, a callback table's members); the analysis then
    combines those callees' summaries instead of assuming the
    worst-case calling standard.
    """

    call_address: int
    targets: Tuple[int, ...]


class JumpTableInfo(NamedTuple):
    """Linker metadata tying an indirect jump to its table.

    ``jump_address`` is the address of the ``jmp`` instruction;
    ``table_address`` is the address (in the data section) of an array of
    ``count`` 64-bit code addresses.
    """

    jump_address: int
    table_address: int
    count: int


@dataclass
class ExecutableImage:
    """A loaded (or about-to-be-serialized) SAX executable."""

    text: bytes
    data: bytes = b""
    text_base: int = DEFAULT_TEXT_BASE
    data_base: int = DEFAULT_DATA_BASE
    entry_point: int = DEFAULT_TEXT_BASE
    symbols: List[Symbol] = field(default_factory=list)
    jump_tables: List[JumpTableInfo] = field(default_factory=list)
    #: Addresses (in the data section) of 8-byte words holding code
    #: addresses — function-pointer tables, vtables.  The linker records
    #: them so a rewriter can relocate the pointers when code moves.
    data_relocations: List[int] = field(default_factory=list)
    #: Linker-provided target sets for indirect calls (§3.5).
    call_target_hints: List[CallTargetHint] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Validation and lookup helpers
    # ------------------------------------------------------------------

    def validate(self) -> Dict[int, Symbol]:
        """Check internal consistency; raise :class:`ImageFormatError`.

        The one place an image's facts are checked: the records are
        plain rows, and every path that hands an image to the analysis
        or to disk (``disassemble_image``, :meth:`to_bytes`,
        :meth:`from_bytes`) runs this once.  Returns the symbols by
        entry address, in address order (what :meth:`symbol_at` scans
        for); the entry point is one of them.
        """
        if len(self.text) % 4:
            raise ImageFormatError("text section not word aligned")
        text_end = self.text_base + len(self.text)
        seen: Set[str] = set()
        entries: Dict[int, Symbol] = {}
        previous_end = self.text_base
        for symbol in sorted(self.symbols, key=lambda s: s.address):
            if not symbol.name:
                raise ImageFormatError("symbol with empty name")
            if symbol.name in seen:
                raise ImageFormatError(f"duplicate symbol {symbol.name!r}")
            seen.add(symbol.name)
            entries[symbol.address] = symbol
            if symbol.size <= 0:
                raise ImageFormatError(
                    f"symbol {symbol.name!r} has no instructions"
                )
            if symbol.size % 4:
                raise ImageFormatError(
                    f"symbol {symbol.name!r} size {symbol.size} not word aligned"
                )
            if symbol.address % 4:
                raise ImageFormatError(
                    f"symbol {symbol.name!r} at unaligned address "
                    f"{symbol.address:#x}"
                )
            if symbol.address < self.text_base or symbol.end > text_end:
                raise ImageFormatError(
                    f"symbol {symbol.name!r} [{symbol.address:#x}, {symbol.end:#x}) "
                    f"outside text [{self.text_base:#x}, {text_end:#x})"
                )
            if symbol.address < previous_end:
                raise ImageFormatError(
                    f"symbol {symbol.name!r} overlaps the previous routine"
                )
            previous_end = symbol.end
        if self.entry_point not in entries:
            if any(s.address < self.entry_point < s.end for s in self.symbols):
                raise ImageFormatError(
                    f"entry point {self.entry_point:#x} is not a routine entry"
                )
            raise ImageFormatError(
                f"entry point {self.entry_point:#x} not inside any routine"
            )
        data_end = self.data_base + len(self.data)
        for table in self.jump_tables:
            if table.count <= 0:
                raise ImageFormatError(
                    f"jump table at {table.table_address:#x} has count {table.count}"
                )
            table_end = table.table_address + table.count * JUMP_TABLE_ENTRY_SIZE
            if table.table_address < self.data_base or table_end > data_end:
                raise ImageFormatError(
                    f"jump table [{table.table_address:#x}, {table_end:#x}) "
                    f"outside data [{self.data_base:#x}, {data_end:#x})"
                )
            if not self.text_base <= table.jump_address < text_end:
                raise ImageFormatError(
                    f"jump-table owner {table.jump_address:#x} outside text"
                )
        for relocation in self.data_relocations:
            if not self.data_base <= relocation <= data_end - 8:
                raise ImageFormatError(
                    f"data relocation {relocation:#x} outside data section"
                )
        for hint in self.call_target_hints:
            if not hint.targets:
                raise ImageFormatError(
                    f"call-target hint at {hint.call_address:#x} has no targets"
                )
            if not self.text_base <= hint.call_address < text_end:
                raise ImageFormatError(
                    f"call-target hint owner {hint.call_address:#x} outside text"
                )
            for target in hint.targets:
                if target not in entries:
                    raise ImageFormatError(
                        f"call-target hint at {hint.call_address:#x} targets "
                        f"{target:#x}, not a routine entry"
                    )
        return entries

    def symbol_by_name(self, name: str) -> Symbol:
        """The symbol called ``name`` (raises :class:`KeyError`)."""
        for symbol in self.symbols:
            if symbol.name == name:
                return symbol
        raise KeyError(name)

    def symbol_at(self, address: int) -> Optional[Symbol]:
        """The symbol whose entry address is exactly ``address``."""
        for symbol in self.symbols:
            if symbol.address == address:
                return symbol
        return None

    def read_jump_table(self, info: JumpTableInfo) -> Tuple[int, ...]:
        """The code addresses stored in jump table ``info``, which
        :meth:`validate` has placed inside the data section."""
        return _u64s(self.data, info.table_address - self.data_base, info.count)

    @property
    def instruction_count(self) -> int:
        """Number of instruction words in the text section."""
        return len(self.text) // 4

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the image to its binary form."""
        self.validate()
        parts: List[bytes] = []
        symbol_blob = bytearray()
        for symbol in self.symbols:
            encoded = symbol.name.encode("utf-8")
            symbol_blob += _SYMBOL_FIXED.pack(
                symbol.address, symbol.size, 1 if symbol.exported else 0,
                len(encoded),
            )
            symbol_blob += encoded
        table_blob = bytearray()
        for table in self.jump_tables:
            table_blob += _JUMP_TABLE.pack(
                table.jump_address, table.table_address, table.count
            )
        relocation_blob = bytearray()
        for relocation in self.data_relocations:
            relocation_blob += _U64.pack(relocation)
        hint_blob = bytearray()
        for hint in self.call_target_hints:
            hint_blob += _HINT_FIXED.pack(hint.call_address, len(hint.targets))
            for target in hint.targets:
                hint_blob += _U64.pack(target)
        header = _HEADER.pack(
            MAGIC,
            1,  # version
            self.text_base,
            self.data_base,
            self.entry_point,
            len(self.text),
            len(self.data),
            len(self.symbols),
            len(self.jump_tables),
            len(self.data_relocations),
            len(self.call_target_hints),
        )
        parts.append(header)
        parts.append(self.text)
        parts.append(self.data)
        parts.append(bytes(symbol_blob))
        parts.append(bytes(table_blob))
        parts.append(bytes(relocation_blob))
        parts.append(bytes(hint_blob))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ExecutableImage":
        """Parse a serialized image; raises :class:`ImageFormatError`."""
        image = cls.parse(blob)
        image.validate()
        return image

    @classmethod
    def parse(cls, blob: bytes) -> "ExecutableImage":
        """The image ``blob`` serializes, checked only as far as reading
        it needs (:class:`ImageFormatError`): :meth:`validate` it before
        use, as :meth:`from_bytes` and ``disassemble_image`` do."""
        if len(blob) < _HEADER.size:
            raise ImageFormatError("image too short for header")
        (
            magic,
            version,
            text_base,
            data_base,
            entry_point,
            text_size,
            data_size,
            symbol_count,
            table_count,
            relocation_count,
            hint_count,
        ) = _HEADER.unpack_from(blob, 0)
        if magic != MAGIC:
            raise ImageFormatError(f"bad magic {magic!r}")
        if version != 1:
            raise ImageFormatError(f"unsupported version {version}")
        offset = _HEADER.size
        if offset + text_size + data_size > len(blob):
            raise ImageFormatError("sections extend past end of image")
        text = blob[offset : offset + text_size]
        offset += text_size
        data = blob[offset : offset + data_size]
        offset += data_size
        symbols: List[Symbol] = []
        for _ in range(symbol_count):
            if offset + _SYMBOL_FIXED.size > len(blob):
                raise ImageFormatError("truncated symbol table")
            address, size, exported, name_length = _SYMBOL_FIXED.unpack_from(
                blob, offset
            )
            offset += _SYMBOL_FIXED.size
            if offset + name_length > len(blob):
                raise ImageFormatError("truncated symbol name")
            try:
                name = blob[offset : offset + name_length].decode("utf-8")
            except UnicodeDecodeError as error:
                raise ImageFormatError(
                    f"symbol name is not UTF-8: {error}"
                ) from None
            offset += name_length
            symbols.append(Symbol(name, address, size, bool(exported)))
        jump_tables: List[JumpTableInfo] = []
        for _ in range(table_count):
            if offset + _JUMP_TABLE.size > len(blob):
                raise ImageFormatError("truncated jump-table metadata")
            jump_address, table_address, count = _JUMP_TABLE.unpack_from(blob, offset)
            offset += _JUMP_TABLE.size
            jump_tables.append(JumpTableInfo(jump_address, table_address, count))
        if offset + 8 * relocation_count > len(blob):
            raise ImageFormatError("truncated data relocations")
        data_relocations = list(_u64s(blob, offset, relocation_count))
        offset += 8 * relocation_count
        call_target_hints: List[CallTargetHint] = []
        for _ in range(hint_count):
            if offset + _HINT_FIXED.size > len(blob):
                raise ImageFormatError("truncated call-target hints")
            call_address, target_count = _HINT_FIXED.unpack_from(blob, offset)
            offset += _HINT_FIXED.size
            if offset + 8 * target_count > len(blob):
                raise ImageFormatError("truncated call-target hint targets")
            targets = _u64s(blob, offset, target_count)
            offset += 8 * target_count
            call_target_hints.append(CallTargetHint(call_address, targets))
        return cls(
            text=text,
            data=data,
            text_base=text_base,
            data_base=data_base,
            entry_point=entry_point,
            symbols=symbols,
            jump_tables=jump_tables,
            data_relocations=data_relocations,
            call_target_hints=call_target_hints,
        )


def _u64s(blob: bytes, offset: int, count: int) -> Tuple[int, ...]:
    """``count`` little-endian 64-bit words of ``blob`` from ``offset``."""
    return struct.unpack_from(f"<{count}Q", blob, offset)


def pack_jump_table(targets: Sequence[int]) -> bytes:
    """Encode jump-table targets as data-section bytes."""
    return b"".join(_U64.pack(t) for t in targets)
