"""Persist routine summaries next to the binary, in two formats.

* **SUM1** — a compact, versioned serialization of an
  :class:`~repro.interproc.summaries.SummarySet`, keyed by a
  fingerprint of the executable image so a stale file is rejected
  wholesale;
* **SUM5** — the one *pack* format every cached answer lives in: the
  incremental sidecar (:func:`dump_cache` / :func:`load_cache`, one
  :class:`SummaryCache`) and each pack of the cross-image store
  (:mod:`repro.interproc.store`).  A pack holds routine tables — per
  routine a :class:`RoutineRow`, its answer with the inputs it was
  solved from — the summaries, the front-end records that give the
  next run its call graph without CFGs
  (:class:`repro.cfg.cfg.FrontendRecord`), and optionally the labeled
  PSG fragment of each routine body
  (:class:`repro.psg.build.PsgFragment`).  Earlier sidecar layouts
  (``SUM2`` to ``SUM4``, SUM5 version 1) and the store's former packs
  fail the magic or version check: a sidecar starts cold, a store pack
  misses and is unlinked.

SUM1 layout (little-endian)::

    magic "SUM1" | u64 image_fingerprint | u32 routine_count
    per routine:
      u16 name_len | name utf-8
      <summary body>

SUM5 layout: a pack (:func:`encode_pack`), magic ``"SUM5"``, version 2,
whose slots ``(grade, key)`` are::

    (1, t)  the t-th routine table, n routines in name order, column by
            column:
              u64 image_fingerprint | u64 config_digest | u32 n
              n x (u16 name_len | name utf-8)
              n x (u64 routine_fingerprint
                   u8 flags   (bit 0: externally callable, bit 1: summarized)
                   u32 triple (its index in the triple pool)
                   u32 target_count | u64 exit_seed)
              u32 t | t x (u64 may_use | u64 may_def | u64 must_def)
                                     (the triple pool: distinct triples)
              per routine, target_count x u32
                                     (0: inside the component, else
                                      1 + the target's triple's index)
              per summarized routine, target_count x u64
                                     (each target's site's live-after mask)
    (2, t << 32 | i)  the summary body of table t's i-th routine, if
            summarized
    (4, 0)  front-end records in shape-key order: u32 count | per record:
              u64 shape_key | u32 block_count
              u32 site_count | per site:
                u32 block | u32 instruction_index
                u8 flags      (bit 0: indirect, bit 1: constant follows)
                [i64 constant]
              u32 candidate_count | per escape candidate: u64 value
    (5, k)  the PSG fragment of the routine body whose shape key is k:
              u32 exit_count | u32 site_count | u32 branch_count
              u32 label_count | u32 edge_count | u64 saved
              exit_count x u32 block | exit_count x u8 kind
              branch_count x u32 block
              label_count x (u64 may_use | u64 may_def | u64 must_def)
              edge_count x u32 source | edge_count x u32 target
              edge_count x u32 label

A sidecar, and every pack a run publishes, holds one table; the store's
``gc`` merges packs into one with a table per run it merged, because a
component's answer is only adopted from rows one run solved together.
A row without the summarized flag is a phase-1-only answer (a demand
query validated the routine's triple but not its liveness); its exit
seed is 0.  Table 0 and the record section are mandatory; a summarized
routine without a body, or a body no summarized row claims, is
malformed.  Records and fragments are filed by shape key, so they stay
good across edits that change whom a routine calls and in any image
that links the same body.  Records no CFG could have produced are
rejected here; whether a well-formed one fits a routine is checked
where it is used (:func:`repro.cfg.build.resolve_call_sites`).  A
table's configuration digest scopes its rows, and a sidecar's scopes
everything in it, to the configuration they were solved under.

Shared summary body::

    u64 call_used | u64 call_defined | u64 call_killed
    u64 live_at_entry | u64 saved_restored
    u32 exit_count   | per exit:  u32 block | u8 kind | u64 live
    u32 site_count   | per site:
      u32 block | u32 instruction_index | u8 indirect
      u16 target_count | per target: u16 len | utf-8
      u64 used | u64 defined | u64 killed | u64 live_before | u64 live_after

**What is read when.**  :func:`read_pack` checks the frame, the
checksum and the index, and decodes the routine tables — everything a
run compares or reads, so no run decodes a body — and the records:
every malformed prefix, bad magic, invalid UTF-8 name, unknown flag or
mask wider than the register file raises :class:`SummaryFormatError`,
never ``struct.error`` or ``IndexError``.  Bodies and fragments stay
bytes (:class:`PackedMap`) until first read (a consumer asks for an
adopted summary, a region appends a routine); one that passed the
checksum but does not decode (only a deliberately re-checksummed file
holds one) raises :class:`SummaryFormatError` there.  Adopting a
summary from the store reads nothing: :meth:`PackedMap.check` walks
the body and refuses exactly what decoding would, building no objects,
and the body stays bytes.  Writing the next sidecar copies the bytes of
every body and fragment the run kept.
"""

from __future__ import annotations

import logging
import os
import struct
import zlib
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain, count, repeat
from operator import and_, invert, sub
from typing import (
    AbstractSet, Any, Callable, Dict, Iterable, List, Mapping, NamedTuple,
    Optional, Sequence, Tuple,
)

from repro.cfg.cfg import CallSite, ExitKind, FrontendRecord, RecordedSite
from repro.dataflow.equations import SummaryTriple
from repro.dataflow.regset import FULL_MASK
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import span
from repro.interproc.summaries import SummarySet, CallSiteSummary, RoutineSummary
from repro.psg.build import PsgFragment

MAGIC = b"SUM1"

_SIZES = {"I": 4, "Q": 8}
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
#: Five register masks in a row (a summary's, a call site's).
_MASKS5 = struct.Struct("<5Q")
#: Exit: block, kind code, live mask.
_EXIT = struct.Struct("<IBQ")
#: Call site: block, instruction index, indirect, target count.
_SITE_HEAD = struct.Struct("<IIBH")
#: Front-end record: shape key, block count, site count.
_RECORD_HEADER = struct.Struct("<QII")
#: Recorded call site: block, instruction index, flags.
_RECORD_SITE = struct.Struct("<IIB")
#: Routine table: image fingerprint, config digest, routine count.
_TABLE_HEAD = struct.Struct("<QQI")
_TABLE_KEYS = struct.Struct("<QQ")
#: A summary body's slot key: its table's index above its row's ordinal.
_TABLE_SHIFT = 32
#: Routine table row: fingerprint, flags, triple index, call-target
#: count, exit seed.
_ROW = struct.Struct("<QBIIQ")
#: Fragment: exit, site, branch, label and edge counts, saved mask.
_FRAGMENT_HEAD = struct.Struct("<5IQ")

_EXIT_KIND_CODES = {
    ExitKind.RETURN: 0,
    ExitKind.HALT: 1,
    ExitKind.UNKNOWN_JUMP: 2,
}
_EXIT_KIND_BY_CODE = {code: kind for kind, code in _EXIT_KIND_CODES.items()}

_FLAG_EXTERNALLY_CALLABLE = 1
_FLAG_SUMMARY = 2
_FLAGS_EXTERNAL_SUMMARY = _FLAG_SUMMARY | _FLAG_EXTERNALLY_CALLABLE

_SITE_INDIRECT = 1
_SITE_HAS_CONSTANT = 2

_log = logging.getLogger(__name__)


class SummaryFormatError(ValueError):
    """Raised for malformed or stale summary sidecars."""


def crc64(data: bytes) -> int:
    """A 64-bit content hash built from two independent CRC32 passes.

    The low word is the plain CRC32; the high word is the CRC32 of the
    byte-reversed input, which is not derivable from the first (CRC is
    linear, but byte reversal is not a GF(2) automorphism of the
    message space), so collisions require defeating both passes.
    """
    return zlib.crc32(data) | (zlib.crc32(data[::-1]) << 32)


_tmp_names = count()


def atomic_write(path: str, blob: bytes) -> None:
    """Write ``blob`` to ``path`` through a temp file named for this
    write alone and ``os.replace``d over it, so a reader sees the old
    file or the new one; on failure the temp file goes and the
    ``OSError`` is raised."""
    tmp = f"{path}.tmp.{os.getpid()}.{next(_tmp_names)}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except OSError:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def image_fingerprint(image_bytes: bytes) -> int:
    """A cheap 64-bit content fingerprint of the executable image.

    Historically this was ``crc32 | (len << 32)``, which discards the
    CRC's collision resistance across images of equal length (any two
    same-length images collide iff their CRC32s collide, and the
    length word adds nothing).  It is now a full 64-bit hash; see
    :func:`crc64`.
    """
    return crc64(image_bytes)


class _Writer:
    def __init__(self) -> None:
        self.parts: List[bytes] = []

    def u32(self, value: int) -> None:
        self.parts.append(_U32.pack(value))

    def u64(self, value: int) -> None:
        self.parts.append(_U64.pack(value))

    def text(self, value: str) -> None:
        self.parts.append(_text_bytes(value))

    def blob(self) -> bytes:
        return b"".join(self.parts)


def _check_masks(values: tuple) -> None:
    """``values`` are unsigned; none may be wider than the register file."""
    if max(values) > FULL_MASK:
        wide = next(value for value in values if value > FULL_MASK)
        raise SummaryFormatError(
            f"register mask {wide:#x} exceeds the register file"
        )


class _Reader:
    def __init__(self, blob: bytes) -> None:
        self.blob = blob
        self.offset = 0
        #: Encoded name -> its one ``str`` for this load: a routine's
        #: name recurs at every call site that targets it.
        self.names: Dict[bytes, str] = {}

    def fields(self, spec: struct.Struct) -> tuple:
        try:
            values = spec.unpack_from(self.blob, self.offset)
        except struct.error:
            raise SummaryFormatError("truncated summary file") from None
        self.offset += spec.size
        return values

    def _unpack(self, spec: struct.Struct) -> int:
        return self.fields(spec)[0]

    def u16(self) -> int:
        return self._unpack(_U16)

    def u32(self) -> int:
        return self._unpack(_U32)

    def u64(self) -> int:
        return self._unpack(_U64)

    def take(self, count: int) -> bytes:
        """The next ``count`` bytes."""
        end = self.offset + count
        if end > len(self.blob):
            raise SummaryFormatError("truncated summary file")
        raw = self.blob[self.offset : end]
        self.offset = end
        return raw

    def array(self, code: str, count: int) -> Tuple[int, ...]:
        """The next ``count`` values of struct type ``code``."""
        return struct.unpack(f"<{count}{code}", self.take(_SIZES[code] * count))

    def text(self) -> str:
        length = self.u16()
        if self.offset + length > len(self.blob):
            raise SummaryFormatError("truncated summary string")
        raw = self.blob[self.offset : self.offset + length]
        self.offset += length
        return self.names.get(raw) or self.name(raw)

    def name(self, raw: bytes) -> str:
        """``raw`` decoded, and remembered for the rest of the load."""
        try:
            value = self.names[raw] = raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise SummaryFormatError(f"invalid UTF-8 in summary: {error}") from None
        return value

    def expect_end(self) -> None:
        if self.offset != len(self.blob):
            raise SummaryFormatError("trailing bytes after summaries")


# ----------------------------------------------------------------------
# Shared summary-body codec
# ----------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _text_bytes(value: str) -> bytes:
    """``value`` as :meth:`_Writer.text` writes it (routine names recur
    at every call site that targets them)."""
    encoded = value.encode("utf-8")
    return _U16.pack(len(encoded)) + encoded


def _write_summary_body(parts: List[bytes], summary: RoutineSummary) -> None:
    append = parts.append
    append(
        _MASKS5.pack(
            summary.call_used_mask,
            summary.call_defined_mask,
            summary.call_killed_mask,
            summary.live_at_entry_mask,
            summary.saved_restored_mask,
        )
    )
    exit_live, exit_kinds = summary.exit_live_masks, summary.exit_kinds
    exits = sorted(exit_live)
    append(_U32.pack(len(exits)))
    for block in exits:
        append(
            _EXIT.pack(block, _EXIT_KIND_CODES[exit_kinds[block]], exit_live[block])
        )
    append(_U32.pack(len(summary.call_sites)))
    for site in summary.call_sites:
        call = site.site
        targets = call.targets
        append(
            _SITE_HEAD.pack(
                call.block,
                call.instruction_index,
                1 if call.indirect else 0,
                len(targets),
            )
        )
        for target in targets:
            append(_text_bytes(target))
        append(
            _MASKS5.pack(
                site.used_mask,
                site.defined_mask,
                site.killed_mask,
                site.live_before_mask,
                site.live_after_mask,
            )
        )


def _read_summary_body(reader: _Reader, name: str) -> RoutineSummary:
    # The hot loop of a load (one pass per call site of the image): read
    # through the bound ``unpack_from``s at a local offset, and let a
    # read past the end surface as ``struct.error`` once per body.
    blob = reader.blob
    offset = reader.offset
    known_name = reader.names.get
    masks_at = _MASKS5.unpack_from
    length_at = _U16.unpack_from
    try:
        summary_masks = masks_at(blob, offset)
        _check_masks(summary_masks)
        (exit_count,) = _U32.unpack_from(blob, offset + _MASKS5.size)
        offset += _MASKS5.size + _U32.size
        exit_live: Dict[int, int] = {}
        exit_kinds: Dict[int, ExitKind] = {}
        for _ in range(exit_count):
            block, code, live = _EXIT.unpack_from(blob, offset)
            offset += _EXIT.size
            if code not in _EXIT_KIND_BY_CODE:
                raise SummaryFormatError(f"unknown exit kind code {code}")
            _check_masks((live,))
            exit_kinds[block] = _EXIT_KIND_BY_CODE[code]
            exit_live[block] = live
        (site_count,) = _U32.unpack_from(blob, offset)
        offset += _U32.size
        sites: List[CallSiteSummary] = []
        for _ in range(site_count):
            block, instruction_index, indirect, target_count = (
                _SITE_HEAD.unpack_from(blob, offset)
            )
            offset += _SITE_HEAD.size
            targets = []
            for _ in range(target_count):
                (length,) = length_at(blob, offset)
                offset += _U16.size
                raw = blob[offset : offset + length]
                offset += length
                if offset > len(blob):
                    raise SummaryFormatError("truncated summary string")
                targets.append(known_name(raw) or reader.name(raw))
            site_masks = masks_at(blob, offset)
            offset += _MASKS5.size
            _check_masks(site_masks)
            sites.append(
                CallSiteSummary(
                    CallSite(
                        block, instruction_index, tuple(targets), bool(indirect)
                    ),
                    *site_masks,
                )
            )
    except struct.error:
        raise SummaryFormatError("truncated summary file") from None
    reader.offset = offset
    (
        call_used, call_defined, call_killed, live_at_entry, saved_restored
    ) = summary_masks
    return RoutineSummary(
        name, call_used, call_defined, call_killed, live_at_entry,
        exit_live, exit_kinds, sites, saved_restored,
    )


def _check_summary(
    body: bytes, _name: object = None, names: Optional[Dict[bytes, str]] = None
) -> None:
    """Raise :class:`SummaryFormatError` exactly when :func:`_decode_summary`
    would, building nothing: the walk of :func:`_read_summary_body` —
    truncation, an unknown exit kind, a mask wider than the register
    file, a call-target name that is not UTF-8 (``names``, the name
    cache the decoder shares, holds the ones known good), trailing
    bytes — without its objects."""
    if names is None:
        names = {}
    masks_at = _MASKS5.unpack_from
    length_at = _U16.unpack_from
    try:
        high = max(masks_at(body))
        (exit_count,) = _U32.unpack_from(body, _MASKS5.size)
        offset = _MASKS5.size + _U32.size
        # A count past the end fails at the next read, as every field
        # does: its slice is short, or the read after it is out of range.
        end = offset + _EXIT.size * exit_count
        for _block, code, live in _EXIT.iter_unpack(body[offset:end]):
            if code not in _EXIT_KIND_BY_CODE:
                raise SummaryFormatError(f"unknown exit kind code {code}")
            if live > high:
                high = live
        (site_count,) = _U32.unpack_from(body, end)
        offset = end + _U32.size
        for _ in range(site_count):
            target_count = _SITE_HEAD.unpack_from(body, offset)[3]
            offset += _SITE_HEAD.size
            for _ in range(target_count):
                (length,) = length_at(body, offset)
                start = offset + _U16.size
                offset = start + length
                raw = body[start:offset]
                if raw not in names:
                    try:
                        names[raw] = raw.decode("utf-8")
                    except UnicodeDecodeError as error:
                        raise SummaryFormatError(
                            f"invalid UTF-8 in summary: {error}"
                        ) from None
            site_high = max(masks_at(body, offset))
            offset += _MASKS5.size
            if site_high > high:
                high = site_high
    except struct.error:
        raise SummaryFormatError("truncated summary file") from None
    if high > FULL_MASK:
        raise SummaryFormatError(f"register mask {high:#x} exceeds the register file")
    if offset != len(body):
        raise SummaryFormatError("trailing bytes after the summary")


def _check_header(blob: bytes, magic: bytes) -> None:
    if len(blob) < len(magic):
        raise SummaryFormatError(
            f"truncated summary file: {len(blob)} bytes is shorter than "
            f"the {len(magic)}-byte magic"
        )
    if blob[: len(magic)] != magic:
        raise SummaryFormatError(f"bad magic {blob[:len(magic)]!r}")


def _check_fingerprint(fingerprint: int, expected: int) -> None:
    if expected and fingerprint != expected:
        raise SummaryFormatError(
            f"stale summaries: fingerprint {fingerprint:#x} does not match "
            f"image {expected:#x}"
        )


# ----------------------------------------------------------------------
# Packs: the indexed, checksummed frame of the sidecar and the store
# ----------------------------------------------------------------------


#: A record's place in a pack: ``(grade, key)``.
Slot = Tuple[int, int]

#: Pack slot grades (the ``u8`` of an index entry).
GRADE_TABLE = 1
GRADE_BODY = 2
GRADE_RECORDS = 4
GRADE_FRAGMENT = 5
_GRADES = frozenset((GRADE_TABLE, GRADE_BODY, GRADE_RECORDS, GRADE_FRAGMENT))

PACK_MAGIC = b"SUM5"
PACK_VERSION = 2

#: Magic, version, crc64 of the body.
_PACK_HEADER = struct.Struct("<4sBQ")
_PACK_COUNT = struct.Struct("<I")
#: Index entry: grade, key, offset, length.
_PACK_ENTRY = struct.Struct("<BQII")


def pack_checksum(blob: bytes) -> int:
    """The body checksum a pack's header carries."""
    return _PACK_HEADER.unpack_from(blob)[2]


def encode_pack(records: Mapping[Slot, bytes]) -> bytes:
    """One pack holding ``records`` (record bodies by slot)::

        magic | u8 version | u64 crc64(body) | body
        body = u32 n | n x (u8 grade, u64 key, u32 offset, u32 length)
             | record bodies        (offsets from the first record body)
    """
    slots = sorted(records)
    parts = [_PACK_COUNT.pack(len(slots))]
    offset = 0
    for grade, key in slots:
        length = len(records[grade, key])
        parts.append(_PACK_ENTRY.pack(grade, key, offset, length))
        offset += length
    parts.extend(records[slot] for slot in slots)
    body = b"".join(parts)
    return _PACK_HEADER.pack(PACK_MAGIC, PACK_VERSION, crc64(body)) + body


def decode_pack(blob: bytes) -> List[Tuple[int, int, int, int]]:
    """Check a pack's frame, checksum and index; its entries as
    ``(grade, key, start, end)`` with ``blob[start:end]`` the record.

    Raises :class:`SummaryFormatError` for anything but a pack of this
    version, so nothing in it is read unchecked.
    """
    _check_header(blob, PACK_MAGIC)
    index = _PACK_HEADER.size + _PACK_COUNT.size
    if len(blob) < index:
        raise SummaryFormatError("truncated pack header")
    _magic, version, checksum = _PACK_HEADER.unpack_from(blob)
    if version != PACK_VERSION:
        raise SummaryFormatError(f"unsupported pack v{version}")
    if crc64(blob[_PACK_HEADER.size:]) != checksum:
        raise SummaryFormatError("pack checksum mismatch")
    (count,) = _PACK_COUNT.unpack_from(blob, _PACK_HEADER.size)
    base = index + count * _PACK_ENTRY.size
    if base > len(blob):
        raise SummaryFormatError("truncated pack index")
    entries: List[Tuple[int, int, int, int]] = []
    previous: Slot = (0, 0)  # below every grade
    for grade, key, offset, length in _PACK_ENTRY.iter_unpack(blob[index:base]):
        if grade not in _GRADES:
            raise SummaryFormatError(f"unknown pack record grade {grade}")
        if (grade, key) <= previous:
            raise SummaryFormatError("pack index out of order")
        previous = (grade, key)
        start = base + offset
        end = start + length
        if end > len(blob):
            raise SummaryFormatError("pack entry points past the body")
        entries.append((grade, key, start, end))
    return entries


# ----------------------------------------------------------------------
# Values held as objects, as bytes, or both
# ----------------------------------------------------------------------


class _Packed:
    """One value of a :class:`PackedMap`: the object, its encoded
    bytes, or both; ``spliced`` when the bytes came from a sidecar."""

    __slots__ = ("value", "body", "spliced")

    def __init__(
        self, value: Any, body: Optional[bytes] = None, spliced: bool = False
    ) -> None:
        self.value = value
        self.body = body
        self.spliced = spliced


class _Codec(NamedTuple):
    decode: Callable[[bytes, Any], Any]
    encode: Callable[[Any], bytes]
    #: Raises :class:`SummaryFormatError` exactly when ``decode`` would,
    #: building nothing (``None`` for fragments: no reader checks one
    #: without appending it).
    check: Optional[Callable[[bytes, Any], None]] = None


class PackedMap(Mapping):
    """A read-only mapping whose values are each held as an object, as
    the bytes a sidecar stores for it, or both, and turned into the
    other at most once, when first needed.

    The maps :func:`load_cache` returns hold bytes only: reading a value
    decodes it, and writing the next sidecar copies the bytes as they
    are; a run's own values are encoded when first written, so a run
    whose cache nobody writes never pays for that.  :func:`overlaid`
    builds a run's map from the values it produced over the map it
    read; the two share the values they have in common, so a value is
    encoded or decoded once, whichever map is asked first, and maps
    built over maps never form a chain.
    """

    __slots__ = ("_cells", "_codec")

    def __init__(self, cells: Dict[Any, _Packed], codec: _Codec) -> None:
        self._cells = cells
        self._codec = codec

    @classmethod
    def of(cls, values: Mapping, codec: _Codec) -> "PackedMap":
        """``values``, each encoded when first asked for its bytes."""
        return cls({key: _Packed(value) for key, value in values.items()}, codec)

    def __getitem__(self, key):
        cell = self._cells[key]
        value = cell.value
        if value is None:
            value = cell.value = self._codec.decode(self._body(cell), key)
        return value

    def __contains__(self, key: object) -> bool:
        return key in self._cells

    def __iter__(self):
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def check(self, key) -> None:
        """Raise :class:`SummaryFormatError` if ``key``'s bytes would not
        decode; the cell stays bytes.  A value already held passes."""
        cell = self._cells[key]
        if cell.value is None:
            self._codec.check(cell.body, key)

    def body(self, key) -> Tuple[bytes, bool]:
        """``key``'s encoded bytes, and whether they were copied from a
        sidecar rather than encoded in this process."""
        cell = self._cells[key]
        return self._body(cell), cell.spliced

    def _body(self, cell: _Packed) -> bytes:
        body = cell.body
        if body is None:
            body = cell.body = self._codec.encode(cell.value)
        return body

    def share(self, key, source: Mapping) -> None:
        """Hold ``source``'s value for ``key``: its very cell when
        ``source`` is a :class:`PackedMap`, so nothing is built or
        decoded here."""
        self._cells[key] = (
            source._cells[key] if isinstance(source, PackedMap)
            else _Packed(source[key])
        )


def restricted(values: Mapping, keys: AbstractSet) -> dict:
    """A copy of the dict ``values`` without its keys outside ``keys``:
    a plain copy when it has none."""
    if values.keys() <= keys:
        return dict(values)
    return {key: value for key, value in values.items() if key in keys}


def overlaid(
    base: Mapping, fresh: Mapping, codec: _Codec, keys: AbstractSet,
    dropped: Iterable = (),
) -> PackedMap:
    """``base`` restricted to ``keys`` but ``dropped``, with ``fresh``'s
    values over it (see :meth:`PackedMap.share`): a copy of ``base``'s
    cells, so neither map changes, whose cost follows ``fresh``."""
    if not isinstance(base, PackedMap):
        base = PackedMap.of(base, codec)
    result = PackedMap(restricted(base._cells, keys), codec)
    for key in dropped:
        result._cells.pop(key, None)
    for key in fresh:
        result.share(key, fresh)
    return result


def _packed_body(values: Mapping, key, codec: _Codec) -> Tuple[bytes, bool]:
    if isinstance(values, PackedMap):
        return values.body(key)
    return codec.encode(values[key]), False


def _decode_summary(
    body: bytes, name: str, names: Optional[Dict[bytes, str]] = None
) -> RoutineSummary:
    reader = _Reader(body)
    if names is not None:
        reader.names = names
    summary = _read_summary_body(reader, name)
    if reader.offset != len(body):
        raise SummaryFormatError(f"trailing bytes after the summary of {name!r}")
    REGISTRY.inc("cache.body.decoded")
    return summary


def _encode_summary(summary: RoutineSummary) -> bytes:
    parts: List[bytes] = []
    _write_summary_body(parts, summary)
    return b"".join(parts)


def fragment_body(rows: PsgFragment) -> bytes:
    """The sidecar bytes of one routine's fragment: its nodes renumbered
    from its entry node, its labels from 0 in order of first use — so
    the same routine body gives the same bytes whichever PSG it was
    taken from."""
    exits = rows.exits
    exit_count, branch_count = len(exits), len(rows.branch_blocks)
    used = rows.label_ids
    local = dict(zip(dict.fromkeys(used), count()))
    entry = repeat(rows.entry)
    return b"".join((
        _FRAGMENT_HEAD.pack(
            exit_count, rows.site_count, branch_count, len(local),
            len(used), rows.saved,
        ),
        struct.pack(
            f"<{exit_count}I{exit_count}B{branch_count}I",
            *[block for block, _kind in exits],
            *[_EXIT_KIND_CODES[kind] for _block, kind in exits],
            *rows.branch_blocks,
        ),
        struct.pack(
            f"<{3 * len(local)}Q",
            *chain.from_iterable(map(rows.labels.__getitem__, local)),
        ),
        struct.pack(
            f"<{3 * len(used)}I",
            *map(sub, rows.sources, entry),
            *map(sub, rows.targets, entry),
            *map(local.__getitem__, used),
        ),
    ))


def _decode_fragment(body: bytes, _key: object = None) -> PsgFragment:
    """A fragment checked to append cleanly: known exit kinds, masks
    within the register file, MUST-DEF within MAY-DEF, and every edge
    leaving a source node and entering a target node of the routine."""
    if len(body) < _FRAGMENT_HEAD.size:
        raise SummaryFormatError("truncated PSG fragment")
    exit_count, site_count, branch_count, label_count, edge_count, saved = (
        _FRAGMENT_HEAD.unpack_from(body)
    )
    labels_at = _FRAGMENT_HEAD.size + 5 * exit_count + 4 * branch_count
    edges_at = labels_at + 24 * label_count
    if len(body) != edges_at + 12 * edge_count:
        raise SummaryFormatError("PSG fragment length does not match its counts")
    rows = struct.unpack_from(
        f"<{exit_count}I{exit_count}B{branch_count}I", body, _FRAGMENT_HEAD.size
    )
    masks = struct.unpack_from(f"<{3 * label_count}Q", body, labels_at)
    edges = struct.unpack_from(f"<{3 * edge_count}I", body, edges_at)
    try:
        kinds = map(_EXIT_KIND_BY_CODE.__getitem__, rows[exit_count:2 * exit_count])
        exits = tuple(zip(rows[:exit_count], kinds))
    except KeyError as error:
        raise SummaryFormatError(f"unknown exit kind code {error}") from None
    _check_masks((saved, *masks))
    may_defs, must_defs = masks[1::3], masks[2::3]
    if any(map(and_, must_defs, map(invert, may_defs))):
        raise SummaryFormatError("PSG fragment label has MUST-DEF outside MAY-DEF")
    sources = edges[:edge_count]
    targets = edges[edge_count:2 * edge_count]
    label_ids = edges[2 * edge_count:]
    # Relative node numbers: 0 the entry, then the exits, a call and a
    # return node per site, the branch nodes.
    calls = 1 + exit_count
    branches = calls + 2 * site_count
    branch_nodes = range(branches, branches + branch_count)
    returns = range(calls + 1, branches, 2)
    for node in set(sources):
        if node and node not in returns and node not in branch_nodes:
            raise SummaryFormatError(f"PSG fragment edge leaves node {node}")
    exit_nodes, call_nodes = range(1, calls), range(calls, branches, 2)
    for node in set(targets):
        if (
            node not in exit_nodes and node not in call_nodes
            and node not in branch_nodes
        ):
            raise SummaryFormatError(f"PSG fragment edge enters node {node}")
    if label_ids and max(label_ids) >= label_count:
        raise SummaryFormatError("PSG fragment edge names a missing label")
    return PsgFragment(
        exits=exits,
        site_count=site_count,
        branch_blocks=rows[2 * exit_count:],
        saved=saved,
        labels=tuple(zip(masks[0::3], may_defs, must_defs)),
        sources=sources,
        targets=targets,
        label_ids=label_ids,
    )


#: Summary bodies by routine name — decoded, or only checked (what
#: adopting a store's summary does) — and PSG fragments by shape key.
SUMMARY_BODIES = _Codec(_decode_summary, _encode_summary, _check_summary)
FRAGMENTS = _Codec(_decode_fragment, fragment_body)


# ----------------------------------------------------------------------
# SUM1: plain SummarySet sidecar
# ----------------------------------------------------------------------


def dump_summaries(result: SummarySet, fingerprint: int = 0) -> bytes:
    """Serialize ``result`` (optionally bound to an image fingerprint).

    A :class:`PackedMap` of summaries contributes each body's bytes as
    it holds them (copied from a sidecar, or encoded once and kept)."""
    with span("sidecar.dump", routines=len(result.summaries)):
        writer = _Writer()
        writer.parts.append(MAGIC)
        writer.u64(fingerprint)
        summaries = result.summaries
        names = sorted(summaries)
        writer.u32(len(names))
        for name in names:
            writer.text(name)
            writer.parts.append(_packed_body(summaries, name, SUMMARY_BODIES)[0])
        blob = writer.blob()
    REGISTRY.inc("sidecar.write")
    REGISTRY.inc("sidecar.write_bytes", len(blob))
    _log.debug("dumped SUM1 sidecar: %d routines, %d bytes", len(names), len(blob))
    return blob


def load_summaries(
    blob: bytes, expected_fingerprint: int = 0
) -> SummarySet:
    """Parse a summary sidecar; rejects stale fingerprints.

    Pass ``expected_fingerprint=0`` to skip the staleness check (e.g.
    for summaries not bound to a specific image).
    """
    with span("sidecar.load", bytes=len(blob)):
        _check_header(blob, MAGIC)
        reader = _Reader(blob)
        reader.offset = len(MAGIC)
        _check_fingerprint(reader.u64(), expected_fingerprint)
        summaries: Dict[str, RoutineSummary] = {}
        for _ in range(reader.u32()):
            name = reader.text()
            summaries[name] = _read_summary_body(reader, name)
        reader.expect_end()
    REGISTRY.inc("sidecar.load")
    REGISTRY.inc("sidecar.load_bytes", len(blob))
    _log.debug("loaded SUM1 sidecar: %d routines, %d bytes", len(summaries), len(blob))
    return SummarySet(summaries=summaries)


# ----------------------------------------------------------------------
# SUM5: the one pack format — the incremental sidecar and the store
# ----------------------------------------------------------------------


class RoutineRow(NamedTuple):
    """What a sidecar records of one routine: its phase-1 triple with
    the inputs it was solved from (:data:`repro.interproc.store.Inputs`,
    the leading fields) and, when the sidecar holds its summary, the
    phase-2 inputs too and the live-after masks its callees' exit seeds
    read."""

    fingerprint: int
    callees: Tuple[Optional[SummaryTriple], ...]
    #: ``(externally callable, exit seed)``; ``None`` without a summary.
    phase2: Optional[Tuple[bool, int]]
    triple: SummaryTriple
    #: Per call target, as ``callees``, its site's live-after mask
    #: (empty without a summary).
    live_after: Tuple[int, ...]


@dataclass
class SummaryCache:
    """One routine table: a :class:`RoutineRow` per routine whose triple
    some run solved or adopted, the summaries of exactly the rows that
    carry phase-2 inputs (``result.summaries``, possibly a
    :class:`PackedMap` whose bodies decode on first read), and the front
    end's by-products.

    ``frontend_records`` and ``fragments`` are by shape key: what a run
    needs to find a routine body's call sites, and to re-solve it,
    without walking it; each is scoped by its own key, not by the rows.
    ``config_digest`` is :func:`repro.interproc.store.config_digest` of
    the configuration the writing run solved under (0 for a cache no
    run wrote); a run under another one does not use the table.
    """

    image_fingerprint: int
    result: SummarySet
    rows: Dict[str, RoutineRow] = field(default_factory=dict)
    frontend_records: Mapping[int, FrontendRecord] = field(default_factory=dict)
    config_digest: int = 0
    fragments: Mapping[int, PsgFragment] = field(default_factory=dict)
    #: A loaded table's rows and its bytes after the two keys: a dump
    #: of a refreshed cache holding those very rows copies the bytes.
    table: Optional[Tuple[Mapping[str, RoutineRow], bytes]] = field(
        default=None, compare=False, repr=False
    )


def _encode_table(cache: SummaryCache, names: List[str]) -> bytes:
    """The routine table of ``cache``'s rows, in ``names`` order."""
    rows = [cache.rows[name] for name in names]
    # The pools: distinct values in order of first use.  Most triples
    # are shared objects, so values are compared once per object.
    named = list(chain.from_iterable((row.triple, *row.callees) for row in rows))
    by_id: Dict[int, int] = {}
    pool: Dict[Tuple[int, int, int], int] = {}
    for key, triple in dict(zip(map(id, named), named)).items():
        by_id[key] = 0 if triple is None else 1 + pool.setdefault(
            (triple.may_use, triple.may_def, triple.must_def), len(pool)
        )
    heads: List[bytes] = []
    for row in rows:
        phase2 = row.phase2
        flags, seed = 0, 0
        if phase2 is not None:
            flags = _FLAGS_EXTERNAL_SUMMARY if phase2[0] else _FLAG_SUMMARY
            seed = phase2[1]
        heads.append(_ROW.pack(
            row.fingerprint, flags, by_id[id(row.triple)] - 1, len(row.callees),
            seed,
        ))
    targets = list(map(
        by_id.__getitem__,
        map(id, chain.from_iterable(row.callees for row in rows)),
    ))
    sites = list(chain.from_iterable(row.live_after for row in rows))
    return b"".join((
        _TABLE_HEAD.pack(cache.image_fingerprint, cache.config_digest, len(rows)),
        *map(_text_bytes, names),
        *heads,
        struct.pack(
            f"<I{3 * len(pool)}Q", len(pool), *chain.from_iterable(pool)
        ),
        struct.pack(f"<{len(targets)}I{len(sites)}Q", *targets, *sites),
    ))


def _decode_table(reader: _Reader) -> Tuple[int, int, Dict[str, RoutineRow]]:
    """A routine table's image fingerprint, config digest and rows."""
    fingerprint, digest, count = reader.fields(_TABLE_HEAD)
    names = [reader.text() for _ in range(count)]
    if any(map(str.__ge__, names, names[1:])):
        # A body's slot is its row's place in name order.
        raise SummaryFormatError("routine table names out of name order")
    heads = list(_ROW.iter_unpack(reader.take(_ROW.size * count)))
    values = reader.array("Q", 3 * reader.u32())
    triples = iter(values)
    callee_of = (None, *map(SummaryTriple, triples, triples, triples))
    targets = reader.array("I", sum(head[3] for head in heads))
    sites = reader.array("Q", sum(head[3] for head in heads if head[1]))
    reader.expect_end()
    _check_masks((0, *values, *sites, *(head[4] for head in heads)))
    if max(
        (*targets, *(head[2] + 1 for head in heads)), default=0
    ) >= len(callee_of):
        raise SummaryFormatError("routine table names a triple past its pool")
    rows: Dict[str, RoutineRow] = {}
    target_at = site_at = 0
    for name, (own_fingerprint, flags, own, target_count, seed) in zip(
        names, heads
    ):
        if flags not in (0, _FLAG_SUMMARY, _FLAGS_EXTERNAL_SUMMARY) or (
            not flags and seed
        ):
            raise SummaryFormatError(f"unknown routine flags {flags:#x}")
        target_end = target_at + target_count
        site_end = site_at + (target_count if flags else 0)
        rows[name] = RoutineRow(
            own_fingerprint,
            tuple(map(callee_of.__getitem__, targets[target_at:target_end])),
            (flags == _FLAGS_EXTERNAL_SUMMARY, seed) if flags else None,
            callee_of[own + 1],
            sites[site_at:site_end],
        )
        target_at, site_at = target_end, site_end
    return fingerprint, digest, rows


def _records_section(records: Mapping[int, FrontendRecord]) -> bytes:
    """The record section: ``records`` in shape-key order, one loop."""
    header, site, signed = _RECORD_HEADER.pack, _RECORD_SITE.pack, _I64.pack
    parts = [_U32.pack(len(records))]
    append = parts.append
    for key in sorted(records):
        shape_key, block_count, sites, candidates = records[key]
        append(header(shape_key, block_count, len(sites)))
        for block, index, indirect, constant in sites:
            if constant is None:
                append(site(block, index, _SITE_INDIRECT if indirect else 0))
            else:
                append(site(block, index, _SITE_INDIRECT | _SITE_HAS_CONSTANT))
                append(signed(constant))
        count = len(candidates)
        append(struct.pack(f"<I{count}Q", count, *candidates))
    return b"".join(parts)


def _read_records(reader: _Reader) -> Dict[int, FrontendRecord]:
    """The record section, in one loop through the bound
    ``unpack_from``s at a local offset (a read past the end surfaces as
    ``struct.error`` once): every record one :class:`FrontendRecord`
    accepts, in ascending shape-key order, and nothing after the last."""
    blob = reader.blob
    header_at, site_at = _RECORD_HEADER.unpack_from, _RECORD_SITE.unpack_from
    count_at, signed_at = _U32.unpack_from, _I64.unpack_from
    new_row = tuple.__new__
    records: Dict[int, FrontendRecord] = {}
    previous = -1
    try:
        (count,) = count_at(blob, reader.offset)
        offset = reader.offset + _U32.size
        for _ in range(count):
            shape_key, block_count, site_count = header_at(blob, offset)
            offset += _RECORD_HEADER.size
            sites: List[RecordedSite] = []
            for _ in range(site_count):
                block, index, flags = site_at(blob, offset)
                offset += _RECORD_SITE.size
                if flags & ~(_SITE_INDIRECT | _SITE_HAS_CONSTANT):
                    raise SummaryFormatError(
                        f"unknown call-site flags {flags:#x}"
                    )
                constant = None
                if flags & _SITE_HAS_CONSTANT:
                    (constant,) = signed_at(blob, offset)
                    offset += _I64.size
                # ``tuple.__new__``: the row without the Python frame
                # of the named tuple's own ``__new__``.
                indirect = (flags & _SITE_INDIRECT) != 0
                sites.append(
                    new_row(RecordedSite, (block, index, indirect, constant))
                )
            (candidate_count,) = count_at(blob, offset)
            offset += _U32.size
            end = offset + _U64.size * candidate_count
            if end > len(blob):
                raise SummaryFormatError("truncated summary file")
            candidates = struct.unpack_from(f"<{candidate_count}Q", blob, offset)
            offset = end
            try:
                record = FrontendRecord(
                    shape_key, block_count, tuple(sites), candidates
                )
            except ValueError as error:
                raise SummaryFormatError(str(error)) from None
            if shape_key <= previous:
                raise SummaryFormatError("front-end records out of order")
            records[shape_key] = record
            previous = shape_key
    except struct.error:
        raise SummaryFormatError("truncated summary file") from None
    reader.offset = offset
    reader.expect_end()
    return records


def _table_slots(slots: Dict[Slot, bytes], index: int, cache: SummaryCache) -> int:
    """File ``cache``'s routine table and summary bodies in ``slots`` as
    a pack's ``index``-th table; how many bodies were copied as bytes."""
    rows, summaries = cache.rows, cache.result.summaries
    names = sorted(rows)
    loaded = cache.table
    if loaded is not None and len(loaded[0]) == len(rows) and all(
        rows.get(name) is row for name, row in loaded[0].items()
    ):
        table = _TABLE_KEYS.pack(cache.image_fingerprint, cache.config_digest)
        table += loaded[1]
    else:
        table = _encode_table(cache, names)
    slots[GRADE_TABLE, index] = table
    base = index << _TABLE_SHIFT
    spliced = 0
    for ordinal, name in enumerate(names):
        if rows[name].phase2 is not None:
            slots[GRADE_BODY, base | ordinal], copied = _packed_body(
                summaries, name, SUMMARY_BODIES
            )
            spliced += copied
    return spliced


def pack_slots(
    tables: Sequence[SummaryCache],
    records: Mapping[int, FrontendRecord],
    fragments: Mapping[int, PsgFragment],
) -> Tuple[Dict[Slot, bytes], int]:
    """The slots of one pack of ``tables`` (in order), ``records`` and
    ``fragments``, and how many summary bodies they copy as bytes (see
    :class:`PackedMap`) rather than encode."""
    slots: Dict[Slot, bytes] = {(GRADE_RECORDS, 0): _records_section(records)}
    spliced = sum(
        _table_slots(slots, index, table) for index, table in enumerate(tables)
    )
    for key in fragments:
        slots[GRADE_FRAGMENT, key] = _packed_body(fragments, key, FRAGMENTS)[0]
    return slots, spliced


def read_pack(blob: bytes) -> List[SummaryCache]:
    """Every routine table of a pack, in order, each holding the pack's
    front-end records and fragments.

    Checks the frame, the checksum and the index, and decodes the
    tables and the records; summary bodies and fragments are decoded
    when first read (see the module docstring).
    """
    slots: Dict[Slot, Tuple[int, int]] = {}
    fragments: Dict[int, _Packed] = {}
    bodies = 0
    for grade, key, start, end in decode_pack(blob):
        if grade == GRADE_FRAGMENT:
            fragments[key] = _Packed(None, blob[start:end], True)
        else:
            slots[grade, key] = (start, end)
            bodies += grade == GRADE_BODY
    names: Dict[bytes, str] = {}

    def reader(slot: Slot, what: str) -> _Reader:
        found = slots.get(slot)
        if found is None:
            raise SummaryFormatError(f"pack has no {what}")
        section = _Reader(blob[found[0]:found[1]])
        section.names = names
        return section

    records = _read_records(reader((GRADE_RECORDS, 0), "record section"))
    fragment_map = PackedMap(fragments, FRAGMENTS)
    # The pack's bodies resolve call-target names through the cache its
    # routine tables fill.
    bodies_codec = SUMMARY_BODIES._replace(
        decode=partial(_decode_summary, names=names),
        check=partial(_check_summary, names=names),
    )
    tables: List[SummaryCache] = []
    claimed = 0
    for index in range(max(1, sum(grade == GRADE_TABLE for grade, _ in slots))):
        table = reader((GRADE_TABLE, index), "routine table")
        fingerprint, digest, rows = _decode_table(table)
        base = index << _TABLE_SHIFT
        cells: Dict[str, _Packed] = {}
        for ordinal, (name, row) in enumerate(rows.items()):
            if row.phase2 is None:
                continue
            found = slots.get((GRADE_BODY, base | ordinal))
            if found is None:
                raise SummaryFormatError(f"routine {name!r} has no summary body")
            cells[name] = _Packed(None, blob[found[0]:found[1]], True)
        claimed += len(cells)
        tables.append(SummaryCache(
            image_fingerprint=fingerprint,
            result=SummarySet(summaries=PackedMap(cells, bodies_codec)),
            rows=rows,
            frontend_records=records,
            config_digest=digest,
            fragments=fragment_map,
            table=(dict(rows), table.blob[_TABLE_KEYS.size:]),
        ))
    if len(slots) != 1 + len(tables) + claimed:
        raise SummaryFormatError(
            f"pack holds {bodies} summary bodies for {claimed} summarized "
            f"routines in {len(tables)} tables"
        )
    return tables


def dump_cache(cache: SummaryCache) -> bytes:
    """Serialize a :class:`SummaryCache` as a one-table SUM5 pack
    (summary bodies and fragments a :class:`PackedMap` holds as bytes
    are copied, not re-encoded)."""
    with span("cache.dump", routines=len(cache.rows)):
        slots, spliced = pack_slots(
            [cache], cache.frontend_records, cache.fragments
        )
        blob = encode_pack(slots)
    REGISTRY.inc("cache.write")
    REGISTRY.inc("cache.write_bytes", len(blob))
    REGISTRY.inc("cache.body.spliced", spliced)
    _log.debug("dumped SUM5 cache: %d routines, %d bytes", len(cache.rows), len(blob))
    return blob


def load_cache(blob: bytes, expected_fingerprint: int = 0) -> SummaryCache:
    """Parse a SUM5 pack — a sidecar, or a store pack, of which the
    first table is read — and reject a stale image fingerprint.

    As with :func:`load_summaries`, ``expected_fingerprint=0`` skips the
    whole-image staleness check: the incremental engine compares each
    component's recorded inputs, so a stale image is *not* an error for
    it, just a cache some of whose rows no longer apply.
    """
    with span("cache.load", bytes=len(blob)):
        cache = read_pack(blob)[0]
        _check_fingerprint(cache.image_fingerprint, expected_fingerprint)
    REGISTRY.inc("cache.load")
    REGISTRY.inc("cache.load_bytes", len(blob))
    _log.debug(
        "loaded SUM5 cache: %d routines, %d bytes", len(cache.rows), len(blob)
    )
    return cache
