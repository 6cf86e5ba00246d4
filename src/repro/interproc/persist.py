"""Persist routine summaries to a sidecar file.

A production post-link optimizer does not reanalyze the world on every
invocation: it writes the interprocedural summaries next to the binary
and reloads them while the binary is unchanged.  This module provides
two sidecar formats:

* **SUM1** — a compact, versioned binary serialization of an
  :class:`~repro.interproc.summaries.SummarySet`, keyed by a
  fingerprint of the executable image so a stale sidecar is rejected
  wholesale;
* **SUM3** — the incremental-analysis cache
  (:class:`SummaryCache`): the same per-routine summary records, each
  additionally carrying a 64-bit *routine* content fingerprint (image
  code bytes, exported flag, routine-relative jump-table targets and
  call-site target lists, see
  :func:`repro.interproc.frontend.routine_fingerprint`) and an
  externally-callable flag, so a warm run can invalidate at routine
  granularity instead of all-or-nothing.  A fingerprint mismatch only
  ever means "re-solve", so a sidecar written under an older
  fingerprint definition goes fully stale once and is then refreshed.
  It also carries the *front-end records* that let the next run derive
  its call graph without building CFGs
  (:class:`repro.cfg.cfg.FrontendRecord`).  ``SUM2`` was this format
  without the record section; a ``SUM2`` file has a bad magic now, its
  readers start cold and rewrite it.

SUM1 layout (little-endian)::

    magic "SUM1" | u64 image_fingerprint | u32 routine_count
    per routine:
      u16 name_len | name utf-8
      <summary body>

SUM3 layout (little-endian)::

    magic "SUM3" | u64 image_fingerprint | u32 routine_count
    per routine:
      u16 name_len | name utf-8
      u64 routine_fingerprint
      u8 flags            (bit 0: externally callable)
      <summary body>
    u32 triple_count | per triple:
      u16 name_len | name utf-8
      u64 routine_fingerprint
      u64 may_use | u64 may_def | u64 must_def
    u32 record_count | per front-end record:
      u16 name_len | name utf-8
      u64 shape_key | u32 block_count
      u32 site_count | per site:
        u32 block | u32 instruction_index
        u8 flags          (bit 0: indirect, bit 1: constant follows)
        [i64 constant]
      u32 candidate_count | per escape candidate: u64 value

The *triple* section carries phase-1-only entries written by
the demand-driven query engine (:mod:`repro.interproc.demand`): a
routine whose call-used/defined/killed triple was validated by a query
but whose phase-2 liveness never was.  The section is mandatory (an
empty cache writes ``triple_count == 0``), and so is the *record*
section after it.  A record is keyed by routine name like everything
else but validated by its own ``shape_key``, not by the routine
fingerprint: it stays good across edits that change whom the routine
calls or whether it is exported.  Records that no CFG could have
produced (no blocks, sites out of order or past the last block, a
constant on a direct call) are rejected here; whether a well-formed
record fits the routine it names is checked where it is used
(:func:`repro.cfg.build.recorded_call_sites`).

Shared summary body::

    u64 call_used | u64 call_defined | u64 call_killed
    u64 live_at_entry | u64 saved_restored
    u32 exit_count   | per exit:  u32 block | u8 kind | u64 live
    u32 site_count   | per site:
      u32 block | u32 instruction_index | u8 indirect
      u16 target_count | per target: u16 len | utf-8
      u64 used | u64 defined | u64 killed | u64 live_before | u64 live_after

Every malformed prefix — truncation at any byte offset, a bad magic,
an invalid UTF-8 name, an unknown exit-kind code, a mask wider than
the register file, or trailing bytes — raises
:class:`SummaryFormatError`; callers never see ``struct.error`` or
``IndexError``.

Invalidation rules for SUM3 are implemented by
:mod:`repro.interproc.incremental`: a routine whose fingerprint
changed dirties its call-graph SCC, phase-1 results of its transitive
*callers*, and phase-2 results of its transitive *callees* (see that
module's docstring for the direction argument).
"""

from __future__ import annotations

import logging
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.cfg.cfg import CallSite, ExitKind, FrontendRecord, RecordedSite
from repro.dataflow.equations import SummaryTriple
from repro.dataflow.regset import FULL_MASK
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import span
from repro.interproc.summaries import (
    SummarySet,
    CallSiteSummary,
    RoutineSummary,
)

MAGIC = b"SUM1"
MAGIC3 = b"SUM3"

_U8 = struct.Struct("<B")
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

_EXIT_KIND_CODES = {
    ExitKind.RETURN: 0,
    ExitKind.HALT: 1,
    ExitKind.UNKNOWN_JUMP: 2,
}
_EXIT_KIND_BY_CODE = {code: kind for kind, code in _EXIT_KIND_CODES.items()}

_FLAG_EXTERNALLY_CALLABLE = 1

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

    def u8(self, value: int) -> None:
        self.parts.append(_U8.pack(value))

    def u16(self, value: int) -> None:
        self.parts.append(_U16.pack(value))

    def u32(self, value: int) -> None:
        self.parts.append(_U32.pack(value))

    def u64(self, value: int) -> None:
        self.parts.append(_U64.pack(value))

    def text(self, value: str) -> None:
        encoded = value.encode("utf-8")
        self.u16(len(encoded))
        self.parts.append(encoded)

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

    def u8(self) -> int:
        return self._unpack(_U8)

    def u16(self) -> int:
        return self._unpack(_U16)

    def u32(self) -> int:
        return self._unpack(_U32)

    def u64(self) -> int:
        return self._unpack(_U64)

    def i64(self) -> int:
        return self._unpack(_I64)

    def masks(self, spec: struct.Struct) -> tuple:
        """``spec``'s fields, every one of them a register mask."""
        values = self.fields(spec)
        _check_masks(values)
        return values

    def mask(self) -> int:
        return self.masks(_U64)[0]

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


def _write_summary_body(writer: _Writer, summary: RoutineSummary) -> None:
    parts = writer.parts
    parts.append(
        _MASKS5.pack(
            summary.call_used_mask,
            summary.call_defined_mask,
            summary.call_killed_mask,
            summary.live_at_entry_mask,
            summary.saved_restored_mask,
        )
    )
    exits = sorted(summary.exit_live_masks)
    writer.u32(len(exits))
    for block in exits:
        parts.append(
            _EXIT.pack(
                block,
                _EXIT_KIND_CODES[summary.exit_kinds[block]],
                summary.exit_live_masks[block],
            )
        )
    writer.u32(len(summary.call_sites))
    for site in summary.call_sites:
        call = site.site
        parts.append(
            _SITE_HEAD.pack(
                call.block,
                call.instruction_index,
                1 if call.indirect else 0,
                len(call.targets),
            )
        )
        for target in call.targets:
            writer.text(target)
        parts.append(
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
        name=name,
        call_used_mask=call_used,
        call_defined_mask=call_defined,
        call_killed_mask=call_killed,
        live_at_entry_mask=live_at_entry,
        exit_live_masks=exit_live,
        exit_kinds=exit_kinds,
        call_sites=sites,
        saved_restored_mask=saved_restored,
    )


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
# SUM1: plain SummarySet sidecar
# ----------------------------------------------------------------------


def dump_summaries(result: SummarySet, fingerprint: int = 0) -> bytes:
    """Serialize ``result`` (optionally bound to an image fingerprint)."""
    with span("sidecar.dump", routines=len(result.summaries)):
        writer = _Writer()
        writer.parts.append(MAGIC)
        writer.u64(fingerprint)
        names = sorted(result.summaries)
        writer.u32(len(names))
        for name in names:
            writer.text(name)
            _write_summary_body(writer, result.summaries[name])
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
# SUM3: the incremental-analysis cache
# ----------------------------------------------------------------------


@dataclass
class SummaryCache:
    """A warm-start cache: summaries plus the fingerprints that scope
    their validity.

    ``routine_fingerprints[name]`` is the content fingerprint of the
    routine whose summary is cached (code bytes + call-site target
    lists); ``externally_callable`` records which routines received
    the conservative phase-2 exit seeding, so a change in export /
    address-taken status invalidates them even when their code did not
    change.

    ``phase1_triples`` holds phase-1-only entries: routines whose
    call-used/defined/killed triple is known-valid (scoped by the same
    fingerprint map) but whose phase-2 liveness is not cached.  The
    demand engine writes these for the callee cone of a query so the
    next query skips phase 1 there; full runs consume them through
    :class:`repro.interproc.incremental._WarmEngine` like any other
    cached triple.

    ``frontend_records`` are the writing run's
    :attr:`repro.interproc.frontend.Frontend.records`: per routine,
    what the next run needs to rebuild the call graph without that
    routine's CFG.  Each is scoped by its own shape key, independently
    of the summaries (a cache may hold a record for a routine whose
    summary it dropped, and the other way round).
    """

    image_fingerprint: int
    result: SummarySet
    routine_fingerprints: Dict[str, int] = field(default_factory=dict)
    externally_callable: Set[str] = field(default_factory=set)
    phase1_triples: Dict[str, SummaryTriple] = field(default_factory=dict)
    frontend_records: Dict[str, FrontendRecord] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = (
            set(self.result.summaries) | set(self.phase1_triples)
        ) - set(self.routine_fingerprints)
        if missing:
            raise ValueError(
                f"cached routines without fingerprints: {sorted(missing)}"
            )


def _write_record(writer: _Writer, record: FrontendRecord) -> None:
    parts = writer.parts
    parts.append(
        _RECORD_HEADER.pack(
            record.shape_key, record.block_count, len(record.sites)
        )
    )
    for block, instruction_index, indirect, constant in record.sites:
        if constant is None:
            flags = _SITE_INDIRECT if indirect else 0
            parts.append(_RECORD_SITE.pack(block, instruction_index, flags))
        else:
            flags = _SITE_INDIRECT | _SITE_HAS_CONSTANT
            parts.append(_RECORD_SITE.pack(block, instruction_index, flags))
            parts.append(_I64.pack(constant))
    count = len(record.escape_candidates)
    parts.append(struct.pack(f"<I{count}Q", count, *record.escape_candidates))


def _read_record(reader: _Reader) -> FrontendRecord:
    shape_key, block_count, site_count = reader.fields(_RECORD_HEADER)
    sites: List[RecordedSite] = []
    for _ in range(site_count):
        block, instruction_index, flags = reader.fields(_RECORD_SITE)
        if flags & ~(_SITE_INDIRECT | _SITE_HAS_CONSTANT):
            raise SummaryFormatError(f"unknown call-site flags {flags:#x}")
        constant = reader.i64() if flags & _SITE_HAS_CONSTANT else None
        sites.append(
            RecordedSite(
                block, instruction_index, bool(flags & _SITE_INDIRECT), constant
            )
        )
    candidates = reader.fields(struct.Struct(f"<{reader.u32()}Q"))
    try:
        return FrontendRecord(shape_key, block_count, tuple(sites), candidates)
    except ValueError as error:
        raise SummaryFormatError(str(error)) from None


def dump_cache(cache: SummaryCache) -> bytes:
    """Serialize a :class:`SummaryCache` in the SUM3 format."""
    with span("cache.dump", routines=len(cache.result.summaries)):
        writer = _Writer()
        writer.parts.append(MAGIC3)
        writer.u64(cache.image_fingerprint)
        names = sorted(cache.result.summaries)
        writer.u32(len(names))
        for name in names:
            writer.text(name)
            writer.u64(cache.routine_fingerprints[name])
            flags = (
                _FLAG_EXTERNALLY_CALLABLE
                if name in cache.externally_callable
                else 0
            )
            writer.u8(flags)
            _write_summary_body(writer, cache.result.summaries[name])
        triple_names = sorted(cache.phase1_triples)
        writer.u32(len(triple_names))
        for name in triple_names:
            writer.text(name)
            writer.u64(cache.routine_fingerprints[name])
            triple = cache.phase1_triples[name]
            writer.u64(triple.may_use)
            writer.u64(triple.may_def)
            writer.u64(triple.must_def)
        record_names = sorted(cache.frontend_records)
        writer.u32(len(record_names))
        for name in record_names:
            writer.text(name)
            _write_record(writer, cache.frontend_records[name])
        blob = writer.blob()
    REGISTRY.inc("cache.write")
    REGISTRY.inc("cache.write_bytes", len(blob))
    _log.debug("dumped SUM3 cache: %d routines, %d bytes", len(names), len(blob))
    return blob


def load_cache(blob: bytes, expected_fingerprint: int = 0) -> SummaryCache:
    """Parse a SUM3 cache sidecar; rejects stale image fingerprints.

    As with :func:`load_summaries`, ``expected_fingerprint=0`` skips
    the whole-image staleness check — the incremental engine does its
    own per-routine invalidation, so a stale image is *not* an error
    for it, just a cache with some dirty entries.
    """
    with span("cache.load", bytes=len(blob)):
        _check_header(blob, MAGIC3)
        reader = _Reader(blob)
        reader.offset = len(MAGIC3)
        fingerprint = reader.u64()
        _check_fingerprint(fingerprint, expected_fingerprint)
        summaries: Dict[str, RoutineSummary] = {}
        routine_fingerprints: Dict[str, int] = {}
        externally_callable: Set[str] = set()
        for _ in range(reader.u32()):
            name = reader.text()
            routine_fingerprints[name] = reader.u64()
            flags = reader.u8()
            if flags & ~_FLAG_EXTERNALLY_CALLABLE:
                raise SummaryFormatError(f"unknown routine flags {flags:#x}")
            if flags & _FLAG_EXTERNALLY_CALLABLE:
                externally_callable.add(name)
            summaries[name] = _read_summary_body(reader, name)
        phase1_triples: Dict[str, SummaryTriple] = {}
        for _ in range(reader.u32()):
            name = reader.text()
            routine_fingerprints[name] = reader.u64()
            phase1_triples[name] = SummaryTriple(
                may_use=reader.mask(),
                may_def=reader.mask(),
                must_def=reader.mask(),
            )
        frontend_records: Dict[str, FrontendRecord] = {}
        for _ in range(reader.u32()):
            name = reader.text()
            frontend_records[name] = _read_record(reader)
        reader.expect_end()
    REGISTRY.inc("cache.load")
    REGISTRY.inc("cache.load_bytes", len(blob))
    _log.debug("loaded SUM3 cache: %d routines, %d bytes", len(summaries), len(blob))
    return SummaryCache(
        image_fingerprint=fingerprint,
        result=SummarySet(summaries=summaries),
        routine_fingerprints=routine_fingerprints,
        externally_callable=externally_callable,
        phase1_triples=phase1_triples,
        frontend_records=frontend_records,
    )
