"""Cross-image content-addressed summary store (separate compilation
at fleet scale).

The per-image SUM5 sidecar (``persist.py``) records, beside every
answer, the inputs it was solved from; it warms *this* image's next
solve, but cannot say "this library routine is byte-identical across N
linked builds".  This module files the same answers under a crc64 of
the same inputs (:func:`inputs_key`): a component's members' names and
own fingerprints (:func:`repro.interproc.frontend.routine_fingerprint`)
and the triples of their outside call targets — callee *results*, not
callee code, so a leaf edit that leaves the leaf's triple alone leaves
its callers' keys alone.  Two images that link the same mathlib against
different apps produce identical keys for every mathlib component, so
the second image's solve is a dictionary lookup.

Three record grades live side by side in one store:

* grade 1 — the phase-1 :class:`SummaryTriple` of one routine, filed
  under its component's phase-1 inputs key.  A grade-1 hit lets a
  solve skip the phase-1 fixpoint for that routine's SCC.
* grade 2 — the full :class:`RoutineSummary`, filed under its
  component's phase-2 inputs key: the phase-1 inputs plus the members'
  externally-callable bits and exit seeds (the liveness flowing back in
  from out-of-component callers).  A grade-2 hit skips the partial-PSG
  build, both fixpoints, and assembly — the bulk of a routine's cold
  cost.
* grade 3, the front-end grade — the
  :class:`~repro.cfg.cfg.FrontendRecord` of one routine body, keyed by
  its :func:`~repro.interproc.frontend.shape_key` (code bytes +
  routine-relative jump tables; no name, no image).  A hit lets
  :func:`~repro.interproc.frontend.build_frontend` find the routine's
  call sites without building its CFG, so a library adopted from the
  store is never re-traversed either.

Both summary keys bind a *context digest* of every configuration knob
that can change analysis results (calling conventions, callee-saved
filtering, the PSG branch-node ablations) and :data:`STORE_VERSION`.
A front-end record is a function of the routine's bytes alone, so its
key binds no context.

Layout: one immutable *pack* (:class:`repro.interproc.persist.PackFormat`,
the frame the SUM5 sidecar shares under its own magic) per publishing
run, ``<store>/packs/<crc64 of body>.pack``::

    magic "SSTP" | u8 STORE_VERSION | u64 crc64(body) | body
    body = u32 n | n x (u8 grade, u64 key, u32 offset, u32 length)
         | record bodies        (offsets from the first record body)

The index is sorted by ``(grade, key)``.  A run reads the store through
one :class:`StoreView`: opening it reads every pack once, checks each
CRC once and indexes every record, so a lookup is a dict hit plus the
decode of one record; the records the run publishes collect in the
view and go out as one pack, written atomically via tmp +
``os.replace``, when the run ends.  Concurrent writers each write their
own pack and readers see a whole pack or none of it, so no locking is
needed.  A pack that fails its frame, CRC or index — or holds a record
that does not decode — is a *miss* for every record in it, never an
error — results must stay byte-identical with the store on, off, or
poisoned — and is unlinked on sight, so the run that misses republishes
what it needs.
"""

from __future__ import annotations

import functools
import os
import struct
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.cfg.cfg import FrontendRecord
from repro.dataflow.equations import SummaryTriple
from repro.interproc.frontend import Frontend
from repro.interproc.persist import (
    _U64,
    PackFormat,
    Slot,
    SummaryFormatError,
    _Reader,
    _read_record,
    _read_summary_body,
    _text_bytes,
    _write_record,
    _write_summary_body,
    _Writer,
    atomic_write,
    crc64,
    pack_checksum,
)
from repro.interproc.summaries import RoutineSummary
from repro.isa.calling_convention import CallingConvention
from repro.obs.metrics import REGISTRY

#: Environment variable naming a store directory every facade-driven
#: analysis consults (equivalent of ``--store-dir``).
STORE_ENV_VAR = "REPRO_SUMMARY_STORE"

#: Bumped when the record format or the key derivation changes; part of
#: the context digest, so old records simply stop matching.
STORE_VERSION = 3

MAGIC_PACK = b"SSTP"
SUFFIX_PACK = ".pack"
#: The packs live in this subdirectory of the store root.
PACKS_DIR = "packs"

#: Record grades: the ``u8`` of a pack index entry.
GRADE_TRIPLE = 1
GRADE_SUMMARY = 2
GRADE_FRONTEND = 3

#: Counter prefix per grade: the front-end grade counts under its own
#: names so ``store.hit|miss|write`` keep meaning "summary grades".
_COUNTERS = {
    GRADE_TRIPLE: "store",
    GRADE_SUMMARY: "store",
    GRADE_FRONTEND: "store.frontend",
}

#: Record files of the per-record layout (``<store>/<hh>/<key>.sum1r``)
#: this store used before packs: nothing reads them any more, ``stats``
#: counts them under ``other`` and ``gc`` deletes them.
_OLD_SUFFIXES = (".sum1r", ".sum2r", ".sumfr")

#: Orphaned temp files older than this (seconds) are swept by ``gc``:
#: a writer that died mid-pack never publishes its rename.
_STALE_TMP_SECONDS = 300.0

#: :func:`inputs_key`'s parts: a member's fingerprint and target
#: count, a target inside or outside, a member's phase-2 inputs.
_KEY_HEAD = struct.Struct("<QI")
_INSIDE = b"\x00"
_KEY_TRIPLE = struct.Struct("<B3Q")
_KEY_PHASE2 = struct.Struct("<?Q")


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------


def _convention_parts(writer: _Writer, convention: CallingConvention) -> None:
    writer.text(convention.name)
    for registers in (
        convention.argument_registers,
        convention.return_registers,
        convention.callee_saved,
        convention.temporaries,
    ):
        indices = sorted(register.index for register in registers)
        writer.u16(len(indices))
        for index in indices:
            writer.u16(index)
    writer.u16(convention.stack_pointer.index)
    writer.u16(convention.return_address.index)
    writer.u16(convention.global_pointer.index)


def config_digest(config) -> int:
    """CRC64 over every :class:`AnalysisConfig` knob that can change
    analysis *results*.

    Bound: both conventions (analysis and PSG-build), callee-saved
    filtering, and the PSG branch-node ablations (Table 4 — they move
    real dataflow facts).  Computed once per value of those (frozen) knobs.
    """
    return _digest(config.convention, config.psg, config.callee_saved_filtering)


@functools.lru_cache(maxsize=None)
def _digest(convention, psg, callee_saved_filtering: bool) -> int:
    writer = _Writer()
    writer.u8(STORE_VERSION)
    _convention_parts(writer, convention)
    _convention_parts(writer, psg.convention)
    writer.u8(1 if callee_saved_filtering else 0)
    writer.u8(1 if psg.branch_nodes else 0)
    writer.u16(psg.multiway_threshold)
    return crc64(writer.blob())


#: A member's phase-1 inputs — its own fingerprint, and per call target
#: its triple (``None`` inside the component) — then maybe its phase-2
#: ones ``(externally callable, exit seed)``: its row's leading fields.
Inputs = tuple


def component_inputs(
    frontend: Frontend,
    members: Sequence[str],
    triples: Mapping[str, SummaryTriple],
) -> Dict[str, Inputs]:
    """The phase-1 inputs of each member of the component ``members``,
    its outside call targets' triples read off ``triples``."""
    fingerprints, outside = frontend.fingerprints, frontend.outside_callees
    # ``get`` maps the ``None`` of a target inside the component to None.
    return {
        name: (fingerprints[name], tuple(map(triples.get, outside[name])))
        for name in members
    }


def add_exit_seeds(
    seeds: Dict[str, int],
    frontend: Frontend,
    callers: Iterable[Tuple[str, Sequence[int]]],
) -> None:
    """Fold into ``seeds`` what each of ``callers`` — a name and, per
    call target, the live-after mask of its site — feeds the exit seeds
    of its callees outside its component.  A member's seed is its
    phase-2 input once every outside caller is folded in."""
    outside, seed = frontend.outside_callees, seeds.get
    for caller, live_after in callers:
        for target, mask in zip(outside[caller], live_after):
            if target is not None:
                seeds[target] = seed(target, 0) | mask


def inputs_key(
    context: int, members: Iterable[str], inputs: Mapping[str, Inputs]
) -> int:
    """The store key of one component's inputs: a crc64 over
    ``context`` (:func:`config_digest`) and, per member in name order,
    its name and its :data:`Inputs` — phase-1 ones for a triple, with
    the phase-2 ones for a summary.

    The sidecar compares the same inputs as values; hashing them lets
    any image's run find the answer.  Binding ``(name, inputs)`` pairs
    means two callees swapping bodies changes every caller's key, and
    fixpoint uniqueness makes the member order irrelevant.
    """
    parts = [_U64.pack(context)]
    for name in sorted(members):
        fingerprint, callees, *phase2 = inputs[name]
        parts += (_text_bytes(name), _KEY_HEAD.pack(fingerprint, len(callees)))
        for callee in callees:
            parts.append(
                _INSIDE if callee is None else _KEY_TRIPLE.pack(
                    1, callee.may_use, callee.may_def, callee.must_def
                )
            )
        for external, seed in phase2:
            parts.append(_KEY_PHASE2.pack(external, seed))
    return crc64(b"".join(parts))


def routine_record_key(component_key: int, name: str) -> int:
    """The per-routine grade-2 record key under one component digest."""
    writer = _Writer()
    writer.text(name)
    writer.u64(component_key)
    return crc64(writer.blob())


# ----------------------------------------------------------------------
# Record codecs: a record body is what a pack's index entry points at.
# The key lives in the index; a summary-grade body starts with the
# routine's name, a front-end body is the sidecar's record encoding
# (whose first field is the shape key).
# ----------------------------------------------------------------------


class StoreIdentityError(SummaryFormatError):
    """A well-formed record that answers a different question (filed
    under another key or another routine's name): refused, but not
    corrupt — whoever it belongs to can still read it."""


def _check_name(reader: _Reader, name: str) -> None:
    stored_name = reader.text()
    if stored_name != name:
        raise StoreIdentityError(
            f"store record names {stored_name!r}, expected {name!r}"
        )


def dump_triple_record(name: str, triple: SummaryTriple) -> bytes:
    writer = _Writer()
    writer.text(name)
    writer.u64(triple.may_use)
    writer.u64(triple.may_def)
    writer.u64(triple.must_def)
    return writer.blob()


def load_triple_record(reader: _Reader, name: str) -> SummaryTriple:
    _check_name(reader, name)
    return SummaryTriple(
        may_use=reader.mask(), may_def=reader.mask(), must_def=reader.mask()
    )


def dump_summary_record(name: str, summary: RoutineSummary) -> bytes:
    writer = _Writer()
    writer.text(name)
    _write_summary_body(writer.parts, summary)
    return writer.blob()


def load_summary_record(reader: _Reader, name: str) -> RoutineSummary:
    _check_name(reader, name)
    return _read_summary_body(reader, name)


def dump_frontend_record(record: FrontendRecord) -> bytes:
    writer = _Writer()
    _write_record(writer, record)
    return writer.blob()


def load_frontend_record(reader: _Reader, key: int) -> FrontendRecord:
    record = _read_record(reader)
    if record.shape_key != key:
        raise StoreIdentityError(
            f"store record key {record.shape_key:#x} != expected {key:#x}"
        )
    return record


# ----------------------------------------------------------------------
# Packs
# ----------------------------------------------------------------------


#: The store's packs (the incremental sidecar is the other kind).
STORE_PACK = PackFormat(
    magic=MAGIC_PACK,
    version=STORE_VERSION,
    grades=frozenset(_COUNTERS),
    what="store pack",
)
encode_pack = STORE_PACK.encode
decode_pack = STORE_PACK.decode


def _read_file(path: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def _remove(path: str) -> bool:
    try:
        os.remove(path)
    except OSError:
        return False
    return True


def _write_pack(directory: str, blob: bytes) -> Optional[str]:
    """Publish ``blob`` under its content name; its path, or ``None``
    when the store cannot be written (a cache that cannot help must
    never fail the solve)."""
    checksum = pack_checksum(blob)
    path = os.path.join(directory, f"{checksum:016x}{SUFFIX_PACK}")
    try:
        os.makedirs(directory, exist_ok=True)
        atomic_write(path, blob)
    except OSError:
        return None
    return path


class _Pack:
    """One pack a view read: its bytes, behind one :class:`_Reader`
    whose name-intern table every record decoded from it shares."""

    __slots__ = ("path", "reader", "touched")

    def __init__(self, path: str, blob: bytes) -> None:
        self.path = path
        self.reader = _Reader(blob)
        self.touched = False


class StoreView:
    """One run's window on a :class:`SummaryStore`.

    Opening it reads every pack once and indexes every record, so each
    ``load_*`` is a dict lookup plus the decode of one record; each
    ``store_*`` adds a record the index does not hold yet (checked
    before it is encoded) to the run's pending set, and :meth:`flush`
    writes that set as one pack.  Nothing is cached beyond one run: the
    next view sees whatever the disk holds then.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._index: Dict[Slot, Tuple[_Pack, int, int]] = {}
        self._pending: Dict[Slot, bytes] = {}
        try:
            with os.scandir(directory) as entries:
                paths = sorted(
                    entry.path for entry in entries
                    if entry.name.endswith(SUFFIX_PACK)
                )
        except OSError:
            return
        index = self._index
        for path in paths:
            blob = _read_file(path)
            if blob is None:
                continue  # gone since the scan (gc): a miss
            try:
                entries = decode_pack(blob)
            except SummaryFormatError:
                self._discard(path)
                continue
            pack = _Pack(path, blob)
            for grade, key, start, end in entries:
                # A record in two packs is byte-identical by
                # construction: the first in name order serves it.
                index.setdefault((grade, key), (pack, start, end))

    def _discard(self, path: str) -> None:
        """A corrupt pack misses for all of its records and goes, so
        the runs that miss republish them."""
        REGISTRY.inc("store.corrupt")
        _remove(path)
        index = self._index
        for slot in [s for s, found in index.items() if found[0].path == path]:
            del index[slot]

    # -- reads ---------------------------------------------------------

    def _load(self, grade: int, key: int, parse, argument):
        prefix = _COUNTERS[grade]
        found = self._index.get((grade, key))
        if found is not None:
            pack, start, end = found
            reader = pack.reader
            reader.offset = start
            try:
                record = parse(reader, argument)
                if reader.offset != end:
                    raise SummaryFormatError("store record length mismatch")
            except StoreIdentityError:
                pass  # left in place for whoever it belongs to
            except SummaryFormatError:
                self._discard(pack.path)
            else:
                REGISTRY.inc(f"{prefix}.hit")
                if not pack.touched:
                    # The GC sweep evicts least-recently-used packs
                    # first, by this stamp (see ``SummaryStore.gc``).
                    pack.touched = True
                    try:
                        os.utime(pack.path)
                    except OSError:
                        pass
                return record
        REGISTRY.inc(f"{prefix}.miss")
        return None

    def load_triple(self, key: int, name: str) -> Optional[SummaryTriple]:
        return self._load(GRADE_TRIPLE, key, load_triple_record, name)

    def load_summary(self, key: int, name: str) -> Optional[RoutineSummary]:
        return self._load(GRADE_SUMMARY, key, load_summary_record, name)

    def load_frontend(self, key: int) -> Optional[FrontendRecord]:
        return self._load(GRADE_FRONTEND, key, load_frontend_record, key)

    def holds_frontend(self, key: int) -> bool:
        """Whether a front-end record of the body ``key`` was published:
        whether any run has walked (and so solved) that body.  A probe,
        not a lookup: nothing is read or counted."""
        return (GRADE_FRONTEND, key) in self._index

    # -- writes --------------------------------------------------------

    def _holds(self, slot: Slot) -> bool:
        # Content-addressed: a record already held is byte-identical by
        # construction, so it is skipped before it is encoded.
        return slot in self._index or slot in self._pending

    def store_triple(self, key: int, name: str, triple: SummaryTriple) -> None:
        slot = (GRADE_TRIPLE, key)
        if not self._holds(slot):
            self._pending[slot] = dump_triple_record(name, triple)

    def store_summary(
        self, key: int, name: str, summary: RoutineSummary
    ) -> None:
        slot = (GRADE_SUMMARY, key)
        if not self._holds(slot):
            self._pending[slot] = dump_summary_record(name, summary)

    def store_frontend(self, record: FrontendRecord) -> None:
        slot = (GRADE_FRONTEND, record.shape_key)
        if not self._holds(slot):
            self._pending[slot] = dump_frontend_record(record)

    def flush(self) -> None:
        """Write the records this view added as one pack (nothing when
        it added none)."""
        pending, self._pending = self._pending, {}
        if not pending or _write_pack(
            self.directory, encode_pack(pending)
        ) is None:
            return
        written: Dict[str, List[int]] = {}
        for (grade, _key), body in pending.items():
            counts = written.setdefault(_COUNTERS[grade], [0, 0])
            counts[0] += 1
            counts[1] += len(body)
        for prefix, (records, size) in written.items():
            REGISTRY.inc(f"{prefix}.write", records)
            REGISTRY.inc(f"{prefix}.bytes", size)


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


@dataclass
class SummaryStore:
    """A shared, content-addressed directory of summary records.

    A plain dataclass that carries no bytes and no open handles: a run
    reads and writes it through the :class:`StoreView` that
    :meth:`open` returns.
    """

    root: str
    #: Soft byte budget enforced by :meth:`gc` (never by writes).
    max_bytes: Optional[int] = None

    @property
    def packs_dir(self) -> str:
        return os.path.join(self.root, PACKS_DIR)

    def open(self) -> StoreView:
        """A view of the packs on disk now, for one run."""
        return StoreView(self.packs_dir)

    # -- maintenance ---------------------------------------------------

    def _walk(self) -> List[Tuple[str, os.stat_result]]:
        """Every file one directory below the root: the packs, and the
        per-record files of an older store."""
        entries: List[Tuple[str, os.stat_result]] = []
        try:
            shards = os.listdir(self.root)
        except OSError:
            return entries
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            try:
                names = os.listdir(shard_dir)
            except OSError:
                continue
            for name in names:
                path = os.path.join(shard_dir, name)
                try:
                    entries.append((path, os.stat(path)))
                except OSError:
                    continue
        return entries

    def _is_pack(self, path: str) -> bool:
        return (
            path.endswith(SUFFIX_PACK)
            and os.path.dirname(path) == self.packs_dir
        )

    def gc(self, now: Optional[float] = None) -> Dict[str, int]:
        """Evict least-recently-used packs down to ``max_bytes``, then
        merge the survivors into one pack.

        Also sweeps temp files orphaned by writers that died mid-pack
        (older than :data:`_STALE_TMP_SECONDS`) and the record files of
        the older per-record layout.  The merge drops duplicate records
        and corrupt packs, so the pack count stays bounded.
        Concurrency-safe: a pack removed under a concurrent reader was
        already fully read or turns into that reader's miss, and a pack
        written during the sweep is left alone.
        """
        now = time.time() if now is None else now
        removed = 0
        removed_bytes = 0
        packs: List[Tuple[float, int, str]] = []
        old_dirs: Set[str] = set()
        for path, stat in self._walk():
            name = os.path.basename(path)
            if ".tmp." in name:
                if now - stat.st_mtime > _STALE_TMP_SECONDS and _remove(path):
                    removed += 1
            elif self._is_pack(path):
                # Last use is the modification time: packs never change
                # after their rename, and a view touches each pack that
                # served a hit.  (Every view reads every pack, so the
                # access time says "opened", not "used".)
                packs.append((stat.st_mtime, stat.st_size, path))
            elif name.endswith(_OLD_SUFFIXES) and _remove(path):
                removed += 1
                removed_bytes += stat.st_size
                old_dirs.add(os.path.dirname(path))
        for directory in old_dirs:
            try:
                os.rmdir(directory)  # only once it is empty
            except OSError:
                pass
        packs.sort()
        total = sum(size for _, size, _ in packs)
        survivors = []
        for _, size, path in packs:
            if (
                self.max_bytes is not None
                and total > self.max_bytes
                and _remove(path)
            ):
                total -= size
                removed += 1
                removed_bytes += size
                REGISTRY.inc("store.evict")
            else:
                survivors.append((size, path))
        if len(survivors) > 1:
            total = self._merge(survivors)
        return {
            "removed": removed,
            "removed_bytes": removed_bytes,
            "remaining_bytes": total,
        }

    def _merge(self, packs: List[Tuple[int, str]]) -> int:
        """Rewrite ``(size, path)`` packs as one; the bytes left."""
        records: Dict[Slot, bytes] = {}
        kept: List[Tuple[int, str]] = []
        for size, path in packs:
            blob = _read_file(path)
            if blob is None:
                continue  # gone since the walk
            try:
                entries = decode_pack(blob)
            except SummaryFormatError:
                _remove(path)
                continue
            kept.append((size, path))
            for grade, key, start, end in entries:
                records.setdefault((grade, key), blob[start:end])
        blob = encode_pack(records)
        merged = _write_pack(self.packs_dir, blob)
        if merged is None:
            return sum(size for size, _ in kept)
        for _, path in kept:
            if path != merged:
                _remove(path)
        return len(blob)

    def stats(self) -> Dict[str, object]:
        """Distinct record counts per grade over every intact pack,
        the pack count, and everything else (temp files, corrupt packs,
        an older layout's record files) as ``other``."""
        keys: Dict[int, Set[int]] = {grade: set() for grade in _COUNTERS}
        packs = other = total = 0
        for path, stat in self._walk():
            if ".tmp." in os.path.basename(path):
                other += 1
                continue
            total += stat.st_size
            blob = _read_file(path) if self._is_pack(path) else None
            try:
                entries = decode_pack(blob) if blob is not None else None
            except SummaryFormatError:
                entries = None
            if entries is None:
                other += 1
                continue
            packs += 1
            for grade, key, _start, _end in entries:
                keys[grade].add(key)
        return {
            "root": self.root,
            "packs": packs,
            "triples": len(keys[GRADE_TRIPLE]),
            "summaries": len(keys[GRADE_SUMMARY]),
            "frontend": len(keys[GRADE_FRONTEND]),
            "other": other,
            "bytes": total,
            "max_bytes": self.max_bytes,
        }


def resolve_store(config) -> Optional[SummaryStore]:
    """The effective store for one analysis: explicit config first,
    then the :data:`STORE_ENV_VAR` environment default.

    ``config.store == "off"`` is the explicit opt-out that beats the
    environment (the byte-identity harnesses rely on it).
    """
    store = getattr(config, "store", None)
    if store == "off":
        return None
    if store is not None:
        return store
    root = os.environ.get(STORE_ENV_VAR)
    if root:
        return SummaryStore(root)
    return None


def open_view(config) -> Optional[StoreView]:
    """A view of ``config``'s effective store for one run, if any."""
    store = resolve_store(config)
    return None if store is None else store.open()


# ----------------------------------------------------------------------
# Keys and the per-component publish step
# ----------------------------------------------------------------------


def publish_frontend_records(frontend: Frontend, view: StoreView) -> None:
    """Add the records this run derived from a CFG.  A reused one is
    not offered: it was read from the store, or from a sidecar whose
    writer published it when *it* built the CFG."""
    reused = frontend.reused
    for name, record in frontend.records.items():
        if name not in reused:
            view.store_frontend(record)


def publish_component(
    view: StoreView,
    context: int,
    members: Sequence[str],
    inputs: Mapping[str, Inputs],
    triples: Optional[Mapping[str, SummaryTriple]] = None,
    summaries: Optional[Mapping[str, RoutineSummary]] = None,
) -> None:
    """Add the answers of the component ``members`` to ``view`` under
    the key of their ``inputs``: their ``triples`` (``inputs`` phase-1
    ones), or their ``summaries`` (``inputs`` with the phase-2 ones).
    Records the store holds are skipped before they are encoded."""
    key = inputs_key(context, members, inputs)
    for name in members:
        if summaries is None:
            view.store_triple(routine_record_key(key, name), name, triples[name])
        else:
            view.store_summary(
                routine_record_key(key, name), name, summaries[name]
            )
