"""Cross-image content-addressed summary store (separate compilation
at fleet scale).

The per-image SUM3 sidecar (``persist.py``) is keyed by
``image_fingerprint`` — it can warm *this* image's next solve, but it
cannot express "this library routine is byte-identical across N linked
builds".  This module re-keys summaries by **deep routine
fingerprint**: the routine's own CRC64 content fingerprint
(:func:`repro.interproc.frontend.routine_fingerprint`) combined
Merkle-style, bottom-up over the SCC condensation, with the deep
fingerprints of its callees.  Two images that link the same mathlib
against different apps produce identical deep fingerprints for every
mathlib routine, so the second image's solve is a directory read.

Three record grades live side by side in one store directory:

* ``.sum1r`` — the phase-1 :class:`SummaryTriple` of one routine,
  keyed directly by its deep fingerprint.  A grade-1 hit lets a solve
  skip the phase-1 fixpoint for that routine's SCC.
* ``.sum2r`` — the full :class:`RoutineSummary`, keyed by the phase-2
  *boundary digest* of the routine's SCC: deep fingerprints of the
  members, their externally-callable bits, and their exit seeds (the
  liveness flowing back in from out-of-component callers).  A grade-2
  hit skips the partial-PSG build, both fixpoints, and assembly — the
  bulk of a routine's cold cost.
* ``.sumfr`` — the :class:`~repro.cfg.cfg.FrontendRecord` of one
  routine body, keyed by its :func:`~repro.interproc.frontend.shape_key`
  (code bytes + routine-relative jump tables; no name, no image).  A
  hit lets :func:`~repro.interproc.frontend.build_frontend` find the
  routine's call sites without building its CFG, so a library adopted
  from the store is never re-traversed either.

Both summary keys bind a *context digest* of every configuration knob
that can change analysis results (calling conventions, callee-saved
filtering, the PSG branch-node ablations).  Knobs documented bit-identical across
settings — labeling strategy, per-edge labeling, jobs — are
deliberately excluded so a solve under one can warm a solve under another.
A front-end record is a function of the routine's bytes alone, so its
key binds no context.

Layout: ``<store>/<hh>/<deepfp>.sum1r`` with 256-way fan-out on the
key's top byte.  Records use the ``persist.py`` framing idiom (magic +
version + CRC-checked body) and are written atomically via
tmp+``os.replace``; concurrent readers and writers need no locking
beyond rename atomicity.  A corrupt, truncated, or torn record is a
*miss*, never an error — results must stay byte-identical with the
store on, off, or poisoned — and is unlinked on sight, so the next
publish of that key repairs it.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.cfg.callgraph import CallGraph, Condensation
from repro.cfg.cfg import FrontendRecord
from repro.dataflow.equations import SummaryTriple
from repro.interproc.frontend import Frontend
from repro.interproc.persist import (
    SummaryFormatError,
    _check_header,
    _Reader,
    _read_record,
    _read_summary_body,
    _write_record,
    _write_summary_body,
    _Writer,
    crc64,
)
from repro.interproc.summaries import RoutineSummary, SummarySet, _triple_of
from repro.isa.calling_convention import CallingConvention
from repro.obs.metrics import REGISTRY

#: Environment variable naming a store directory every facade-driven
#: analysis consults (equivalent of ``--store-dir``).
STORE_ENV_VAR = "REPRO_SUMMARY_STORE"

#: Bumped when the record format or the key derivation changes; part of
#: the context digest, so old records simply stop matching.
STORE_VERSION = 1

MAGIC_TRIPLE = b"SST1"
MAGIC_SUMMARY = b"SST2"
MAGIC_FRONTEND = b"SSTF"

SUFFIX_TRIPLE = ".sum1r"
SUFFIX_SUMMARY = ".sum2r"
SUFFIX_FRONTEND = ".sumfr"

#: Counter prefixes: the front-end grade counts under its own names so
#: ``store.hit|miss|write`` keep meaning "summary grades".
_SUMMARY_GRADES = "store"
_FRONTEND_GRADE = "store.frontend"

#: Orphaned temp files older than this (seconds) are swept by ``gc``:
#: a writer that died mid-record never publishes its rename.
_STALE_TMP_SECONDS = 300.0

_tmp_counter = itertools.count()


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
    real dataflow facts).  Excluded: labeling strategy, per-edge
    labeling, and jobs — all documented bit-identical.
    """
    writer = _Writer()
    writer.u8(STORE_VERSION)
    _convention_parts(writer, config.convention)
    _convention_parts(writer, config.psg.convention)
    writer.u8(1 if config.callee_saved_filtering else 0)
    writer.u8(1 if config.psg.branch_nodes else 0)
    writer.u16(config.psg.multiway_threshold)
    return crc64(writer.blob())


def deep_fingerprints(
    fingerprints: Dict[str, int],
    condensation: Condensation,
    call_graph: CallGraph,
    context: int,
) -> Dict[str, int]:
    """Deep (Merkle) fingerprint of every routine, bottom-up over SCCs.

    A routine's phase-1 triple depends on its own code and the triples
    of its transitive callees, so its key must too.  Per component (in
    callee-first order) an SCC digest covers the sorted ``(name, own
    fingerprint)`` pairs of the members plus the sorted ``(name, deep
    fingerprint)`` pairs of the external callees; each member's deep
    fingerprint then binds its own name and fingerprint to the SCC
    digest.  Binding *pairs* — not bare fingerprint multisets — means
    two callees swapping bodies changes every caller's key.

    Callees outside the condensation (unresolved targets) contribute
    nothing, matching the solver's calling-standard assumption for
    them.
    """
    deep: Dict[str, int] = {}
    for members in condensation.components:
        member_set = set(members)
        writer = _Writer()
        writer.u64(context)
        for name in sorted(members):
            writer.text(name)
            writer.u64(fingerprints[name])
        externals: Set[str] = set()
        for name in members:
            externals.update(
                callee
                for callee in call_graph.callees_of(name)
                if callee not in member_set
            )
        for callee in sorted(externals):
            if callee in deep:
                writer.text(callee)
                writer.u64(deep[callee])
        scc_digest = crc64(writer.blob())
        for name in members:
            leaf = _Writer()
            leaf.text(name)
            leaf.u64(fingerprints[name])
            leaf.u64(scc_digest)
            deep[name] = crc64(leaf.blob())
    return deep


def phase2_component_key(
    members: Iterable[str],
    deep: Dict[str, int],
    externally_callable: Set[str],
    seeds: Dict[str, int],
    context: int,
) -> int:
    """The phase-2 boundary digest of one SCC.

    Phase 2 of a component is a function of exactly: the members' code
    (their own fingerprints, folded into ``deep``), their callees'
    triples (the deep closure), which members are externally callable
    (convention seeding), and the liveness seeded at their return exits
    by out-of-component callers.  Fixpoint uniqueness makes the node
    numbering of the partial PSG irrelevant, so this digest is the
    complete input signature of the component's full summaries.
    """
    writer = _Writer()
    writer.u64(context)
    for name in sorted(members):
        writer.text(name)
        writer.u64(deep[name])
        writer.u8(1 if name in externally_callable else 0)
        writer.u64(seeds.get(name, 0))
    return crc64(writer.blob())


def routine_record_key(component_key: int, name: str) -> int:
    """The per-routine grade-2 record key under one component digest."""
    writer = _Writer()
    writer.text(name)
    writer.u64(component_key)
    return crc64(writer.blob())


# ----------------------------------------------------------------------
# Record codecs
# ----------------------------------------------------------------------


def _frame(magic: bytes, body: bytes) -> bytes:
    writer = _Writer()
    writer.u8(STORE_VERSION)
    writer.u64(crc64(body))
    return magic + writer.blob() + body


def _open_frame(blob: bytes, magic: bytes) -> _Reader:
    _check_header(blob, magic)
    reader = _Reader(blob[len(magic):])
    version = reader.u8()
    if version != STORE_VERSION:
        raise SummaryFormatError(f"unsupported store record v{version}")
    checksum = reader.u64()
    body = blob[len(magic) + 9:]
    if crc64(body) != checksum:
        raise SummaryFormatError("store record checksum mismatch")
    return _Reader(body)


class StoreIdentityError(SummaryFormatError):
    """A well-formed record that answers a different question (filed
    under another key or another routine's name): refused, but not
    corrupt — whoever it belongs to can still read it."""


def _check_key(stored_key: int, key: int) -> None:
    if stored_key != key:
        raise StoreIdentityError(
            f"store record key {stored_key:#x} != expected {key:#x}"
        )


def _check_identity(reader: _Reader, key: int, name: str) -> None:
    _check_key(reader.u64(), key)
    stored_name = reader.text()
    if stored_name != name:
        raise StoreIdentityError(
            f"store record names {stored_name!r}, expected {name!r}"
        )


def dump_triple_record(key: int, name: str, triple: SummaryTriple) -> bytes:
    writer = _Writer()
    writer.u64(key)
    writer.text(name)
    writer.u64(triple.may_use)
    writer.u64(triple.may_def)
    writer.u64(triple.must_def)
    return _frame(MAGIC_TRIPLE, writer.blob())


def load_triple_record(blob: bytes, key: int, name: str) -> SummaryTriple:
    reader = _open_frame(blob, MAGIC_TRIPLE)
    _check_identity(reader, key, name)
    triple = SummaryTriple(
        may_use=reader.mask(), may_def=reader.mask(), must_def=reader.mask()
    )
    reader.expect_end()
    return triple


def dump_summary_record(key: int, name: str, summary: RoutineSummary) -> bytes:
    writer = _Writer()
    writer.u64(key)
    writer.text(name)
    _write_summary_body(writer, summary)
    return _frame(MAGIC_SUMMARY, writer.blob())


def load_summary_record(blob: bytes, key: int, name: str) -> RoutineSummary:
    reader = _open_frame(blob, MAGIC_SUMMARY)
    _check_identity(reader, key, name)
    summary = _read_summary_body(reader, name)
    reader.expect_end()
    return summary


def dump_frontend_record(record: FrontendRecord) -> bytes:
    """The sidecar's record codec in a store frame; the key is the
    record's own ``shape_key`` field."""
    writer = _Writer()
    _write_record(writer, record)
    return _frame(MAGIC_FRONTEND, writer.blob())


def load_frontend_record(blob: bytes, key: int) -> FrontendRecord:
    reader = _open_frame(blob, MAGIC_FRONTEND)
    record = _read_record(reader)
    reader.expect_end()
    _check_key(record.shape_key, key)
    return record


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


@dataclass
class SummaryStore:
    """A shared, content-addressed directory of summary records.

    A plain picklable dataclass: :class:`AnalysisConfig` instances are
    shipped to parallel workers via pickle, so the store carries no
    open handles — every operation opens, reads or renames, and
    closes.
    """

    root: str
    #: Soft byte budget enforced by :meth:`gc` (never by writes).
    max_bytes: Optional[int] = None

    def _path(self, key: int, suffix: str) -> str:
        return os.path.join(
            self.root, f"{key >> 56:02x}", f"{key:016x}{suffix}"
        )

    # -- reads ---------------------------------------------------------

    def _load(
        self, path: str, parse, grade: str = _SUMMARY_GRADES
    ) -> Optional[object]:
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            REGISTRY.inc(f"{grade}.miss")
            return None
        try:
            record = parse(blob)
        except SummaryFormatError as error:
            # Corrupt / truncated / foreign record: a miss, never an
            # error — the solver recomputes as if the record were
            # absent.
            REGISTRY.inc(f"{grade}.miss")
            if not isinstance(error, StoreIdentityError):
                # ``_store`` skips paths that exist, so a record that
                # cannot be read must go or the key never hits again.
                REGISTRY.inc(f"{grade}.corrupt")
                try:
                    os.unlink(path)
                except OSError:
                    pass
            return None
        REGISTRY.inc(f"{grade}.hit")
        try:
            # Touch atime so the GC sweep evicts least-recently-used
            # records first even on relatime mounts.
            os.utime(path)
        except OSError:
            pass
        return record

    def load_triple(self, key: int, name: str) -> Optional[SummaryTriple]:
        return self._load(
            self._path(key, SUFFIX_TRIPLE),
            lambda blob: load_triple_record(blob, key, name),
        )

    def load_summary(self, key: int, name: str) -> Optional[RoutineSummary]:
        return self._load(
            self._path(key, SUFFIX_SUMMARY),
            lambda blob: load_summary_record(blob, key, name),
        )

    def load_frontend(self, key: int) -> Optional[FrontendRecord]:
        return self._load(
            self._path(key, SUFFIX_FRONTEND),
            lambda blob: load_frontend_record(blob, key),
            _FRONTEND_GRADE,
        )

    # -- writes --------------------------------------------------------

    def _store(
        self, path: str, blob: bytes, grade: str = _SUMMARY_GRADES
    ) -> None:
        if os.path.exists(path):
            # Content-addressed: an existing record is byte-identical
            # by construction, so the first writer wins for free.
            return
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}.{next(_tmp_counter)}"
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:
            # A store that cannot be written is a cache that cannot
            # help; it must never fail the solve.
            return
        REGISTRY.inc(f"{grade}.write")
        REGISTRY.inc(f"{grade}.bytes", len(blob))

    def store_triple(self, key: int, name: str, triple: SummaryTriple) -> None:
        self._store(
            self._path(key, SUFFIX_TRIPLE), dump_triple_record(key, name, triple)
        )

    def store_summary(
        self, key: int, name: str, summary: RoutineSummary
    ) -> None:
        self._store(
            self._path(key, SUFFIX_SUMMARY),
            dump_summary_record(key, name, summary),
        )

    def store_frontend(self, record: FrontendRecord) -> None:
        self._store(
            self._path(record.shape_key, SUFFIX_FRONTEND),
            dump_frontend_record(record),
            _FRONTEND_GRADE,
        )

    # -- maintenance ---------------------------------------------------

    def _walk(self) -> List[Tuple[str, os.stat_result]]:
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

    def gc(self, now: Optional[float] = None) -> Dict[str, int]:
        """Evict least-recently-used records down to ``max_bytes``.

        Also sweeps temp files orphaned by writers that died mid-record
        (older than :data:`_STALE_TMP_SECONDS`).  Concurrency-safe: a
        record evicted under a concurrent reader was already fully read
        or turns into that reader's miss.
        """
        import time

        now = time.time() if now is None else now
        removed = 0
        removed_bytes = 0
        records: List[Tuple[float, int, str]] = []
        total = 0
        for path, stat in self._walk():
            if ".tmp." in os.path.basename(path):
                if now - stat.st_mtime > _STALE_TMP_SECONDS:
                    try:
                        os.remove(path)
                        removed += 1
                    except OSError:
                        pass
                continue
            records.append((stat.st_atime, stat.st_size, path))
            total += stat.st_size
        if self.max_bytes is not None:
            records.sort()
            for _, size, path in records:
                if total <= self.max_bytes:
                    break
                try:
                    os.remove(path)
                except OSError:
                    continue
                total -= size
                removed += 1
                removed_bytes += size
                REGISTRY.inc("store.evict")
        return {
            "removed": removed,
            "removed_bytes": removed_bytes,
            "remaining_bytes": total,
        }

    def stats(self) -> Dict[str, object]:
        triples = summaries = frontend = other = 0
        total = 0
        for path, stat in self._walk():
            name = os.path.basename(path)
            if ".tmp." in name:
                other += 1
                continue
            total += stat.st_size
            if name.endswith(SUFFIX_TRIPLE):
                triples += 1
            elif name.endswith(SUFFIX_SUMMARY):
                summaries += 1
            elif name.endswith(SUFFIX_FRONTEND):
                frontend += 1
            else:
                other += 1
        return {
            "root": self.root,
            "triples": triples,
            "summaries": summaries,
            "frontend": frontend,
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


# ----------------------------------------------------------------------
# Publishing a finished result
# ----------------------------------------------------------------------


def _exit_seeds(
    members: List[str],
    call_graph: CallGraph,
    result: SummarySet,
) -> Dict[str, int]:
    """Per-member exit seeds recovered from final caller summaries.

    Phase 2 runs callers-first, so the live-after mask at every
    out-of-component call site in the *final* result equals the seed
    the solver fed the component — the same quantity
    ``_WarmEngine._exit_seed`` computes mid-solve.
    """
    member_set = set(members)
    seeds: Dict[str, int] = {}
    for name in members:
        mask = 0
        for caller, site in call_graph.callers_of(name):
            if caller in member_set:
                continue
            caller_summary = result.summaries.get(caller)
            if caller_summary is None:
                continue
            for site_summary in caller_summary.call_sites:
                if (
                    site_summary.site.block == site.block
                    and site_summary.site.instruction_index
                    == site.instruction_index
                ):
                    mask |= site_summary.live_after_mask
                    break
        seeds[name] = mask
    return seeds


def publish_frontend_records(frontend: Frontend, store: SummaryStore) -> None:
    """Publish the records this run derived from a CFG.  A reused one
    needs no stat: it was read from the store, or from a sidecar whose
    writer published it when *it* built the CFG."""
    reused = frontend.reused
    for name, record in frontend.records.items():
        if name not in reused:
            store.store_frontend(record)


def publish_result(frontend: Frontend, config, result: SummarySet) -> None:
    """Publish every routine of a finished whole-program result to the
    configured store (a no-op when ``config`` resolves to none).

    Grade-1 triples go out under deep fingerprints; grade-2 full
    summaries under their component boundary digests; front-end
    records under their shape keys.  Existing records are skipped
    (content-addressed), so republishing a warm result is nearly free.
    """
    store = resolve_store(config)
    if store is None:
        return
    publish_frontend_records(frontend, store)
    condensation = frontend.condensation
    call_graph = frontend.call_graph
    context = config_digest(config)
    deep = deep_fingerprints(
        frontend.fingerprints, condensation, call_graph, context
    )
    externally_callable = call_graph.externally_callable
    for members in condensation.components:
        missing = [name for name in members if name not in result.summaries]
        if missing:
            continue
        seeds = _exit_seeds(members, call_graph, result)
        component_key = phase2_component_key(
            members, deep, externally_callable, seeds, context
        )
        for name in members:
            summary = result.summaries[name]
            store.store_triple(deep[name], name, _triple_of(summary))
            store.store_summary(
                routine_record_key(component_key, name), name, summary
            )
