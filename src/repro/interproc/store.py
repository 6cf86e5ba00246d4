"""Cross-image summary store (separate compilation at fleet scale).

The SUM5 sidecar (``persist.py``) warms *this* image's next solve; the
store is a directory of the same packs, one per publishing run, that
any image's run reads — ``<store>/packs/<crc64 of body>.pack``, exactly
what :func:`~repro.interproc.persist.dump_cache` writes, so a sidecar
copied into ``packs/`` serves other images too.

One reuse rule serves both: a component's answer is adopted from a
routine table exactly when, for every member, the table's row under the
member's name records its current inputs — its own fingerprint and per
call target the target's triple (or "inside the component"); for a
summary also its externally-callable bit and exit seed — compared
literally.  The inputs name callee *results*, not callee code, so
images that link the same mathlib against different apps record equal
inputs for every mathlib component.  All of a component's rows come
from one table: a table is what one run solved together, while rows of
two runs could each match their own member and still come from
components whose other members differed.  A table binds the
:func:`config_digest` of its run; the front-end records a pack files by
:func:`~repro.interproc.frontend.shape_key` bind nothing but the
routine body's bytes.

A run reads the store through one :class:`StoreView`: opening it reads
and checks every pack once and indexes its rows and records; the rows
the run solved go out as one pack, written atomically, when it ends.
Concurrent writers each write their own pack, so no locking is needed.
A pack that fails any check — or holds a summary body that fails its
check when a component adopts it — is a *miss* for everything in it,
never an error (results stay byte-identical with the store on, off, or
poisoned), and is unlinked on sight, so the run that misses publishes
it again.  Adoption checks a body without decoding it: an adopted
summary stays the pack's bytes, copied into the next SUM1 file or
sidecar, and is decoded only if a consumer reads it.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.cfg.cfg import FrontendRecord
from repro.dataflow.equations import SummaryTriple
from repro.interproc.frontend import Frontend
from repro.interproc.persist import (
    GRADE_RECORDS,
    SummaryCache,
    SummaryFormatError,
    atomic_write,
    crc64,
    encode_pack,
    pack_checksum,
    pack_slots,
    read_pack,
)
from repro.obs.metrics import REGISTRY

#: Environment variable naming a store directory every facade-driven
#: analysis consults (equivalent of ``--store-dir``).
STORE_ENV_VAR = "REPRO_SUMMARY_STORE"

#: Bumped when what a row records changes; part of the context digest,
#: so old rows simply stop matching.  The calling convention
#: (``NT_ALPHA``) and the multiway threshold are constants, not hashed:
#: any change to either needs a bump.
STORE_VERSION = 3

SUFFIX_PACK = ".pack"
#: The packs live in this subdirectory of the store root.
PACKS_DIR = "packs"

#: Orphaned temp files older than this (seconds) are swept by ``gc``:
#: a writer that died mid-pack never publishes its rename.
_STALE_TMP_SECONDS = 300.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def config_digest(config) -> int:
    """CRC64 over every :class:`AnalysisConfig` knob that can change
    analysis *results*: the two paper ablations, callee-saved filtering
    (§3.4) and branch nodes (§3.6, Table 4 — they move real dataflow
    facts).  Computed once per value of those (frozen) knobs.
    """
    return _digest(config.callee_saved_filtering, config.psg.branch_nodes)


@functools.lru_cache(maxsize=None)
def _digest(callee_saved_filtering: bool, branch_nodes: bool) -> int:
    return crc64(bytes((STORE_VERSION, callee_saved_filtering, branch_nodes)))


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


# ----------------------------------------------------------------------
# Packs on disk
# ----------------------------------------------------------------------


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


def _read_tables(path: str) -> Optional[List[SummaryCache]]:
    """The tables of the pack at ``path``; ``None`` when it is gone, and
    when it does not read, which also unlinks it (``store.corrupt``)."""
    blob = _read_file(path)
    if blob is None:
        return None  # gone since the scan (gc): a miss
    try:
        return read_pack(blob)
    except SummaryFormatError:
        REGISTRY.inc("store.corrupt")
        _remove(path)
        return None


#: A table a view read, with the path of the pack it came from.
Found = Tuple[str, SummaryCache]


class StoreView:
    """One run's window on a :class:`SummaryStore`.

    Opening it reads every pack once and indexes every row by routine
    name and fingerprint and every front-end record by shape key, so a
    lookup is a dict hit and a literal compare of recorded inputs;
    :meth:`publish` writes a run's solved rows as one pack.  Nothing is
    cached beyond one run: the next view sees whatever the disk holds
    then.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._rows: Dict[Tuple[str, int], List[Found]] = {}
        self._records: Dict[int, Tuple[str, FrontendRecord]] = {}
        #: Packs this run touched, and packs it found corrupt.
        self._touched: Set[str] = set()
        self._dead: Set[str] = set()
        #: Summary bodies :meth:`use` checked (the run records the total).
        self.checked = 0
        try:
            with os.scandir(directory) as entries:
                paths = sorted(
                    entry.path for entry in entries
                    if entry.name.endswith(SUFFIX_PACK)
                )
        except OSError:
            return
        rows, records = self._rows, self._records
        for path in paths:
            tables = _read_tables(path)
            if tables is None:
                continue
            for table in tables:
                found = (path, table)
                for name, row in table.rows.items():
                    rows.setdefault((name, row.fingerprint), []).append(found)
            for key, record in tables[0].frontend_records.items():
                # A record in two packs is identical by construction:
                # the first in name order serves it.
                records.setdefault(key, (path, record))

    # -- reads ---------------------------------------------------------

    def holds(self, members: Iterable[str], fingerprints: Mapping[str, int]) -> bool:
        """Whether some table has a row of each of ``members`` under its
        current fingerprint: only then can :meth:`find` serve the
        component, and only then is it worth gathering its inputs."""
        rows = self._rows
        return all((name, fingerprints[name]) in rows for name in members)

    def find(
        self, context: int, members: Sequence[str], inputs: Mapping[str, Inputs]
    ) -> Optional[Found]:
        """The first table solved under ``context`` whose row of every
        member records that member's ``inputs`` — the phase-1 ones, or
        with the phase-2 ones — and its pack."""
        first = members[0]
        width = len(inputs[first])
        for found in self._rows.get((first, inputs[first][0]), ()):
            path, table = found
            if path in self._dead or table.config_digest != context:
                continue
            rows = table.rows
            if all(
                name in rows and rows[name][:width] == inputs[name]
                for name in members
            ):
                return found
        return None

    def use(self, found: Found, summarized: Iterable[str] = ()) -> bool:
        """Take an answer from ``found``: check the summary bodies of
        ``summarized`` (counted in :attr:`checked`) and touch the pack.  A
        checked body stays bytes: it is spliced into the next SUM1 file
        or sidecar, and decoded only if a consumer reads it.  ``False``
        when a body would not decode; the pack then misses for
        everything in it and is unlinked (``store.corrupt``)."""
        path, table = found
        summaries = table.result.summaries
        try:
            for name in summarized:
                self.checked += 1
                summaries.check(name)
        except SummaryFormatError:
            REGISTRY.inc("store.corrupt")
            self._dead.add(path)
            _remove(path)
            return False
        self._touch(path)
        return True

    def frontend_record(self, key: int) -> Optional[FrontendRecord]:
        """The front-end record of the routine body ``key``, if any pack
        files one (the caller counts ``store.frontend.hit`` / ``.miss``)."""
        found = self._records.get(key)
        if found is None or found[0] in self._dead:
            return None
        self._touch(found[0])
        return found[1]

    def _touch(self, path: str) -> None:
        if path not in self._touched:
            # The GC sweep evicts least-recently-used packs first, by
            # this stamp (see ``SummaryStore.gc``).
            self._touched.add(path)
            try:
                os.utime(path)
            except OSError:
                pass

    # -- writes --------------------------------------------------------

    def publish(self, solved: SummaryCache) -> None:
        """Write ``solved`` — the rows a run solved, their summaries and
        the front-end records it derived — as one pack, less the records
        the view holds; nothing when nothing is left."""
        records = {
            key: record for key, record in solved.frontend_records.items()
            if key not in self._records
        }
        if not solved.rows and not records:
            return
        slots, _spliced = pack_slots([solved], records, {})
        if _write_pack(self.directory, encode_pack(slots)) is None:
            return
        REGISTRY.inc("store.frontend.write", len(records))
        REGISTRY.inc("store.frontend.bytes", len(slots.pop((GRADE_RECORDS, 0))))
        rows = solved.rows.values()
        if rows:
            # A triple and, where summarized, a summary per row.
            REGISTRY.inc(
                "store.write",
                len(rows) + sum(row.phase2 is not None for row in rows),
            )
            REGISTRY.inc("store.bytes", sum(map(len, slots.values())))


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


@dataclass
class SummaryStore:
    """A shared directory of summary packs.

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
        """Every file in the packs directory."""
        entries: List[Tuple[str, os.stat_result]] = []
        try:
            names = os.listdir(self.packs_dir)
        except OSError:
            return entries
        for name in names:
            path = os.path.join(self.packs_dir, name)
            try:
                entries.append((path, os.stat(path)))
            except OSError:
                continue
        return entries

    def gc(self, now: Optional[float] = None) -> Dict[str, int]:
        """Evict least-recently-used packs down to ``max_bytes``, then
        merge the survivors into one pack (a table per table they hold).

        Also sweeps temp files orphaned by writers that died mid-pack
        (older than :data:`_STALE_TMP_SECONDS`).  The merge drops
        duplicate tables and records, fragments and corrupt packs, so
        the pack count stays bounded.  Concurrency-safe: a pack removed
        under a concurrent reader was already fully read or turns into
        that reader's miss, and a pack written during the sweep is left
        alone.
        """
        now = time.time() if now is None else now
        removed = 0
        removed_bytes = 0
        packs: List[Tuple[float, int, str]] = []
        for path, stat in self._walk():
            if ".tmp." in os.path.basename(path):
                if now - stat.st_mtime > _STALE_TMP_SECONDS and _remove(path):
                    removed += 1
            elif path.endswith(SUFFIX_PACK):
                # Last use is the modification time: packs never change
                # after their rename, and a view touches each pack that
                # served a hit.  (Every view reads every pack, so the
                # access time says "opened", not "used".)
                packs.append((stat.st_mtime, stat.st_size, path))
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
        if survivors:
            total = self._merge(survivors)
        return {
            "removed": removed,
            "removed_bytes": removed_bytes,
            "remaining_bytes": total,
        }

    def _merge(self, packs: List[Tuple[int, str]]) -> int:
        """Rewrite ``(size, path)`` packs as one; the bytes left."""
        tables: Dict[Tuple[int, int, bytes], SummaryCache] = {}
        records: Dict[int, FrontendRecord] = {}
        kept: List[Tuple[int, str]] = []
        for size, path in packs:
            read = _read_tables(path)
            if read is None:
                continue
            kept.append((size, path))
            for table in read:
                tables.setdefault(
                    (table.image_fingerprint, table.config_digest, table.table[1]),
                    table,
                )
            for key, record in read[0].frontend_records.items():
                records.setdefault(key, record)
        if not kept:
            return 0
        blob = encode_pack(pack_slots(list(tables.values()), records, {})[0])
        merged = _write_pack(self.packs_dir, blob)
        if merged is None:
            return sum(size for size, _ in kept)
        for _, path in kept:
            if path != merged:
                _remove(path)
        return len(blob)

    def stats(self) -> Dict[str, object]:
        """Distinct row, summary and front-end record counts over every
        intact pack, the pack count, and every other file (temp files,
        corrupt packs, anything else) as ``other``."""
        triples: Set[tuple] = set()
        summaries: Set[tuple] = set()
        frontend: Set[int] = set()
        packs = other = total = 0
        for path, stat in self._walk():
            if ".tmp." in os.path.basename(path):
                other += 1
                continue
            total += stat.st_size
            blob = _read_file(path) if path.endswith(SUFFIX_PACK) else None
            try:
                tables = read_pack(blob) if blob is not None else None
            except SummaryFormatError:
                tables = None
            if tables is None:
                other += 1
                continue
            packs += 1
            for table in tables:
                for name, row in table.rows.items():
                    phase1 = (table.config_digest, name, row.fingerprint, row.callees)
                    triples.add(phase1)
                    if row.phase2 is not None:
                        summaries.add((*phase1, row.phase2))
            frontend.update(tables[0].frontend_records)
        return {
            "root": self.root,
            "packs": packs,
            "triples": len(triples),
            "summaries": len(summaries),
            "frontend": len(frontend),
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
