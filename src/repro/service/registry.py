"""The daemon's session registry: warm analysis state per image.

One :class:`~repro.api.AnalysisSession` is retained per
``(tenant, image-fingerprint)`` pair, together with its most recent
schema-1 payload and its SUM5 warm-start cache.  A repeated request for
an unchanged image is answered from the retained payload without
touching the front end or the solver — that is the daemon's whole
reason to exist (cold gcc-shape analysis is front-end dominated; the
``paper-tables`` check in ``tests/paper_tables.py`` times it).

Entries are LRU-ordered and evicted when the registry's byte budget is
exceeded.  An entry's cost is the image size plus the serialized size
of whatever summaries it retains — a deliberate underestimate of true
resident footprint, but one that tracks it monotonically and is cheap
to compute.

Tenants are namespaces: the same image posted under two tenants gets
two independent entries (and two sidecar files), so one tenant's
traffic can neither warm nor evict-probe another's.  When a cache
directory is configured, each entry's SUM5 cache is persisted to
``<cache_dir>/<tenant>/<fingerprint>.sum2`` and reloaded on the next
daemon start, so edit requests warm-start across restarts.
"""

from __future__ import annotations

import logging
import os
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import AnalysisConfig, AnalysisSession
from repro.interproc.persist import (
    SummaryCache,
    SummaryFormatError,
    atomic_write,
    dump_cache,
    image_fingerprint,
    load_cache,
)
from repro.obs import REGISTRY

_log = logging.getLogger(__name__)

#: Tenant names are path components of sidecar files; restrict them to
#: a conservative token so a crafted header cannot traverse directories.
TENANT_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

DEFAULT_TENANT = "public"

#: Default registry budget: enough for a handful of Table-2 images.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


class TenantError(ValueError):
    """A tenant header that fails :data:`TENANT_PATTERN` validation."""


def validate_tenant(tenant: Optional[str]) -> str:
    """The effective tenant namespace for a request header value."""
    if tenant is None or tenant == "":
        return DEFAULT_TENANT
    if not TENANT_PATTERN.match(tenant):
        raise TenantError(f"invalid tenant name: {tenant!r}")
    return tenant


@dataclass
class SessionEntry:
    """One retained analysis: session, last payload, warm caches."""

    tenant: str
    fingerprint: int
    session: AnalysisSession
    #: The budget's size proxy (the session keeps the decoded program).
    image_nbytes: int
    #: Serializes solves on this entry: one request analyzes a given
    #: image at a time; requests for *different* images run unhindered.
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: The schema-1 payload of the last full analyze (no edit), served
    #: verbatim to warm repeats.
    payload: Optional[Dict[str, object]] = None
    #: SUM5 warm-start state for edit requests.
    cache: Optional[SummaryCache] = None
    cache_nbytes: int = 0
    hits: int = 0

    @property
    def nbytes(self) -> int:
        return self.image_nbytes + self.cache_nbytes

    @property
    def key(self) -> Tuple[str, int]:
        return (self.tenant, self.fingerprint)


class SessionRegistry:
    """LRU map of (tenant, fingerprint) → :class:`SessionEntry`."""

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        cache_dir: Optional[str] = None,
        config: Optional[AnalysisConfig] = None,
    ) -> None:
        self.max_bytes = max_bytes
        self.cache_dir = cache_dir
        self.config = config
        self._entries: "OrderedDict[Tuple[str, int], SessionEntry]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    # -- lookup --------------------------------------------------------

    def acquire(self, tenant: str, image_bytes: bytes) -> SessionEntry:
        """Get or create the entry for an image, refreshing LRU order.

        The hit path must stay cheap — it is the daemon's warm-repeat
        fast path — so only the content fingerprint is computed before
        the lookup; the image is decoded (and validated) on a miss.
        Malformed images raise out of
        :meth:`AnalysisSession.from_image_bytes` and nothing is
        registered.
        """
        fingerprint = image_fingerprint(image_bytes)
        key = (tenant, fingerprint)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                entry.hits += 1
                REGISTRY.inc("service.session.hit")
                return entry
        # Decode outside the lock: a slow miss must not block hits on
        # other images.  A racing duplicate miss is harmless — last
        # writer wins and the loser's session is garbage collected.
        session = AnalysisSession.from_image_bytes(image_bytes, self.config)
        session.image_fingerprint = fingerprint  # the bytes are hashed once
        entry = SessionEntry(
            tenant=tenant,
            fingerprint=fingerprint,
            session=session,
            image_nbytes=len(image_bytes),
        )
        entry.cache = self._load_sidecar(entry)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                existing.hits += 1
                REGISTRY.inc("service.session.hit")
                return existing
            self._entries[key] = entry
            REGISTRY.inc("service.session.miss")
            self._evict_to_budget_locked()
        return entry

    def discard(self, entry: SessionEntry) -> None:
        """Forget ``entry`` (an image whose code turned out to be
        unanalyzable), unless another entry has taken its key."""
        with self._lock:
            if self._entries.get(entry.key) is entry:
                del self._entries[entry.key]

    def note_cache(self, entry: SessionEntry, cache: SummaryCache) -> None:
        """Record an entry's refreshed SUM5 cache (and persist it)."""
        blob = dump_cache(cache)
        with self._lock:
            entry.cache = cache
            entry.cache_nbytes = len(blob)
            self._evict_to_budget_locked()
        self._write_sidecar(entry, blob)

    def drop_cache(self, entry: SessionEntry) -> None:
        """Forget an entry's warm-start cache (one an edit could not
        use); the next edit request seeds a fresh one."""
        with self._lock:
            entry.cache = None
            entry.cache_nbytes = 0

    # -- eviction ------------------------------------------------------

    def _evict_to_budget_locked(self) -> None:
        total = sum(e.nbytes for e in self._entries.values())
        REGISTRY.observe_max("service.registry.max_bytes", total)
        while total > self.max_bytes and len(self._entries) > 1:
            key, evicted = self._entries.popitem(last=False)
            total -= evicted.nbytes
            REGISTRY.inc("service.session.evicted")
            _log.info(
                "evicted session %s/%016x (%d bytes, %d hits)",
                evicted.tenant, evicted.fingerprint,
                evicted.nbytes, evicted.hits,
            )

    # -- stats ---------------------------------------------------------

    def occupancy(self) -> Tuple[int, int]:
        """``(session_count, retained_bytes)`` — the cheap pair
        ``/healthz`` reports on every probe (no per-entry dicts)."""
        with self._lock:
            return (
                len(self._entries),
                sum(e.nbytes for e in self._entries.values()),
            )

    def stats(self) -> Dict[str, object]:
        with self._lock:
            entries: List[Dict[str, object]] = [
                {
                    "tenant": entry.tenant,
                    "fingerprint": format(entry.fingerprint, "016x"),
                    "bytes": entry.nbytes,
                    "hits": entry.hits,
                    "warm": entry.payload is not None,
                }
                for entry in self._entries.values()
            ]
            return {
                "sessions": len(entries),
                "bytes": sum(e.nbytes for e in self._entries.values()),
                "max_bytes": self.max_bytes,
                "entries": entries,
            }

    # -- sidecar persistence -------------------------------------------

    def _sidecar_path(self, entry: SessionEntry) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(
            self.cache_dir, entry.tenant, f"{entry.fingerprint:016x}.sum2"
        )

    def _load_sidecar(self, entry: SessionEntry) -> Optional[SummaryCache]:
        path = self._sidecar_path(entry)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
            cache = load_cache(blob)
        except (OSError, SummaryFormatError) as error:
            _log.warning("ignoring unreadable sidecar %s: %s", path, error)
            return None
        entry.cache_nbytes = len(blob)
        REGISTRY.inc("service.sidecar.load")
        return cache

    def _write_sidecar(self, entry: SessionEntry, blob: bytes) -> None:
        path = self._sidecar_path(entry)
        if path is None:
            return
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            atomic_write(path, blob)
        except OSError as error:
            _log.warning("could not persist sidecar %s: %s", path, error)
            return
        REGISTRY.inc("service.sidecar.write")
