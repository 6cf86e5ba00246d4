"""The analysis daemon: ``repro.api`` behind a long-running HTTP API.

Spike's cold analysis of a gcc-shape image is front-end dominated
(decode, CFG build, PSG construction); an optimizer driver that
re-execs per request pays that cost every time.  The daemon keeps
:class:`~repro.api.AnalysisSession` state warm between requests —
retained payloads for unchanged images, SUM3 caches for edits, memoized
query front-ends — behind one versioned result API (the same schema-1
payloads the CLI ``--json`` flag prints; see
:mod:`repro.interproc.results`).

Endpoints::

    GET  /healthz      liveness ("ok", or "draining" + 503 during
                       shutdown) plus uptime, in-flight request count,
                       and retained-session count/bytes
    GET  /metricsz     cumulative obs-registry counters + registry
                       occupancy; ``?include=histograms`` adds the
                       latency distributions; ``?format=prometheus``
                       (or ``Accept: text/plain``) switches to
                       Prometheus text exposition
    POST /v1/analyze   whole-program analysis of a posted image
    POST /v1/query     one-routine demand query (solves only the
                       dependency cones)

Every POST is measured into ``service.request.seconds{endpoint=,warm=}``
(plus queue-wait and solve-stage sub-histograms), logged as one
structured ``repro.service.access`` line stamped with the request's run
id, and — with ``X-Repro-Trace: 1`` — traced: the response payload
gains a ``trace`` key holding the request's Perfetto span JSON.  With
``--trace-dir`` the daemon additionally samples 1-in-N requests' traces
to disk.

``POST`` bodies are either raw image bytes
(``Content-Type: application/octet-stream``, options in the query
string) or JSON (``{"image_b64": ..., ...options}``).  Options:
``jobs`` (worker count), ``include_summaries`` (embed rendered
summaries), ``edit`` (``{"routine": name}`` — analyze the image with
one instruction of ``routine`` perturbed, warm-starting from the base
image's SUM3 cache; the routine defaults to the first editable one),
and for ``/v1/query`` the mandatory ``routine``.

Multi-tenancy: the ``X-Repro-Tenant`` header namespaces all retained
state (see :mod:`repro.service.registry`).  Responses carry
``X-Repro-Run-Id`` (the request's trace/log correlation id),
``X-Repro-Warm`` (``hit`` when served from retained state) and
``X-Repro-Schema``.

Concurrency: a threading HTTP server; requests against the same image
serialize on the entry lock, requests against different images solve
concurrently.  ``SIGTERM``/``SIGINT`` drain gracefully — in-flight
requests complete, new ones get 503.
"""

from __future__ import annotations

import base64
import binascii
import json
import logging
import os
import signal
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.api import (
    AnalysisConfig,
    AnalysisError,
    AnalysisSession,
    SCHEMA_VERSION,
    UnknownRoutineError,
)
from repro.obs import REGISTRY, clear_run_id, new_run_id, span
from repro.obs.prometheus import render_prometheus
from repro.obs.tracer import pop_local_tracer, push_local_tracer
from repro.program.image import ImageFormatError
from repro.service.registry import (
    DEFAULT_MAX_BYTES,
    SessionEntry,
    SessionRegistry,
    TenantError,
    validate_tenant,
)
from repro.workloads.mutate import first_editable_routine, perturb_routine

_log = logging.getLogger(__name__)

#: One structured line per request (see ``docs/service.md``): run id,
#: verb/path, tenant, status, warm verdict, wall milliseconds, response
#: bytes, and the in-flight depth at completion.  Separate from the
#: module logger so operators can route/flush access lines on their own.
_access_log = logging.getLogger("repro.service.access")

#: Reject request bodies beyond this size before reading them fully.
DEFAULT_MAX_REQUEST_BYTES = 64 * 1024 * 1024


class RequestError(Exception):
    """A client error with an HTTP status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class ServiceConfig:
    """Daemon configuration (the ``spike-analyze serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 8484
    #: When set, serve HTTP over this unix domain socket instead of TCP.
    socket_path: Optional[str] = None
    #: Directory for per-tenant SUM3 sidecars (disabled when ``None``).
    cache_dir: Optional[str] = None
    #: Registry byte budget for retained sessions (LRU beyond it).
    max_bytes: int = DEFAULT_MAX_BYTES
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES
    #: Default worker count for solves (per-request ``jobs`` overrides).
    jobs: Optional[int] = None
    #: When set, 1-in-``trace_sample`` requests export their Perfetto
    #: span JSON to ``<trace_dir>/<run_id>.json``.
    trace_dir: Optional[str] = None
    trace_sample: int = 10
    #: Process-wide cross-image summary store
    #: (:mod:`repro.interproc.store`): every tenant's solves read
    #: through and publish into it, so successive builds sharing
    #: routines warm each other — while SUM3 sidecars keep carrying the
    #: image-specific phase-2 state for edit requests.
    store_dir: Optional[str] = None


class _UnixHTTPServer(ThreadingHTTPServer):
    """HTTP over an ``AF_UNIX`` stream socket (CI smoke, local IPC)."""

    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        path = self.server_address
        if isinstance(path, str) and os.path.exists(path):
            os.unlink(path)
        self.socket.bind(path)
        # HTTPServer.server_bind derives these from an AF_INET
        # getsockname; give the handler sane values for a path address.
        self.server_name = "localhost"
        self.server_port = 0

    def get_request(self) -> Tuple[socket.socket, Any]:
        request, _ = self.socket.accept()
        # BaseHTTPRequestHandler formats client_address[0] into log
        # lines; AF_UNIX peers have no address, so fake a pair.
        return request, ("unix", 0)


class AnalysisDaemon:
    """The registry, the HTTP server, and the drain protocol."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        analysis_config = None
        if self.config.jobs is not None or self.config.store_dir is not None:
            store = None
            if self.config.store_dir is not None:
                from repro.interproc.store import SummaryStore

                store = SummaryStore(self.config.store_dir)
            analysis_config = AnalysisConfig(
                jobs=self.config.jobs if self.config.jobs is not None else 1,
                store=store,
            )
        self.registry = SessionRegistry(
            max_bytes=self.config.max_bytes,
            cache_dir=self.config.cache_dir,
            config=analysis_config,
        )
        self._draining = threading.Event()
        self.started = time.time()
        # In-flight request depth (POST endpoints only) and a monotonic
        # request sequence for 1-in-N trace sampling; both are touched
        # from concurrent handler threads.
        self._inflight = 0
        self._request_seq = 0
        self._inflight_lock = threading.Lock()
        if self.config.trace_dir:
            os.makedirs(self.config.trace_dir, exist_ok=True)
        self.server = self._build_server()

    # -- lifecycle -----------------------------------------------------

    def _build_server(self):
        daemon = self

        class Handler(_Handler):
            pass

        Handler.daemon = daemon
        if self.config.socket_path:
            server = _UnixHTTPServer(self.config.socket_path, Handler)
        else:
            server = ThreadingHTTPServer(
                (self.config.host, self.config.port), Handler
            )
        # Drain semantics: server_close() must wait for in-flight
        # handler threads rather than abandon them mid-solve.
        server.daemon_threads = False
        server.block_on_close = True
        return server

    @property
    def address(self) -> str:
        """Where the daemon is reachable (host:port or socket path)."""
        if self.config.socket_path:
            return self.config.socket_path
        host, port = self.server.server_address[:2]
        return f"{host}:{port}"

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def _request_started(self) -> int:
        """Count a request in; returns its 1-based sequence number."""
        with self._inflight_lock:
            self._inflight += 1
            self._request_seq += 1
            return self._request_seq

    def _request_finished(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    def _trace_sampled(self, sequence: int) -> bool:
        """Does 1-in-N disk sampling want this request's trace?"""
        return (
            self.config.trace_dir is not None
            and self.config.trace_sample > 0
            and sequence % self.config.trace_sample == 0
        )

    def serve_forever(self, install_signal_handlers: bool = False) -> None:
        """Serve until :meth:`drain` (or a signal) stops the loop.

        Signal handlers can only be installed from the main thread;
        tests run the daemon on a worker thread and call :meth:`drain`
        directly.
        """
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum, self._handle_signal)
        _log.info("analysis daemon serving on %s", self.address)
        try:
            self.server.serve_forever(poll_interval=0.1)
        finally:
            self.server.server_close()
            if self.config.socket_path:
                try:
                    os.unlink(self.config.socket_path)
                except OSError:
                    pass
            # in_flight must read 0 here: server_close joined every
            # handler thread.  The CI load-smoke job asserts on this
            # line after SIGTERM.
            _log.info(
                "analysis daemon stopped (in_flight=%d)", self.inflight
            )

    def _handle_signal(self, signum, frame) -> None:
        _log.info("signal %d: draining", signum)
        self.drain()

    def drain(self) -> None:
        """Stop accepting work; let in-flight requests finish.

        Idempotent.  ``serve_forever`` returns once the accept loop
        stops; ``server_close`` then joins the handler threads.
        """
        if self._draining.is_set():
            return
        self._draining.set()
        # shutdown() blocks until serve_forever exits — never call it
        # from a handler thread directly.
        threading.Thread(target=self.server.shutdown, daemon=True).start()

    def health_payload(self) -> Dict[str, object]:
        """The ``/healthz`` body: liveness plus the cheap occupancy
        numbers the load driver and CI smoke assert on."""
        sessions, session_bytes = self.registry.occupancy()
        return {
            "status": "draining" if self.draining else "ok",
            "uptime_seconds": round(time.time() - self.started, 3),
            "inflight": self.inflight,
            "sessions": sessions,
            "session_bytes": session_bytes,
        }

    # -- request handling ----------------------------------------------

    def handle_analyze(
        self, tenant: str, body: Dict[str, Any]
    ) -> Tuple[Dict[str, object], bool]:
        """``POST /v1/analyze`` → (payload, served-warm)."""
        image_bytes = _image_bytes(body)
        jobs = _jobs_option(body)
        entry = self.registry.acquire(tenant, image_bytes)
        edit = body.get("edit")
        with _entry_locked(entry, "analyze"):
            if edit is not None:
                return self._analyze_edit(entry, edit, jobs)
            if entry.payload is not None:
                REGISTRY.inc("service.result.warm")
                return entry.payload, True
            with _staged("analyze", "service.analyze", tenant=tenant):
                if self.config.store_dir is not None:
                    # With a process-wide store, cold solves go through
                    # the incremental engine so they *consult* the
                    # store (a plain analyze only publishes); the
                    # refreshed cache also seeds future edit requests.
                    cold = entry.session.analyze_incremental(jobs=jobs)
                    self.registry.note_cache(entry, cold.cache)
                else:
                    entry.session.analyze(jobs=jobs)
                # Retained with summaries embedded; the handler strips
                # them unless the request asked for them.
                entry.payload = entry.session.to_json(include_summaries=True)
            REGISTRY.inc("service.result.cold")
            return entry.payload, False

    def _analyze_edit(
        self, entry: SessionEntry, edit: Any, jobs: Optional[int]
    ) -> Tuple[Dict[str, object], bool]:
        """Analyze the entry's image with one routine perturbed,
        warm-starting from the base image's SUM3 cache."""
        if not isinstance(edit, dict):
            raise RequestError(400, "edit must be an object")
        warm = entry.cache is not None
        if not warm:
            # One-time: build the base cache a future edit warms from.
            with _staged("edit.seed", "service.edit.seed"):
                cold = entry.session.analyze_incremental(jobs=jobs)
                self.registry.note_cache(entry, cold.cache)
        program = entry.session.program
        routine = edit.get("routine")
        try:
            if routine is None:
                routine = first_editable_routine(program)
            mutated = perturb_routine(program, routine)
        except (KeyError, ValueError) as error:
            raise RequestError(400, f"cannot apply edit: {error}") from error
        with _staged("edit.analyze", "service.edit.analyze", routine=routine):
            session = AnalysisSession.from_program(
                mutated, self.registry.config
            )
            session.analyze_incremental(cache=entry.cache, jobs=jobs)
            payload = session.to_json(include_summaries=True)
        REGISTRY.inc("service.result.warm" if warm else "service.result.cold")
        return payload, warm

    def handle_query(
        self, tenant: str, body: Dict[str, Any]
    ) -> Tuple[Dict[str, object], bool]:
        """``POST /v1/query`` → (payload, served-warm)."""
        image_bytes = _image_bytes(body)
        routine = body.get("routine")
        if not isinstance(routine, str) or not routine:
            raise RequestError(400, "missing routine name")
        entry = self.registry.acquire(tenant, image_bytes)
        with _entry_locked(entry, "query"):
            # The session memoizes its query cache and front-end, so a
            # second query on a retained session skips the cold setup.
            warm = entry.session.has_query_state
            with _staged(
                "query", "service.query", tenant=tenant, routine=routine
            ):
                entry.session.query(routine)
                payload = entry.session.to_json(include_summaries=True)
        REGISTRY.inc("service.result.warm" if warm else "service.result.cold")
        return payload, warm

    def metrics_payload(
        self, include_histograms: bool = False
    ) -> Dict[str, object]:
        payload = {
            "counters": REGISTRY.as_dict(),
            "registry": self.registry.stats(),
            "draining": self.draining,
        }
        # Opt-in (``?include=histograms``) so the default JSON body
        # stays byte-identical for pre-histogram consumers.
        if include_histograms:
            payload["histograms"] = REGISTRY.histograms_dict()
        return payload


# ----------------------------------------------------------------------
# Instrumentation helpers
# ----------------------------------------------------------------------


@contextmanager
def _entry_locked(entry: SessionEntry, endpoint: str):
    """Hold the entry lock, recording how long this request queued
    behind other solves of the same image
    (``service.queue_wait.seconds{endpoint=}``)."""
    wait_start = time.perf_counter()
    entry.lock.acquire()
    REGISTRY.observe_hist(
        "service.queue_wait.seconds",
        time.perf_counter() - wait_start,
        endpoint=endpoint,
    )
    try:
        yield
    finally:
        entry.lock.release()


@contextmanager
def _staged(stage: str, span_name: str, **span_args: Any):
    """A traced solve stage that also feeds
    ``service.stage.seconds{stage=}`` — the sub-histograms that let a
    slow p99 be attributed to seeding vs solving vs querying."""
    start = time.perf_counter()
    with span(span_name, **span_args):
        yield
    REGISTRY.observe_hist(
        "service.stage.seconds", time.perf_counter() - start, stage=stage
    )


# ----------------------------------------------------------------------
# Option parsing
# ----------------------------------------------------------------------


def _image_bytes(body: Dict[str, Any]) -> bytes:
    raw = body.get("image_bytes")
    if isinstance(raw, bytes):
        return raw
    encoded = body.get("image_b64")
    if not isinstance(encoded, str):
        raise RequestError(400, "missing image: supply image_b64")
    try:
        return base64.b64decode(encoded, validate=True)
    except (binascii.Error, ValueError) as error:
        raise RequestError(400, f"invalid image_b64: {error}") from error


def _jobs_option(body: Dict[str, Any]) -> Optional[int]:
    jobs = body.get("jobs")
    if jobs is None:
        return None
    try:
        return int(jobs)
    except (TypeError, ValueError) as error:
        raise RequestError(400, f"invalid jobs value: {jobs!r}") from error


def _bool_option(body: Dict[str, Any], key: str) -> bool:
    value = body.get(key, False)
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        return value.lower() in ("1", "true", "yes")
    return bool(value)


# ----------------------------------------------------------------------
# The HTTP layer
# ----------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    daemon: AnalysisDaemon
    protocol_version = "HTTP/1.1"
    #: Advertised in the Server header; independent of the repo version.
    server_version = "spike-analysis-daemon/1"

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args) -> None:
        _log.debug("%s %s", self.address_string(), format % args)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> int:
        blob = json.dumps(payload, indent=2, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(blob)
        return len(blob)

    def _send_text(self, status: int, text: str, content_type: str) -> int:
        blob = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)
        return len(blob)

    def _read_body(self) -> Dict[str, Any]:
        """The request body as an options dict.

        Raw image posts become ``{"image_bytes": ...}`` with options
        merged from the query string; JSON posts are returned as-is.
        """
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise RequestError(411, "invalid Content-Length")
        if length <= 0:
            raise RequestError(411, "a request body is required")
        if length > self.daemon.config.max_request_bytes:
            raise RequestError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.daemon.config.max_request_bytes} byte limit",
            )
        data = self.rfile.read(length)
        content_type = (self.headers.get("Content-Type") or "").split(";")[0]
        if content_type == "application/octet-stream":
            body: Dict[str, Any] = {"image_bytes": data}
            # keep_blank_values: "?edit=" means "edit the default
            # routine", and dropping it would silently serve a plain
            # warm repeat instead.
            query = dict(
                parse_qsl(urlsplit(self.path).query, keep_blank_values=True)
            )
            if "routine" in query:
                body["routine"] = query["routine"]
            if "jobs" in query:
                body["jobs"] = query["jobs"]
            if "include_summaries" in query:
                body["include_summaries"] = query["include_summaries"]
            if "edit" in query:
                body["edit"] = {"routine": query["edit"]} \
                    if query["edit"] not in ("", "1", "true") else {}
            return body
        try:
            body = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise RequestError(400, f"invalid JSON body: {error}") from error
        if not isinstance(body, dict):
            raise RequestError(400, "JSON body must be an object")
        return body

    def _tenant(self) -> str:
        return validate_tenant(self.headers.get("X-Repro-Tenant"))

    # -- dispatch ------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        parts = urlsplit(self.path)
        path = parts.path
        if path == "/healthz":
            payload = self.daemon.health_payload()
            self._send_json(503 if self.daemon.draining else 200, payload)
        elif path == "/metricsz":
            query = dict(parse_qsl(parts.query))
            accept = self.headers.get("Accept") or ""
            if (
                query.get("format") == "prometheus"
                or "text/plain" in accept
            ):
                self._send_text(
                    200,
                    render_prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            else:
                self._send_json(
                    200,
                    self.daemon.metrics_payload(
                        include_histograms=(
                            query.get("include") == "histograms"
                        )
                    ),
                )
        else:
            self._send_json(404, {"error": f"unknown path {path}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        path = urlsplit(self.path).path
        if path not in ("/v1/analyze", "/v1/query"):
            self._send_json(404, {"error": f"unknown path {path}"})
            return
        if self.daemon.draining:
            self._send_json(503, {"error": "daemon is draining"})
            return
        endpoint = path.rsplit("/", 1)[1]
        REGISTRY.inc("service.requests", endpoint=endpoint)
        sequence = self.daemon._request_started()
        run_id = new_run_id()
        start = time.perf_counter()
        want_trace = (self.headers.get("X-Repro-Trace") or "").lower() in (
            "1", "true", "yes",
        )
        sampled = self.daemon._trace_sampled(sequence)
        # A request-local tracer (thread-local override) captures this
        # request's spans — including merged worker spans — without
        # interleaving concurrent requests.
        tracer = push_local_tracer() if (want_trace or sampled) else None
        status = 500
        warm_label = "error"
        tenant = "-"
        headers: Dict[str, str] = {}
        out: Dict[str, object] = {"error": "internal error"}
        try:
            try:
                body = self._read_body()
                tenant = self._tenant()
                with span("service.request", endpoint=endpoint):
                    if endpoint == "analyze":
                        payload, warm = self.daemon.handle_analyze(
                            tenant, body
                        )
                    else:
                        payload, warm = self.daemon.handle_query(
                            tenant, body
                        )
                warm_label = "true" if warm else "false"
                if not _bool_option(body, "include_summaries"):
                    payload = {
                        key: value
                        for key, value in payload.items()
                        if key != "summaries"
                    }
                headers = {
                    "X-Repro-Run-Id": run_id,
                    "X-Repro-Warm": "hit" if warm else "miss",
                    "X-Repro-Schema": str(SCHEMA_VERSION),
                }
                if tracer is not None and want_trace:
                    # Copy before attaching: the retained payload is
                    # shared with every future warm repeat of this
                    # image.
                    trace_doc = tracer.to_chrome_trace()
                    payload = dict(payload)
                    payload["trace"] = trace_doc
                    headers["X-Repro-Trace-Spans"] = str(
                        len(trace_doc["traceEvents"])
                    )
                status, out = 200, payload
            except RequestError as error:
                status, out = error.status, {"error": str(error)}
                REGISTRY.inc("service.errors", status=error.status)
            except (TenantError, ImageFormatError) as error:
                status, out = 400, {"error": str(error)}
                REGISTRY.inc("service.errors", status=400)
            except UnknownRoutineError as error:
                status, out = 404, {"error": str(error)}
                REGISTRY.inc("service.errors", status=404)
            except AnalysisError as error:
                status, out = 500, {"error": str(error)}
                REGISTRY.inc("service.errors", status=500)
            except Exception as error:  # pragma: no cover - last resort
                _log.exception("unhandled error serving %s", self.path)
                status, out = 500, {"error": f"internal error: {error}"}
                REGISTRY.inc("service.errors", status=500)
            # Record *before* the response bytes leave: a client may
            # scrape /metricsz the instant it reads its response, and
            # "histogram count == requests answered" must hold exactly
            # at that point (the CI load-smoke asserts it).
            duration = time.perf_counter() - start
            REGISTRY.observe_hist(
                "service.request.seconds",
                duration,
                endpoint=endpoint,
                warm=warm_label,
            )
            sent = self._send_json(status, out, headers=headers)
            _access_log.info(
                "run=%s method=POST path=%s tenant=%s status=%d warm=%s "
                "dur_ms=%.3f bytes=%d inflight=%d",
                run_id, path, tenant, status, warm_label,
                duration * 1e3, sent, self.daemon.inflight,
            )
        finally:
            if tracer is not None:
                pop_local_tracer()
                if sampled and self.daemon.config.trace_dir:
                    try:
                        tracer.export(
                            os.path.join(
                                self.daemon.config.trace_dir,
                                f"{run_id}.json",
                            )
                        )
                    except OSError as error:
                        _log.warning(
                            "could not write trace sample: %s", error
                        )
            self.daemon._request_finished()
            clear_run_id()


def serve(config: Optional[ServiceConfig] = None) -> None:
    """Build a daemon and serve until SIGTERM/SIGINT (blocking)."""
    AnalysisDaemon(config).serve_forever(install_signal_handlers=True)
