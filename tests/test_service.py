"""Tests for the analysis daemon (:mod:`repro.service`).

The daemon's contract: every response body is the same schema-1 payload
an in-process :class:`~repro.api.AnalysisSession` produces (identical
dataflow facts, byte for byte), retained sessions make repeats warm,
tenants are isolated, the registry evicts LRU under its byte budget,
bad input maps to 4xx without leaving registry residue, and SIGTERM
drains gracefully.
"""

import base64
import dataclasses
import json
import threading
import time

import pytest

from repro.api import AnalysisSession, validate_payload
from repro.program.asm import assemble
from repro.service import (
    AnalysisDaemon,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SessionRegistry,
    TenantError,
    validate_tenant,
)

SOURCE_A = """
.routine main export
    li  a0, 3
    bsr ra, inc
    bis zero, v0, a0
    output
    halt
.routine inc
    addq a0, a1, v0
    addq v0, a0, v0
    ret (ra)
"""

SOURCE_B = """
.routine main export
    li  a0, 7
    bsr ra, dbl
    bsr ra, dbl
    bis zero, v0, a0
    output
    halt
.routine dbl
    addq a0, a0, v0
    bis zero, v0, a0
    ret (ra)
"""


@pytest.fixture(scope="module")
def image_a():
    return assemble(SOURCE_A).to_bytes()


@pytest.fixture(scope="module")
def image_b():
    return assemble(SOURCE_B).to_bytes()


@pytest.fixture()
def daemon():
    """A live daemon on an ephemeral TCP port, drained on teardown."""
    instance = AnalysisDaemon(ServiceConfig(port=0))
    thread = threading.Thread(target=instance.serve_forever)
    thread.start()
    try:
        yield instance
    finally:
        instance.drain()
        thread.join(timeout=30)
        assert not thread.is_alive()


def _client(daemon, tenant=None):
    host, port = daemon.server.server_address[:2]
    return ServiceClient.tcp(host, port, tenant=tenant)


def _local_payload(image_bytes, **to_json_kwargs):
    session = AnalysisSession.from_image_bytes(image_bytes)
    session.analyze(jobs=1)
    return session.to_json(**to_json_kwargs)


# ----------------------------------------------------------------------
# The core contract: served payloads == in-process payloads
# ----------------------------------------------------------------------


class TestAnalyzeEndpoint:
    def test_response_is_a_valid_schema1_payload(self, daemon, image_a):
        response = _client(daemon).analyze(image_a)
        assert response.status == 200
        validate_payload(response.payload)
        assert response.headers["X-Repro-Schema"] == "1"
        assert response.run_id

    def test_summaries_byte_identical_to_in_process(self, daemon, image_a):
        served = _client(daemon).analyze(image_a, include_summaries=True)
        local = _local_payload(image_a, include_summaries=True)
        assert served.payload["summaries_crc64"] == local["summaries_crc64"]
        assert json.dumps(served.payload["summaries"], sort_keys=True) == (
            json.dumps(local["summaries"], sort_keys=True)
        )

    def test_repeat_of_unchanged_image_is_warm_and_identical(
        self, daemon, image_a
    ):
        client = _client(daemon)
        first = client.analyze(image_a)
        second = client.analyze(image_a)
        assert not first.warm
        assert second.warm
        # The retained payload is served verbatim — byte identical.
        assert first.payload == second.payload

    def test_summaries_stripped_unless_requested(self, daemon, image_a):
        client = _client(daemon)
        bare = client.analyze(image_a)
        full = client.analyze(image_a, include_summaries=True)
        assert "summaries" not in bare.payload
        assert set(full.payload["summaries"]) == {"main", "inc"}

    def test_edit_request_warm_starts_from_base_cache(self, daemon, image_a):
        client = _client(daemon)
        client.analyze(image_a)
        first_edit = client.analyze(image_a, edit={"routine": "inc"})
        assert first_edit.payload["kind"] == "incremental"
        assert not first_edit.warm  # had to seed the base cache
        second_edit = client.analyze(image_a, edit={"routine": "inc"})
        assert second_edit.warm
        assert second_edit.payload["mode"] == "warm"
        # Only the perturbed routine's cone re-solves.
        total = second_edit.payload["routines"]
        assert second_edit.payload["phase2_solved"] < total or total <= 2

    def test_edit_default_routine(self, daemon, image_a):
        response = _client(daemon).analyze(image_a, edit={})
        assert response.payload["kind"] == "incremental"

    def test_raw_body_edit_flag(self, daemon, image_a):
        """A raw octet-stream POST with a blank ``?edit=`` means "edit
        the default routine" — it must not degrade to a warm repeat
        (parse_qsl drops blank values unless told otherwise)."""
        import http.client

        _client(daemon).analyze(image_a)  # retain a warm payload
        host, port = daemon.server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            connection.request(
                "POST", "/v1/analyze?edit=", body=image_a,
                headers={"Content-Type": "application/octet-stream"},
            )
            raw = connection.getresponse()
            payload = json.loads(raw.read().decode("utf-8"))
        finally:
            connection.close()
        assert raw.status == 200
        assert payload["kind"] == "incremental"

    def test_concurrent_clients_on_distinct_images(
        self, daemon, image_a, image_b
    ):
        """Distinct images are served concurrently; each response
        matches its own in-process analysis byte for byte."""
        results = {}
        errors = []

        def hit(name, blob):
            try:
                client = _client(daemon)
                for _ in range(3):
                    results[name] = client.analyze(
                        blob, include_summaries=True
                    ).payload
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [
            threading.Thread(target=hit, args=("a", image_a)),
            threading.Thread(target=hit, args=("b", image_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        for name, blob in (("a", image_a), ("b", image_b)):
            local = _local_payload(blob, include_summaries=True)
            assert results[name]["summaries_crc64"] == (
                local["summaries_crc64"]
            ), name
            assert json.dumps(results[name]["summaries"], sort_keys=True) == (
                json.dumps(local["summaries"], sort_keys=True)
            ), name


class TestQueryEndpoint:
    def test_query_matches_full_analysis(self, daemon, image_a):
        response = _client(daemon).query(
            image_a, "inc", include_summaries=True
        )
        validate_payload(response.payload)
        assert response.payload["kind"] == "query"
        assert response.payload["routine"] == "inc"
        local = _local_payload(image_a, include_summaries=True)
        assert (
            response.payload["summary"] == local["summaries"]["inc"]
        )

    def test_second_query_is_warm(self, daemon, image_a):
        client = _client(daemon)
        assert not client.query(image_a, "inc").warm
        assert client.query(image_a, "main").warm

    def test_unknown_routine_is_404(self, daemon, image_a):
        with pytest.raises(ServiceError) as excinfo:
            _client(daemon).query(image_a, "missing")
        assert excinfo.value.status == 404


# ----------------------------------------------------------------------
# Tenancy and the registry
# ----------------------------------------------------------------------


class TestTenantIsolation:
    def test_tenants_get_independent_entries(self, daemon, image_a):
        team_a = _client(daemon, tenant="team-a")
        team_b = _client(daemon, tenant="team-b")
        assert not team_a.analyze(image_a).warm
        assert team_a.analyze(image_a).warm
        # Same image, different tenant: no cross-tenant warmth.
        assert not team_b.analyze(image_a).warm
        registry = _client(daemon).metricsz()["registry"]
        tenants = {entry["tenant"] for entry in registry["entries"]}
        assert tenants == {"team-a", "team-b"}

    def test_invalid_tenant_header_is_400(self, daemon, image_a):
        client = _client(daemon, tenant="../escape")
        with pytest.raises(ServiceError) as excinfo:
            client.analyze(image_a)
        assert excinfo.value.status == 400

    def test_validate_tenant(self):
        assert validate_tenant(None) == "public"
        assert validate_tenant("") == "public"
        assert validate_tenant("team-a.prod") == "team-a.prod"
        for bad in ("../x", ".hidden", "a/b", "a b", "x" * 80):
            with pytest.raises(TenantError):
                validate_tenant(bad)


class TestEviction:
    def test_lru_eviction_under_tiny_budget(self, image_a, image_b):
        """With a budget that fits one image, the second analyze evicts
        the first, and re-posting the first is cold again."""
        budget = max(len(image_a), len(image_b)) + 16
        daemon = AnalysisDaemon(ServiceConfig(port=0, max_bytes=budget))
        thread = threading.Thread(target=daemon.serve_forever)
        thread.start()
        try:
            client = _client(daemon)
            assert not client.analyze(image_a).warm
            assert not client.analyze(image_b).warm  # evicts a
            stats = client.metricsz()
            assert stats["registry"]["sessions"] == 1
            assert stats["counters"]["service.session.evicted"] >= 1
            assert not client.analyze(image_a).warm  # cold again
        finally:
            daemon.drain()
            thread.join(timeout=30)

    def test_most_recently_used_survives(self, image_a, image_b):
        registry = SessionRegistry(max_bytes=len(image_a) + len(image_b))
        registry.acquire("public", image_a)
        registry.acquire("public", image_b)
        registry.acquire("public", image_a)  # refresh a's recency
        # Push over budget with a copy under another tenant.
        registry.max_bytes = len(image_a) + 16
        registry.acquire("other", image_a)
        stats = registry.stats()
        survivors = {
            (entry["tenant"], entry["fingerprint"])
            for entry in stats["entries"]
        }
        # b (least recently used) went first.
        tenants = {tenant for tenant, _ in survivors}
        assert "other" in tenants


# ----------------------------------------------------------------------
# Bad input: 4xx, and nothing sticks
# ----------------------------------------------------------------------


class TestBadRequests:
    @pytest.mark.parametrize(
        "body, status",
        [
            (b"not json at all", 400),
            (b'["a", "list"]', 400),
            (b"{}", 400),
            (b'{"image_b64": "!!!"}', 400),
            (b'{"image_b64": "bm90IGFuIGltYWdl"}', 400),  # bad magic
        ],
    )
    def test_malformed_analyze_bodies(self, daemon, image_a, body, status):
        import http.client

        client = _client(daemon)
        host, port = daemon.server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request(
                "POST", "/v1/analyze", body=body,
                headers={"Content-Type": "application/json"},
            )
            raw = connection.getresponse()
            payload = json.loads(raw.read().decode())
            assert raw.status == status
            assert "error" in payload
        finally:
            connection.close()
        # No registry residue from any failed request.
        assert client.metricsz()["registry"]["sessions"] == 0

    def test_undecodable_text_word_is_400(self, daemon):
        # Well-formed container, one word no instruction format claims:
        # the client's fault (4xx), not an internal error.
        image = assemble(SOURCE_A)
        text = b"\x00\x00\x00\x04" + image.text[4:]
        blob = dataclasses.replace(image, text=text).to_bytes()
        client = _client(daemon)
        for request in (
            lambda: client.analyze(blob),
            lambda: client.query(blob, "main"),
        ):
            with pytest.raises(ServiceError) as excinfo:
                request()
            assert excinfo.value.status == 400
            assert f"{image.text_base:#x}" in str(excinfo.value)
        assert client.metricsz()["registry"]["sessions"] == 0

    def test_hostile_symbol_tables_are_400(
        self, daemon, image_a, hostile_symbol_tables
    ):
        # Symbol tables that used to end in UnicodeDecodeError /
        # ProgramError (a 500): the client's fault, with a typed message.
        client = _client(daemon)
        hostile = hostile_symbol_tables(image_a)
        assert len(hostile) == 3
        for name, blob in hostile.items():
            with pytest.raises(ServiceError) as excinfo:
                client.analyze(blob)
            assert excinfo.value.status == 400, name
            assert "symbol" in str(excinfo.value)
        assert client.metricsz()["registry"]["sessions"] == 0

    def test_oversized_body_is_413(self, image_a):
        daemon = AnalysisDaemon(ServiceConfig(port=0, max_request_bytes=64))
        thread = threading.Thread(target=daemon.serve_forever)
        thread.start()
        try:
            client = _client(daemon)
            with pytest.raises(ServiceError) as excinfo:
                client.analyze(image_a)
            assert excinfo.value.status == 413
            assert client.metricsz()["registry"]["sessions"] == 0
        finally:
            daemon.drain()
            thread.join(timeout=30)

    def test_missing_body_is_411(self, daemon):
        response = _client(daemon).request(
            "POST", "/v1/analyze", raise_on_error=False
        )
        assert response.status == 411

    def test_unknown_paths(self, daemon):
        client = _client(daemon)
        assert client.request(
            "GET", "/nope", raise_on_error=False
        ).status == 404
        assert client.request(
            "POST", "/v2/analyze", body={}, raise_on_error=False
        ).status == 404

    def test_bad_jobs_value_is_400(self, daemon, image_a):
        body = {
            "image_b64": base64.b64encode(image_a).decode(),
            "jobs": "many",
        }
        response = _client(daemon).request(
            "POST", "/v1/analyze", body, raise_on_error=False
        )
        assert response.status == 400


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_healthz_flips_to_draining(self, image_a):
        daemon = AnalysisDaemon(ServiceConfig(port=0))
        thread = threading.Thread(target=daemon.serve_forever)
        thread.start()
        client = _client(daemon)
        assert client.healthz().status == 200
        daemon.drain()
        thread.join(timeout=30)
        assert not thread.is_alive()
        # Idempotent.
        daemon.drain()

    def test_graceful_drain_finishes_inflight_request(self, image_a):
        """A drain issued while a request is solving lets it finish."""
        daemon = AnalysisDaemon(ServiceConfig(port=0))
        thread = threading.Thread(target=daemon.serve_forever)
        thread.start()
        results = {}

        def slow_request():
            results["response"] = _client(daemon).analyze(image_a)

        worker = threading.Thread(target=slow_request)
        try:
            worker.start()
            # Drain races the in-flight analyze; the handler must
            # complete either way (block_on_close joins it).
            time.sleep(0.01)
            daemon.drain()
            worker.join(timeout=60)
            assert not worker.is_alive()
            response = results["response"]
            # Either it got in before the accept loop stopped (200)
            # or it was refused cleanly (503) — never truncated.
            assert response.status in (200, 503)
            if response.status == 200:
                validate_payload(response.payload)
        finally:
            daemon.drain()
            thread.join(timeout=30)

    def test_metricsz_counts_requests(self, daemon, image_a):
        client = _client(daemon)
        client.analyze(image_a)
        client.analyze(image_a)
        counters = client.metricsz()["counters"]
        assert counters["service.requests{endpoint=analyze}"] >= 2
        assert counters["service.result.warm"] >= 1
        assert counters["service.result.cold"] >= 1

    def test_sidecar_persists_across_restarts(self, tmp_path, image_a):
        """An edit request after a daemon restart warm-starts from the
        tenant's on-disk SUM3 sidecar."""
        config = dict(port=0, cache_dir=str(tmp_path))
        first = AnalysisDaemon(ServiceConfig(**config))
        thread = threading.Thread(target=first.serve_forever)
        thread.start()
        try:
            client = _client(first, tenant="team-a")
            client.analyze(image_a, edit={"routine": "inc"})
        finally:
            first.drain()
            thread.join(timeout=30)
        sidecars = list(tmp_path.glob("team-a/*.sum2"))
        assert len(sidecars) == 1

        second = AnalysisDaemon(ServiceConfig(**config))
        thread = threading.Thread(target=second.serve_forever)
        thread.start()
        try:
            client = _client(second, tenant="team-a")
            response = client.analyze(image_a, edit={"routine": "inc"})
            # Warm on the *first* request of the new process: the
            # sidecar supplied the base cache.
            assert response.warm
            assert response.payload["mode"] == "warm"
        finally:
            second.drain()
            thread.join(timeout=30)


class TestUnixSocket:
    def test_serves_over_unix_socket(self, tmp_path, image_a):
        sockpath = str(tmp_path / "svc.sock")
        daemon = AnalysisDaemon(ServiceConfig(socket_path=sockpath))
        thread = threading.Thread(target=daemon.serve_forever)
        thread.start()
        try:
            client = ServiceClient.unix(sockpath)
            assert client.healthz().status == 200
            response = client.analyze(image_a)
            validate_payload(response.payload)
        finally:
            daemon.drain()
            thread.join(timeout=30)
        import os

        assert not os.path.exists(sockpath)


# ----------------------------------------------------------------------
# Request-level observability
# ----------------------------------------------------------------------


class TestObservabilityEndpoints:
    def test_healthz_reports_uptime_inflight_and_sessions(
        self, daemon, image_a
    ):
        client = _client(daemon)
        client.analyze(image_a)
        # The in-flight decrement runs after the response bytes are
        # written (the histogram observe is what happens before), so a
        # freshly answered request may still show for an instant.
        deadline = time.monotonic() + 5
        while daemon.inflight and time.monotonic() < deadline:
            time.sleep(0.005)
        health = client.healthz().payload
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0
        assert health["inflight"] == 0
        assert health["sessions"] == 1
        assert health["session_bytes"] > 0

    def test_metricsz_default_json_unchanged_by_histograms(
        self, daemon, image_a
    ):
        """The default JSON stays byte-compatible: no histogram block
        unless explicitly requested with ``?include=histograms``."""
        client = _client(daemon)
        client.analyze(image_a)
        payload = client.metricsz()
        assert set(payload) == {"counters", "registry", "draining"}
        assert all(
            isinstance(value, (int, float))
            for value in payload["counters"].values()
        )

    def test_metricsz_include_histograms_adds_the_block(
        self, daemon, image_a
    ):
        client = _client(daemon)
        client.analyze(image_a)
        client.analyze(image_a)
        payload = client.metricsz(include_histograms=True)
        histograms = payload["histograms"]
        cold = histograms[
            "service.request.seconds{endpoint=analyze,warm=false}"
        ]
        warm = histograms[
            "service.request.seconds{endpoint=analyze,warm=true}"
        ]
        assert cold["count"] >= 1
        assert warm["count"] >= 1
        assert cold["buckets"]["+Inf"] == cold["count"]
        # Queue-wait and stage sub-histograms ride along.
        assert any(
            key.startswith("service.queue_wait.seconds") for key in histograms
        )
        assert any(
            key.startswith("service.stage.seconds{stage=analyze}")
            for key in histograms
        )

    def test_metricsz_prometheus_format_param(self, daemon, image_a):
        client = _client(daemon)
        client.analyze(image_a)
        text = client.metricsz_prometheus()
        assert "# TYPE service_request_seconds histogram" in text
        assert 'service_requests{endpoint="analyze"}' in text
        assert 'le="+Inf"' in text

    def test_metricsz_prometheus_via_accept_header(self, daemon, image_a):
        import http.client

        _client(daemon).analyze(image_a)
        host, port = daemon.server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request(
                "GET", "/metricsz", headers={"Accept": "text/plain"}
            )
            raw = connection.getresponse()
            body = raw.read().decode("utf-8")
            assert raw.status == 200
            assert raw.headers["Content-Type"].startswith("text/plain")
        finally:
            connection.close()
        assert "# TYPE service_request_seconds histogram" in body

    def test_request_histogram_counts_every_request(self, daemon, image_a):
        def served(histograms):
            return sum(
                entry["count"]
                for key, entry in histograms.items()
                if key.startswith("service.request.seconds")
            )

        client = _client(daemon)
        # The registry is process-global (other tests' daemons feed the
        # same histograms), so count the delta across our requests.
        base = served(client.metricsz(include_histograms=True)["histograms"])
        client.analyze(image_a)
        client.analyze(image_a)
        client.query(image_a, "inc")
        after = served(client.metricsz(include_histograms=True)["histograms"])
        # Every POST in between (the metricsz GETs don't count).
        assert after - base == 3


class TestRequestTracing:
    def test_trace_header_attaches_spans(self, daemon, image_a):
        response = _client(daemon).analyze(image_a, trace=True)
        trace = response.payload["trace"]
        names = {event["name"] for event in trace["traceEvents"]}
        assert "analyze" in names
        spans = int(response.headers["X-Repro-Trace-Spans"])
        assert spans == len(trace["traceEvents"]) > 0

    def test_untraced_requests_carry_no_trace(self, daemon, image_a):
        client = _client(daemon)
        client.analyze(image_a, trace=True)
        response = client.analyze(image_a)
        assert "trace" not in response.payload
        assert "X-Repro-Trace-Spans" not in response.headers

    def test_concurrent_traces_do_not_interleave(
        self, daemon, image_a, image_b
    ):
        """Two traced requests in flight at once each see only their
        own spans (the tracer override is request-thread-local)."""
        payloads = {}

        def hit(name, blob):
            payloads[name] = _client(daemon).analyze(
                blob, trace=True
            ).payload

        threads = [
            threading.Thread(target=hit, args=("a", image_a)),
            threading.Thread(target=hit, args=("b", image_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        for name in ("a", "b"):
            events = payloads[name]["trace"]["traceEvents"]
            analyze_spans = [e for e in events if e["name"] == "analyze"]
            assert len(analyze_spans) == 1, name

    def test_trace_dir_samples_to_disk(self, tmp_path, image_a):
        trace_dir = tmp_path / "traces"
        daemon = AnalysisDaemon(
            ServiceConfig(port=0, trace_dir=str(trace_dir), trace_sample=2)
        )
        thread = threading.Thread(target=daemon.serve_forever)
        thread.start()
        try:
            client = _client(daemon)
            responses = [client.analyze(image_a) for _ in range(4)]
        finally:
            daemon.drain()
            thread.join(timeout=30)
        exported = sorted(trace_dir.glob("*.json"))
        # 1-in-2 sampling over sequence numbers 1..4 exports two.
        assert len(exported) == 2
        run_ids = {response.run_id for response in responses}
        assert {path.stem for path in exported} <= run_ids
        for path in exported:
            trace = json.loads(path.read_text(encoding="utf-8"))
            assert trace["traceEvents"]
        # Sampling never leaks spans into response payloads.
        assert all("trace" not in r.payload for r in responses)
