"""Contract tests for the schema-1 result payload.

Every analysis outcome — serial, incremental, demand query —
renders through :func:`repro.interproc.results.build_payload`, and the
CLI ``--json`` output and the service daemon responses are that same
object.  These tests pin the external shape: common keys, kind keys,
JSON round-trip fidelity, digest determinism across engines, and the
validator that clients (and the CI smoke) code against.
"""

import json

import pytest

from repro.api import (
    AnalysisConfig,
    AnalysisResult,
    AnalysisSession,
    SCHEMA_VERSION,
    validate_payload,
)
from repro.interproc.results import COMMON_KEYS, KIND_KEYS, summaries_digest
from repro.program.asm import assemble

SOURCE = """
.routine main export
    li  a0, 3
    bsr ra, inc
    bsr ra, dbl
    bis zero, v0, a0
    output
    halt
.routine inc
    addq a0, #1, v0
    ret (ra)
.routine dbl
    addq a0, a0, v0
    ret (ra)
"""


@pytest.fixture(scope="module")
def image():
    return assemble(SOURCE)


def _session(image, **kwargs):
    return AnalysisSession.from_image(image, **kwargs)


def _check_common(payload, kind):
    validate_payload(payload)
    assert payload["schema"] == SCHEMA_VERSION
    assert payload["kind"] == kind
    for key in COMMON_KEYS:
        assert key in payload
    for key in KIND_KEYS[kind]:
        assert key in payload


class TestShapePerKind:
    def test_serial(self, image):
        session = _session(image)
        session.analyze()
        payload = session.to_json()
        _check_common(payload, "serial")
        assert payload["routines"] == 3

    def test_incremental(self, image):
        session = _session(image)
        session.analyze_incremental()
        payload = session.to_json()
        _check_common(payload, "incremental")
        assert payload["mode"] == "cold"

    def test_query(self, image):
        session = _session(image)
        session.query("inc")
        payload = session.to_json()
        _check_common(payload, "query")
        assert payload["routine"] == "inc"
        assert payload["summary"]["routine"] == "inc"

    def test_lazy_to_json_runs_analysis(self, image):
        session = _session(image, config=AnalysisConfig())
        payload = session.to_json()
        _check_common(payload, "serial")


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self, image):
        session = _session(image)
        session.analyze()
        payload = session.to_json(include_summaries=True)
        wire = json.dumps(payload, indent=2, sort_keys=True)
        back = json.loads(wire)
        validate_payload(back)
        assert back == json.loads(json.dumps(payload, sort_keys=True))
        assert set(back["summaries"]) == {"main", "inc", "dbl"}

    def test_digest_agrees_across_engines(self, image):
        serial = _session(image)
        serial.analyze()
        incremental = _session(image)
        incremental.analyze_incremental()
        assert (
            serial.to_json()["summaries_crc64"]
            == incremental.to_json()["summaries_crc64"]
        )

    def test_digest_matches_summaries(self, image):
        session = _session(image)
        analysis = session.analyze()
        payload = session.to_json()
        assert payload["summaries_crc64"] == summaries_digest(analysis.result)

    def test_cold_result_encodes_each_summary_once(self, image, monkeypatch):
        """Dumping a cold result and building its payload (whose digest
        is the CRC of the same SUM1 bytes) splice the same bodies."""
        from repro.interproc import persist

        encoded = []
        write = persist._write_summary_body

        def counting(parts, summary):
            encoded.append(summary.name)
            write(parts, summary)

        monkeypatch.setattr(persist, "_write_summary_body", counting)
        session = _session(image, config=AnalysisConfig(store="off"))
        analysis = session.analyze()
        dumped = persist.dump_summaries(analysis.result)
        payload = session.to_json(include_summaries=True)
        assert sorted(encoded) == ["dbl", "inc", "main"]
        assert payload["summaries_crc64"] == format(persist.crc64(dumped), "016x")

    def test_volatile_keys_do_not_leak_into_digest(self, image):
        first = _session(image)
        first.analyze()
        second = _session(image)
        second.analyze()
        a, b = first.to_json(), second.to_json()
        assert a["summaries_crc64"] == b["summaries_crc64"]
        # Timings differ run to run; the digest must not.
        assert a["stage_seconds"] != {} and b["stage_seconds"] != {}


class TestProtocol:
    def test_all_kinds_satisfy_protocol(self, image):
        session = _session(image)
        results = [
            session.analyze(),
            session.analyze_incremental(),
            session.query("dbl"),
        ]
        kinds = [r.kind for r in results]
        assert kinds == ["serial", "incremental", "query"]
        for result in results:
            assert isinstance(result, AnalysisResult)
            payload = result.to_json()
            validate_payload(payload)

    def test_bare_result_renders_empty_counters(self, image):
        session = _session(image)
        analysis = session.analyze()
        assert analysis.to_json()["counters"] == {}


class TestValidator:
    def test_rejects_wrong_schema(self, image):
        session = _session(image)
        session.analyze()
        payload = dict(session.to_json())
        payload["schema"] = 2
        with pytest.raises(ValueError, match="schema must be 1"):
            validate_payload(payload)

    def test_rejects_unknown_kind(self, image):
        session = _session(image)
        session.analyze()
        payload = dict(session.to_json())
        payload["kind"] = "mystery"
        with pytest.raises(ValueError, match="unknown kind"):
            validate_payload(payload)

    def test_lists_every_problem(self):
        with pytest.raises(ValueError) as excinfo:
            validate_payload({"schema": 0, "kind": "nope"})
        message = str(excinfo.value)
        assert "schema must be" in message
        assert "unknown kind" in message
        assert "missing common key" in message
