"""Tests for ``repro.obs`` — span tracing, counters, and logging."""

import io
import json
import logging
import os

import pytest

from repro.api import AnalysisSession
from repro.obs import (
    REGISTRY,
    MetricsRegistry,
    configure_logging,
    current_run_id,
    disable_tracing,
    enable_tracing,
    get_tracer,
    new_run_id,
    render_counters,
    render_key,
    resolve_level,
    span,
    tracing_enabled,
)
from repro.obs.metrics import SEEDED_KEYS
from repro.obs.tracer import NULL_SPAN, Tracer
from repro.program.asm import assemble

SOURCE = """
.routine main export
    li  a0, 5
    bsr ra, helper
    bis zero, v0, a0
    output
    halt
.routine helper
    addq a0, #1, v0
    ret (ra)
"""


@pytest.fixture(autouse=True)
def _reset_tracer():
    """Every test starts and ends with tracing off and a fresh buffer."""
    disable_tracing()
    yield
    disable_tracing()


class TestTracerSpans:
    def test_disabled_span_is_the_shared_null_instance(self):
        assert not tracing_enabled()
        assert span("anything", key="value") is NULL_SPAN
        assert span("other") is NULL_SPAN
        with span("nothing-recorded"):
            pass
        assert get_tracer().spans == []

    def test_enabled_spans_record_name_args_and_duration(self):
        tracer = enable_tracing()
        with span("outer", routine="main"):
            with span("inner"):
                pass
        names = [record[0] for record in tracer.spans]
        assert names == ["inner", "outer"]  # inner exits first
        outer = tracer.spans[1]
        assert outer[2] >= 0  # duration
        assert outer[3] == os.getpid()
        assert outer[5] == {"routine": "main"}

    def test_nesting_is_recoverable_from_intervals(self):
        tracer = enable_tracing()
        with span("outer"):
            with span("inner"):
                pass
        inner, outer = tracer.spans
        assert outer[1] <= inner[1]  # outer starts first
        assert inner[1] + inner[2] <= outer[1] + outer[2] + 1e-6


class TestChromeTraceExport:
    def test_round_trip_through_json(self, tmp_path):
        tracer = enable_tracing()
        with span("phase1", routines=3, label=object()):
            pass
        out = tmp_path / "trace.json"
        count = tracer.export(str(out))
        assert count == 1
        document = json.loads(out.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["run_id"] == current_run_id()
        events = document["traceEvents"]
        xs = [event for event in events if event["ph"] == "X"]
        ms = [event for event in events if event["ph"] == "M"]
        assert len(xs) == 1 and len(ms) == 1
        event = xs[0]
        assert event["name"] == "phase1"
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert event["args"]["routines"] == 3
        # Non-scalar args are stringified, never break serialization.
        assert isinstance(event["args"]["label"], str)
        assert ms[0]["args"]["name"] == "main"

    def test_export_to_file_object(self):
        tracer = enable_tracing()
        with span("s"):
            pass
        buffer = io.StringIO()
        tracer.export(buffer)
        assert json.loads(buffer.getvalue())["traceEvents"]


class TestSessionTrace:
    def test_analyze_records_into_this_process(self):
        session = AnalysisSession.from_image_bytes(
            assemble(SOURCE).to_bytes()
        )
        tracer = enable_tracing()
        session.analyze()
        assert tracer.pids() == {os.getpid()}
        assert "analyze" in {record[0] for record in tracer.spans}


class TestMetricsRegistry:
    def test_labels_form_distinct_series(self):
        registry = MetricsRegistry()
        registry.inc("solver.iterations", 3, phase="phase1")
        registry.inc("solver.iterations", 4, phase="phase2")
        registry.inc("solver.iterations", 1, phase="phase1")
        assert registry.value("solver.iterations", phase="phase1") == 4
        assert registry.value("solver.iterations", phase="phase2") == 4
        series = dict(
            (labels["phase"], value)
            for labels, value in registry.labeled("solver.iterations")
        )
        assert series == {"phase1": 4, "phase2": 4}

    def test_observe_max_keeps_high_water(self):
        registry = MetricsRegistry()
        registry.observe_max("depth", 5, phase="phase1")
        registry.observe_max("depth", 3, phase="phase1")
        registry.observe_max("depth", 9, phase="phase1")
        assert registry.value("depth", phase="phase1") == 9

    def test_delta_since_scopes_counters_and_seeds_keys(self):
        registry = MetricsRegistry()
        registry.inc("cache.hit", 10)
        base = registry.snapshot()
        registry.inc("cache.hit", 2)
        delta = registry.delta_since(base)
        assert delta["cache.hit"] == 2
        for key in SEEDED_KEYS:
            assert render_key(key) in delta
        assert delta["cache.miss"] == 0

    def test_render_key_and_counters_block(self):
        assert render_key(("x", ())) == "x"
        assert render_key(("x", (("a", "1"), ("b", "2")))) == "x{a=1,b=2}"
        block = render_counters({"x": 3, "y{k=v}": 1.5}, indent="  ")
        assert "  x" in block and "3" in block and "1.50" in block

    def test_global_registry_is_shared(self):
        base = REGISTRY.snapshot()
        REGISTRY.inc("test.obs.counter", 1)
        assert REGISTRY.delta_since(base)["test.obs.counter"] == 1


class TestLogging:
    def test_records_are_run_id_stamped(self):
        run_id = new_run_id()
        stream = io.StringIO()
        configure_logging("info", stream=stream)
        try:
            logging.getLogger("repro.obs.test").info("hello %s", "world")
        finally:
            configure_logging("warning")
        text = stream.getvalue()
        assert "hello world" in text
        assert run_id in text
        assert "repro.obs.test" in text

    def test_configure_is_idempotent(self):
        logger = configure_logging("warning")
        before = len(logger.handlers)
        configure_logging("warning")
        assert len(logger.handlers) == before

    def test_resolve_level(self):
        assert resolve_level("debug") == logging.DEBUG
        assert resolve_level("INFO") == logging.INFO
        assert resolve_level(17) == 17
        assert resolve_level("25") == 25
        with pytest.raises(ValueError):
            resolve_level("not-a-level")


class TestDisabledOverhead:
    def test_disabled_tracer_allocates_nothing(self):
        tracer = Tracer(enabled=False)
        first = tracer.span("a", x=1)
        second = tracer.span("b")
        assert first is second is NULL_SPAN
        assert tracer.spans == []

    def test_session_counters_still_work_with_tracing_off(self):
        session = AnalysisSession.from_image_bytes(
            assemble(SOURCE).to_bytes()
        )
        session.analyze()
        counters = session.metrics()["counters"]
        assert counters["solver.iterations{phase=phase1}"] > 0
        assert get_tracer().spans == []
