"""Tests for ``repro.obs`` — span tracing, counters, and logging."""

import ast
import io
import json
import logging
import os
import re
import threading
from pathlib import Path

import pytest

from repro.api import AnalysisConfig, AnalysisSession
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
from repro.obs.metrics import SEEDED_KEYS, Ledger
from repro.obs.tracer import NULL_SPAN, Tracer
from repro.program.asm import assemble
from repro.program.rewrite import program_to_image

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


#: Counters a session's payload reports must not depend on what else
#: the process ran: the store would make a later run adopt answers an
#: earlier one published.
_OFF = AnalysisConfig(store="off")


class TestRunLedger:
    def test_open_ledgers_record_their_thread_only(self):
        registry, outer, inner = MetricsRegistry(), Ledger(), Ledger()
        registry.inc("x")
        with outer:
            registry.inc("x", 2)
            with inner:
                registry.inc("x", 3, phase="phase1")
                registry.observe_max("depth", 4)
                other = threading.Thread(target=registry.inc, args=("x", 100))
                other.start()
                other.join()
        registry.inc("x", 5)
        assert outer.value("x") == 2 and inner.value("x") == 0
        assert outer.value("x", phase="phase1") == inner.value(
            "x", phase="phase1"
        ) == 3
        assert outer.value("depth") == inner.value("depth") == 4
        assert registry.value("x") == 108
        assert inner.as_dict()["x{phase=phase1}"] == 3
        for key in SEEDED_KEYS:
            assert render_key(key) in inner.as_dict()

    def test_interleaved_sessions_count_their_own_runs(self, small_benchmark):
        solo = AnalysisSession.from_program(small_benchmark, _OFF)
        solo.analyze()
        expected = solo.to_json()["counters"]
        first = AnalysisSession.from_program(small_benchmark, _OFF)
        AnalysisSession.from_program(small_benchmark, _OFF).analyze()
        first.analyze()
        assert first.to_json()["counters"] == expected
        assert expected["psg.builds"] == 1

    def test_each_query_payload_counts_that_query(self, small_benchmark):
        session = AnalysisSession.from_program(small_benchmark, _OFF)
        for routine in small_benchmark.routine_names()[:3]:
            result = session.query(routine)
            payload = session.to_json()
            assert payload["counters"]["query.requests"] == 1
            assert (
                payload["counters"]["query.solved"]
                == payload["phase2_solved"] == result.metrics.phase2_solved
            )
            assert session.metrics()["counters"] == payload["counters"]

    def test_the_first_run_counts_the_open(self, small_benchmark):
        """A session opened from bytes hands what decoding its image
        counted to its first run's ledger, and to no later run's."""
        blob = program_to_image(small_benchmark).to_bytes()
        session = AnalysisSession.from_image_bytes(blob, _OFF)
        words = session.program.instruction_count
        first = session.analyze_incremental().metrics.ledger
        assert first.value("program.decode.words") == words
        assert 0 < first.value("program.decode.forms") <= (
            first.value("program.decode.distinct")
        ) <= words
        counters = session.metrics()["counters"]
        assert counters["program.decode.words"] == words
        session.query(small_benchmark.routine_names()[0])
        assert "program.decode.words" not in session.metrics()["counters"]
        assert session.analyze().metrics.ledger.value("program.decode.words") == 0
        # A session over a decoded program opened nothing.
        run = AnalysisSession.from_program(small_benchmark, _OFF).analyze()
        assert run.metrics.ledger.value("program.decode.words") == 0

    def test_max_queue_depth_is_the_runs_own(self, small_benchmark, quick_program):
        big = AnalysisSession.from_program(small_benchmark, _OFF)
        big.analyze()
        small = AnalysisSession.from_program(quick_program, _OFF)
        small.analyze()
        for phase in ("phase1", "phase2"):
            key = f"solver.max_queue_depth{{phase={phase}}}"
            assert 0 < small.to_json()["counters"][key] < (
                big.to_json()["counters"][key]
            )


_ROOT = Path(__file__).resolve().parents[1]


def _recorded_names():
    """Every literal name ``src/`` passes to ``inc`` / ``observe_max`` /
    ``observe_hist`` — of ``REGISTRY``, or of a ledger a run counts into,
    whatever it is called where it counts — with one place it is
    recorded."""
    names = {}
    for path in sorted((_ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("inc", "observe_max", "observe_hist")
                and node.args
            ):
                continue
            for name in _literals(node.args[0]):
                names.setdefault(name, f"{path.name}:{node.lineno}")
    return names


def _literals(expr):
    """The literal strings an expression evaluates to (a constant, or
    either branch of a conditional); an f-string names no one series."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return [expr.value]
    if isinstance(expr, ast.IfExp):
        return _literals(expr.body) + _literals(expr.orelse)
    return []


def test_every_recorded_name_is_documented():
    names = _recorded_names()
    assert "solver.routine_iterations" in names  # a multi-line call
    assert "service.result.cold" in names  # a conditional name
    docs = (_ROOT / "docs" / "observability.md").read_text()
    missing = {
        name: where for name, where in names.items()
        if not re.search(rf"(?<![\w.]){re.escape(name)}(?![\w.])", docs)
    }
    assert not missing, (
        f"recorded but not spelled out in docs/observability.md: {missing}"
    )


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
