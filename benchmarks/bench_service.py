"""Daemon round-trip latency: cold solve vs warm retained sessions.

The whole premise of ``spike-analyze serve`` is that a long-running
optimizer service should pay the front end (decode, CFG build, PSG
construction) and the two-phase solve once per image, not once per
request.  This bench drives a live daemon over HTTP on the gcc shape
(the paper's largest SPEC row) and measures:

* **cold** — first ``POST /v1/analyze`` of the image: full pipeline;
* **warm** — repeat POST of the byte-identical image: served from the
  retained session payload, no front end, no solver;
* **edit** — ``POST /v1/analyze`` with one routine perturbed:
  incremental warm-start from the base image's SUM5 cache.

Warm responses are asserted byte-identical to the cold payload, and
``REPRO_BENCH_REQUIRE_SPEEDUP=1`` turns the headline into an
assertion: the warm round trip must be at least 5x faster than the
cold one (in practice it is orders of magnitude faster — the warm
path is one fingerprint plus a dict hit).
"""

import os
import threading
import time

import pytest

from benchmarks.conftest import benchmark_program, record
from repro.program.rewrite import program_to_image
from repro.service import AnalysisDaemon, ServiceClient, ServiceConfig
from repro.workloads.mutate import first_editable_routine

REQUIRE_SPEEDUP = os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP") == "1"

SERVICE_BENCHMARKS = ["gcc"]

HEADERS = (
    "Benchmark",
    "Routines",
    "Cold (s)",
    "Warm (s)",
    "Edit (s)",
    "Warm speedup",
)


@pytest.mark.parametrize("name", SERVICE_BENCHMARKS)
def test_service_warm_vs_cold(benchmark, name):
    program, shape = benchmark_program(name)
    image_bytes = program_to_image(program).to_bytes()
    routine = first_editable_routine(program)

    daemon = AnalysisDaemon(ServiceConfig(port=0))
    thread = threading.Thread(target=daemon.serve_forever)
    thread.start()
    try:
        host, port = daemon.server.server_address[:2]
        client = ServiceClient.tcp(host, port)

        def measure():
            start = time.perf_counter()
            cold = client.analyze(image_bytes)
            cold_seconds = time.perf_counter() - start

            # Median-of-three warm repeats: the retained-session path.
            warm_seconds = []
            for _ in range(3):
                start = time.perf_counter()
                warm = client.analyze(image_bytes)
                warm_seconds.append(time.perf_counter() - start)
            warm_seconds.sort()

            start = time.perf_counter()
            edit = client.analyze(image_bytes, edit={"routine": routine})
            edit_seconds = time.perf_counter() - start
            return cold, cold_seconds, warm, warm_seconds[1], edit, edit_seconds

        cold, cold_seconds, warm, warm_seconds, edit, edit_seconds = (
            benchmark.pedantic(measure, rounds=1, iterations=1)
        )
    finally:
        daemon.drain()
        thread.join(timeout=60)

    assert not cold.warm and warm.warm
    # The warm response is the retained payload, byte for byte.
    assert warm.payload == cold.payload
    # The edit warm-started and re-solved only the dirty cone.
    assert edit.payload["kind"] == "incremental"
    assert edit.payload["phase2_solved"] < program.routine_count

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    if REQUIRE_SPEEDUP:
        assert speedup >= 5.0, (
            f"warm daemon round trip only {speedup:.1f}x over cold on "
            f"{name} (cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s); "
            "expected >= 5x"
        )

    record(
        "service",
        HEADERS,
        (
            name,
            program.routine_count,
            f"{cold_seconds:.3f}",
            f"{warm_seconds:.4f}",
            f"{edit_seconds:.3f}",
            f"{speedup:.0f}x",
        ),
        note=(
            "One daemon, HTTP over loopback. Cold = first POST "
            "/v1/analyze (full front end + solve); warm = repeat POST "
            "of the unchanged image (retained session payload); edit = "
            "one perturbed routine (SUM5 warm start)."
        ),
    )
