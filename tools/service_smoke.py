#!/usr/bin/env python
"""End-to-end smoke test of the ``spike-analyze serve`` daemon.

Launches the serve CLI as a real subprocess on a unix socket, posts a
Table-2 image twice, and checks the full service contract:

* both responses carry a valid schema-1 payload (``validate_payload``);
* the second POST is served warm — asserted three ways: the
  ``X-Repro-Warm`` header, byte-identical payloads, and the
  ``service.session.hit`` / ``service.result.warm`` counters on
  ``GET /metricsz``;
* two ``POST /v1/query`` with overlapping cones (the entry, then one of
  its callees) answer what ``/v1/analyze`` does, and ``/metricsz``
  shows ``cache.fragment.hit >= 1``: the second query appended PSG
  fragments the first one labeled, held in the session's memo; the
  second query's payload counts that query alone (``query.requests``
  1, and ``query.solved`` equal to its ``phase2_solved``) and reports
  ``cfgs_built`` 0: it walks no routine, appending what the first one
  labeled;
* the server's ``service.request.seconds`` histogram count equals the
  POSTs the smoke sent, exactly; ``/metricsz?format=prometheus`` passes
  ``tools/validate_prometheus``; ``/healthz`` reports nothing in flight;
* SIGTERM drains the daemon: it exits 0, the socket is removed, and its
  shutdown log line reports ``in_flight=0``.

Usage::

    PYTHONPATH=src python tools/service_smoke.py [--benchmark compress]
        [--scale 0.1] [--timeout 120]

Exits non-zero with a one-line reason on any contract violation, so CI
can run it as a single step.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import List

from repro.api import SCHEMA_VERSION, validate_payload
from repro.cfg.callgraph import build_call_graph
from repro.program.disasm import disassemble_image
from repro.program.image import ExecutableImage
from repro.service import ServiceClient, ServiceError
from repro.workloads.generator import GeneratorConfig, generate_image
from repro.workloads.shapes import shape_by_name

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from validate_prometheus import validate  # noqa: E402


def fail(message: str) -> None:
    print(f"service smoke FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def wait_for_ready(client: ServiceClient, deadline: float) -> None:
    while time.monotonic() < deadline:
        try:
            response = client.healthz()
        except (ServiceError, OSError):
            time.sleep(0.05)
            continue
        if response.status == 200:
            return
        time.sleep(0.05)
    fail("daemon did not become healthy before the timeout")


def check_queries(client: ServiceClient, image_bytes: bytes) -> int:
    """Two queries with overlapping cones on the retained session — the
    entry, then one of its callees — must answer what ``/v1/analyze``
    does, the second on partial PSGs the first one built, and each
    payload's counters must describe its own query.  Returns the number
    of POSTs sent."""
    program = disassemble_image(ExecutableImage.from_bytes(image_bytes))
    entry = program.entry
    callees = build_call_graph(program).callees_of(entry)
    if not callees:
        fail(f"entry {entry!r} calls nothing: no overlapping cone to query")
    answers = {}
    for index, routine in enumerate((entry, callees[0])):
        response = client.query(image_bytes, routine, include_summaries=True)
        if response.status != 200:
            fail(f"query {routine!r} returned {response.status}: {response.payload}")
        answers[routine] = response.payload["summaries"][routine]
        counters = response.payload["counters"]
        if counters["query.requests"] != 1:
            fail(f"query {routine!r} payload counts "
                 f"{counters['query.requests']} query requests, not 1")
        if counters["query.solved"] != response.payload["phase2_solved"]:
            fail(f"query {routine!r} payload: query.solved "
                 f"{counters['query.solved']} != phase2_solved "
                 f"{response.payload['phase2_solved']}")
        if index and response.payload["cfgs_built"] != 0:
            fail(f"query {routine!r} walked {response.payload['cfgs_built']} "
                 f"routines the first query had labeled")
    whole = client.analyze(image_bytes, include_summaries=True)
    if whole.status != 200:
        fail(f"analyze with summaries returned {whole.status}: {whole.payload}")
    for routine, answer in answers.items():
        if answer != whole.payload["summaries"][routine]:
            fail(f"query answer for {routine!r} differs from /v1/analyze")
    counters = client.metricsz()["counters"]
    if counters.get("cache.fragment.hit", 0) < 1:
        fail(f"the queries reused no labeled PSG fragment: {counters}")
    print(
        f"queries: {entry} then {callees[0]} match /v1/analyze; "
        + ", ".join(
            f"{name}={counters.get(name, 0)}"
            for name in ("psg.partial_builds", "cache.fragment.hit",
                         "cache.fragment.miss")
        )
    )
    return len(answers) + 1


def request_seconds_count(text: str) -> int:
    return sum(
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("service_request_seconds_count")
    )


def check_request_accounting(client: ServiceClient, posted: int) -> None:
    """Every POST lands in the request histogram before its response
    leaves, the exposition is well formed, and nothing stays in flight."""
    exposition = client.metricsz_prometheus()
    served = request_seconds_count(exposition)
    if served != posted:
        fail(f"server histogram count {served} != {posted} requests sent")
    try:
        validate(exposition)
    except AssertionError as error:
        fail(f"prometheus exposition invalid: {error}")
    # The in-flight decrement runs after the response bytes are written.
    deadline = time.monotonic() + 5
    while (health := client.healthz().payload)["inflight"]:
        if time.monotonic() > deadline:
            fail(f"in-flight not zero after every response: {health}")
        time.sleep(0.01)
    print(f"metricsz: histogram count {served} == sent, prometheus "
          f"exposition valid; healthz: inflight=0, "
          f"sessions={health['sessions']}")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--benchmark", default="compress",
        help="Table-2 shape to post (default: compress)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="shape scale factor (default: 0.1)",
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0,
        help="overall deadline in seconds (default: 120)",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.timeout

    shape = shape_by_name(args.benchmark)
    if args.scale != 1.0:
        shape = shape.scaled(args.scale)
    image_bytes = generate_image(shape, GeneratorConfig()).to_bytes()
    print(f"image: {args.benchmark} x{args.scale}, {len(image_bytes)} bytes")

    with tempfile.TemporaryDirectory(prefix="service-smoke-") as tmp:
        socket_path = os.path.join(tmp, "svc.sock")
        log_path = os.path.join(tmp, "serve.log")
        log_handle = open(log_path, "w", encoding="utf-8")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli",
                "--log-level", "info", "serve",
                "--socket", socket_path,
                "--cache-dir", os.path.join(tmp, "cache"),
            ],
            stderr=log_handle,
        )
        try:
            client = ServiceClient.unix(socket_path)
            wait_for_ready(client, deadline)

            cold = client.analyze(image_bytes)
            if cold.status != 200:
                fail(f"cold analyze returned {cold.status}: {cold.payload}")
            if cold.warm:
                fail("first analyze of a fresh daemon reported warm")
            try:
                validate_payload(cold.payload)
            except ValueError as error:
                fail(f"cold payload is not valid schema 1: {error}")
            if cold.payload["schema"] != SCHEMA_VERSION:
                fail(f"unexpected schema version: {cold.payload['schema']}")
            print(
                f"cold: kind={cold.payload['kind']} "
                f"routines={cold.payload['routines']} "
                f"digest={cold.payload['summaries_crc64']} "
                f"run-id={cold.run_id}"
            )

            warm = client.analyze(image_bytes)
            if warm.status != 200:
                fail(f"warm analyze returned {warm.status}: {warm.payload}")
            if not warm.warm:
                fail("repeat analyze of the unchanged image was not warm")
            if warm.payload != cold.payload:
                fail("warm payload differs from the cold payload")
            print(f"warm: served retained payload, run-id={warm.run_id}")

            metrics = client.metricsz()
            counters = metrics["counters"]
            if counters.get("service.session.hit", 0) < 1:
                fail(f"no session hit recorded in /metricsz: {counters}")
            if counters.get("service.result.warm", 0) < 1:
                fail(f"no warm result recorded in /metricsz: {counters}")
            sessions = metrics["registry"]["sessions"]
            if sessions != 1:
                fail(f"expected exactly one retained session, got {sessions}")
            print(
                "metricsz: "
                + ", ".join(
                    f"{name}={counters[name]}"
                    for name in sorted(counters)
                    if name.startswith("service.")
                )
            )
            # The cold and the warm analyze, then the queries' POSTs.
            posted = 2 + check_queries(client, image_bytes)
            check_request_accounting(client, posted)

            process.send_signal(signal.SIGTERM)
            exit_code = process.wait(
                timeout=max(1.0, deadline - time.monotonic())
            )
            if exit_code != 0:
                fail(f"daemon exited {exit_code} after SIGTERM")
            if os.path.exists(socket_path):
                fail("daemon left its socket behind after drain")
            with open(log_path, encoding="utf-8") as log:
                if "in_flight=0" not in log.read():
                    fail("shutdown log does not report in_flight=0")
            print("drain: daemon exited 0, socket removed, in_flight=0")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
            log_handle.close()

    print("service smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
