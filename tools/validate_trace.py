#!/usr/bin/env python
"""Validate a ``spike-analyze analyze --trace`` export (CI smoke check).

Usage::

    python tools/validate_trace.py trace.json \
        [--require-span NAME]... [--stats stats.json]

Checks the file is a well-formed Chrome trace-event document:

* ``traceEvents`` is a list of ``X`` (complete) and ``M`` (metadata)
  events with the required fields, numeric non-negative ``ts``/``dur``;
* every pid has a ``process_name`` metadata event;
* every ``--require-span NAME`` (repeatable) matches at least one
  ``X`` event — e.g. ``--require-span analyze --require-span
  psg.build`` proves the facade's analyze and the PSG build were
  recorded.

With ``--stats``, also validates the ``--json`` stats payload captured
from the same run: the ``counters`` object must carry the seeded cache
verdict keys and per-phase solver iteration counts.

Exits 0 when everything holds, 1 with a message otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List


def fail(message: str) -> "None":
    print(f"trace validation failed: {message}", file=sys.stderr)
    raise SystemExit(1)


def validate_trace(
    document: Dict[str, Any],
    require_spans: List[str] | None = None,
) -> None:
    if not isinstance(document, dict) or "traceEvents" not in document:
        fail("top level must be an object with a traceEvents list")
    events = document["traceEvents"]
    if not isinstance(events, list) or not events:
        fail("traceEvents must be a non-empty list")
    duration_pids = set()
    named_pids = set()
    span_names = set()
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"event {index} is not an object")
        phase = event.get("ph")
        if phase not in ("X", "M"):
            fail(f"event {index} has unsupported ph {phase!r}")
        if "pid" not in event:
            fail(f"event {index} has no pid")
        if phase == "X":
            for field in ("name", "ts", "dur", "tid"):
                if field not in event:
                    fail(f"X event {index} missing {field!r}")
            for field in ("ts", "dur"):
                value = event[field]
                if not isinstance(value, (int, float)) or value < 0:
                    fail(f"X event {index} has bad {field}: {value!r}")
            duration_pids.add(event["pid"])
            span_names.add(event["name"])
        elif event.get("name") == "process_name":
            named_pids.add(event["pid"])
    missing = [
        name for name in (require_spans or []) if name not in span_names
    ]
    if missing:
        fail(f"required spans absent from the trace: {missing}")
    unnamed = duration_pids - named_pids
    if unnamed:
        fail(f"pids without process_name metadata: {sorted(unnamed)}")
    print(
        f"trace ok: {sum(1 for e in events if e.get('ph') == 'X')} spans "
        f"from {len(duration_pids)} processes"
    )


REQUIRED_COUNTERS = [
    "cache.hit",
    "cache.miss",
    "cache.stale",
    "cache.write",
    "frontend.routines",
    "solver.iterations{phase=phase1}",
    "solver.iterations{phase=phase2}",
]


def validate_stats(payload: Dict[str, Any]) -> None:
    counters = payload.get("counters")
    if not isinstance(counters, dict):
        fail("--json payload has no counters object")
    for name in REQUIRED_COUNTERS:
        if name not in counters:
            fail(f"counters missing {name!r}")
    for phase in ("phase1", "phase2"):
        if counters[f"solver.iterations{{phase={phase}}}"] <= 0:
            fail(f"no {phase} solver iterations recorded")
    print(f"stats ok: {len(counters)} counters, required keys present")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument(
        "--require-span", dest="require_spans", action="append",
        default=[], metavar="NAME",
        help="require an X event with this name (repeatable)",
    )
    parser.add_argument(
        "--stats", metavar="FILE", default=None,
        help="also validate a --json stats payload from the same run",
    )
    args = parser.parse_args(argv)
    with open(args.trace, "r", encoding="utf-8") as handle:
        validate_trace(json.load(handle), args.require_spans)
    if args.stats:
        with open(args.stats, "r", encoding="utf-8") as handle:
            validate_stats(json.load(handle))
    return 0


if __name__ == "__main__":
    sys.exit(main())
