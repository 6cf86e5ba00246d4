#!/usr/bin/env python
"""Aggregate ``benchmarks/results/*.json`` into one ``BENCH_<pr>.json``.

Usage::

    python tools/bench_summary.py [--results-dir DIR] [--pr N] [--out FILE]

Every benchmark session writes one machine-readable JSON per table into
``benchmarks/results/`` (see ``benchmarks/conftest.py``); this tool
folds them into a single top-level summary CI can upload and trend
tooling can diff across PRs::

    {
      "pr": 9,
      "benches": {
        "<table stem>": {"seconds": <total (s)-column seconds>,
                         "counters": {...obs registry snapshot...},
                         "histograms": {series: {count, sum,
                                                 p50, p95, p99}}},
        ...
      }
    }

The ``histograms`` block (present when a bench recorded latency
distributions — the service bench) carries the headline
quantiles, so trend tooling can diff tails, not just totals.

Exits 1 when the results directory holds no readable result files —
an empty summary usually means the bench job silently did nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List


def _seconds_from_samples(payload: Dict[str, Any]) -> float:
    """Fallback wall time: the sum of every numeric sample value under
    a ``(s)``-suffixed key (the same rule the result writer applies to
    table columns)."""
    total = 0.0
    for sample in payload.get("samples", ()):
        if not isinstance(sample, dict):
            continue
        for key, value in sample.items():
            if "(s)" in key and isinstance(value, (int, float)):
                total += float(value)
    return total


def summarize(results_dir: Path, pr: int) -> Dict[str, Any]:
    benches: Dict[str, Any] = {}
    for path in sorted(results_dir.glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            print(f"skipping {path}: {error}", file=sys.stderr)
            continue
        stem = payload.get("bench", path.stem)
        seconds = payload.get("seconds", 0.0)
        if not seconds:
            # A missing or zero total silently erased figure_13's wall
            # time from past summaries (its table carried only percent
            # columns): re-derive from the samples and say so loudly.
            seconds = _seconds_from_samples(payload)
            print(
                f"WARNING: {path.name} reports no top-level seconds; "
                f"derived {seconds:.6f}s from its samples",
                file=sys.stderr,
            )
        entry: Dict[str, Any] = {
            "seconds": seconds,
            "counters": payload.get("counters", {}),
        }
        histograms = payload.get("histograms") or {}
        if histograms:
            # Carry the quantiles, drop the raw bucket maps: the
            # summary is for diffing across PRs, and p50/p95/p99 are
            # the numbers a regression shows up in.
            entry["histograms"] = {
                series: {
                    key: value
                    for key, value in data.items()
                    if key in ("count", "sum", "p50", "p95", "p99")
                }
                for series, data in histograms.items()
                if isinstance(data, dict)
            }
        benches[stem] = entry
    return {"pr": pr, "benches": benches}


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir", type=Path, default=Path("benchmarks/results"),
        metavar="DIR", help="directory of per-table result JSON files",
    )
    parser.add_argument(
        "--pr", type=int, default=10, metavar="N",
        help="PR number recorded in the summary (default: 10)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, metavar="FILE",
        help="output path (default: BENCH_<pr>.json in the cwd)",
    )
    args = parser.parse_args(argv)
    summary = summarize(args.results_dir, args.pr)
    if not summary["benches"]:
        print(
            f"no benchmark results found in {args.results_dir}",
            file=sys.stderr,
        )
        return 1
    out = args.out or Path(f"BENCH_{args.pr}.json")
    out.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {out}: {len(summary['benches'])} benches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
