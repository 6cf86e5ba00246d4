#!/usr/bin/env python3
"""Compare two result files against the bounds in ``BENCHMARK.json``.

    python3 perf/compare.py A.json B.json [--exact-counts]

Prints, per workload, every end-to-end metric of A and B with B's
change and the bound it is held to, then the per-layer ledger deltas
(un-gated: a ledger line explains a change, it never rejects one).
Exits 1 when B is worse than A by more than a metric's bound, when B
failed operations A did not, or — with ``--exact-counts``, for two
runs of one commit on one seed — when a count-pass line differs at
all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def worse_by(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of
    ``before`` (negative when it improved)."""
    if before == 0:
        return 0.0 if after == 0 else float("inf")
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


#: A size that does not repeat exactly: the schema-1 payload carries
#: the run's own timings, and a float's text is not always as long.
_INEXACT = {"interproc.results.payload_bytes"}


def exact_lines(benchmark: dict) -> set:
    """Ledger lines that must repeat exactly between two runs of one
    commit on one seed: the counts and sizes of the count pass (the
    benchmark's own sample count is not one of them)."""
    return {
        metric["name"] for metric in benchmark["per_layer"]
        if metric["unit"] in ("count", "bytes")
        and not metric["name"].startswith("perf.")
    } - _INEXACT


def compare(a: dict, b: dict, benchmark: dict, exact_counts: bool) -> list:
    """Print the comparison; return the list of breaches."""
    breaches = []
    ledger_spec = {m["name"]: m for m in benchmark["per_layer"]}
    for spec in benchmark["workloads"]:
        workload = spec["name"]
        ra, rb = a["workloads"].get(workload), b["workloads"].get(workload)
        if ra is None or rb is None:
            print(f"== {workload}: missing from "
                  f"{'A' if ra is None else 'B'}, skipped")
            continue
        print(f"== {workload}")
        if rb["ops_failed"] > ra["ops_failed"]:
            breaches.append(f"{workload}: ops_failed {ra['ops_failed']} -> "
                            f"{rb['ops_failed']}")
        print(f"  {'ops attempted/failed':<46}{ra['ops_attempted']}/"
              f"{ra['ops_failed']} -> {rb['ops_attempted']}/{rb['ops_failed']}")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            before = ra["end_to_end"][name]["value"]
            after = rb["end_to_end"][name]["value"]
            worse = worse_by(before, after, metric["better"])
            verdict = "ok"
            if worse > metric["bound"]:
                verdict = "BREACH"
                breaches.append(
                    f"{workload}: {name} {before:.4f} -> {after:.4f} "
                    f"({worse:+.1%} worse, bound {metric['bound']:.0%})"
                )
            print(f"  {name:<46}{before:>12.4f} -> {after:>12.4f}  "
                  f"{worse:+7.1%} of {metric['bound']:.0%}  {verdict}")
        la, lb = ra.get("ledger"), rb.get("ledger")
        if la is None or lb is None:
            continue
        exact = exact_lines(benchmark) if exact_counts else set()
        for name, spec_ in ledger_spec.items():
            before, after = la.get(name, 0.0), lb.get(name, 0.0)
            if before == after == 0:
                continue
            note = ""
            if name in exact and before != after:
                note = "  BREACH (must repeat exactly)"
                breaches.append(f"{workload}: {name} {before:g} -> {after:g}")
            change = worse_by(before, after, "lower")
            print(f"  {name:<46}{before:>12.6g} -> {after:>12.6g}  "
                  f"{change:+7.1%} {spec_['unit']}{note}")
    return breaches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--exact-counts", action="store_true",
                        help="count-pass ledger lines must be equal")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    breaches = compare(load(args.a), load(args.b), benchmark, args.exact_counts)
    if breaches:
        print("\nBREACHES:")
        for breach in breaches:
            print(f"  {breach}")
        return 1
    print("\nwithin bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
