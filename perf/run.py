#!/usr/bin/env python3
"""The benchmark's one command.

    python3 perf/run.py                      all four workloads, end to end
    python3 perf/run.py --traced             all four, per-layer ledger
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
                                             one workload; the last line
                                             of stdout is the result JSON
    python3 perf/run.py --repeat-check       two full sets, compared
    python3 perf/run.py --selftest           tiny scales, < 20 s
    python3 perf/run.py --pin                rewrite expected.json

One run of one workload is three kinds of process, one after another:
a **generator child** (``inputs.py``) that turns the seed into image
blobs and expected digests under ``perf/out/tmp/``; ``P`` **measuring
children** (``measure.py``) whose samples are pooled; and this parent,
which times nothing and only merges what the children wrote.
The scripts and sizes are constants in ``workloads.py``; ``--seconds``
only decides how many whole rounds of its script a child plays,
between ``MIN_ROUNDS`` and R — a position's time is a median, so the
number of rounds changes how steady a number is, not what it
estimates, and a host at half speed plays fewer rounds instead of
overrunning the driver's schedule.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
OUT = os.path.join(PERF, "out")
# Bytecode goes under perf/out, never beside the tracked sources.
sys.pycache_prefix = os.path.join(OUT, "pycache")
sys.path[:0] = [PERF, os.path.join(ROOT, "src")]

import provenance  # noqa: E402
from stats import best_cpu_seconds, gauges, metric_seconds  # noqa: E402

#: One run — generator child and measuring children together — must
#: end within the driver's 180 s; the slowest (a traced edit-replay)
#: takes ~50 s on a quiet host.
RUN_TIMEOUT_S = 175

#: End-to-end metrics, in report order, with their units.
END_TO_END = (
    ("setup_s", "s"), ("op_s", "s"), ("alt_op_s", "s"), ("peak_rss_mb", "MB"),
)
TIMES = ("setup_s", "op_s", "alt_op_s")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> dict:
    """The children's environment: fixed hash seed, no ``REPRO_*``
    knob inherited, bytecode cached under ``perf/out`` (never beside
    the tracked sources)."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONDONTWRITEBYTECODE"
    }
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONPYCACHEPREFIX=sys.pycache_prefix,
    )
    return env


def aslr_prefix() -> list:
    """``setarch -R`` when the host lets us turn address randomization
    off for the measuring children (it narrows run-to-run spread)."""
    for prefix in (["setarch", "-R"], ["setarch", os.uname().machine, "-R"]):
        try:
            done = subprocess.run(
                prefix + ["true"], capture_output=True, timeout=20
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if done.returncode == 0:
            return prefix
    return []


def spawn(command: list, what: str, give_up_at: float) -> None:
    """Run one child to completion (killed and reaped at ``give_up_at``
    on the monotonic clock or on any exception, so no process outlives
    this one)."""
    try:
        done = subprocess.run(
            command, env=child_env(), cwd=ROOT, capture_output=True,
            text=True, timeout=max(1.0, give_up_at - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what}: the run exceeded {RUN_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise BenchError(
            f"{what} exited with code {done.returncode}:\n"
            + done.stderr[-2000:]
        )


def run_workload(workload: str, seed: int, traced: bool, seconds: float) -> dict:
    """Generate, measure and merge one workload; returns its result.

    ``seconds`` (the driver's ``--seconds``) is shared out among the
    measuring children: past its share a child stops after the round
    it is in (but plays ``MIN_ROUNDS`` whatever happens).
    """
    give_up_at = time.monotonic() + RUN_TIMEOUT_S
    started = provenance.collect(seed)
    run_dir = os.path.join(OUT, "tmp", f"{os.getpid()}-{workload}")
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs_dir = os.path.join(run_dir, "inputs")
    os.makedirs(inputs_dir)
    python = [sys.executable]
    try:
        spawn(
            python + [os.path.join(PERF, "inputs.py"), "--workload", workload,
                      "--seed", str(seed), "--out", inputs_dir],
            f"{workload}: input generation", give_up_at,
        )
        with open(os.path.join(inputs_dir, "manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)

        measure = aslr_prefix() + python + [
            os.path.join(PERF, "measure.py"), "--inputs", inputs_dir,
            "--scratch", os.path.join(run_dir, "work"),
        ]
        if traced:
            os.makedirs(OUT, exist_ok=True)
            processes, rounds = 1, W.TRACED_ROUNDS
            measure += ["--traced", "--trace-out",
                        os.path.join(OUT, f"{workload}.trace.json")]
        else:
            processes, rounds = W.P, W.ROUNDS[workload]
        measure += ["--rounds", str(rounds), "--budget-s", str(seconds / processes)]
        children = []
        for index in range(processes):
            out = os.path.join(run_dir, f"child{index}.json")
            spawn(measure + ["--out", out],
                  f"{workload}: measuring child {index}", give_up_at)
            with open(out, encoding="utf-8") as handle:
                children.append(json.load(handle))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return merge(workload, manifest, children, started, seconds)


def merge(workload, manifest, children, started, seconds) -> dict:
    """Pool the measuring children of one run into one result."""
    provenance.check_same([child["provenance"] for child in children])
    if children[0]["provenance"]["seed"] != manifest["seed"]:
        raise BenchError("measuring child and manifest disagree on the seed")

    #: ``{metric: {position: samples}}`` over all children.
    pooled = {}
    for child in children:
        for metric, by_position in child["samples"].items():
            for position, samples in by_position.items():
                pooled.setdefault(metric, {}).setdefault(position, []).extend(samples)
    for metric in TIMES:
        by_position = pooled.get(metric, {})
        if not by_position or not all(by_position.values()):
            raise BenchError(
                f"{workload}: a position of {metric} has no successful "
                "sample; failures: " + "; ".join(children[0]["failures"][:3])
            )

    end_to_end = {
        metric: {"value": metric_seconds(pooled[metric]), "unit": "s"}
        for metric in TIMES
    }
    end_to_end["peak_rss_mb"] = {
        "value": max(child["peak_rss_mb"] for child in children), "unit": "MB",
    }
    result = {
        "workload": workload,
        "end_to_end": end_to_end,
        # Timed and verified like the rest, but held to no bound (the
        # family-store publish; see workloads.py).
        "ungated_s": {
            metric: metric_seconds(by_position)
            for metric, by_position in pooled.items() if metric not in end_to_end
        },
        # The same metrics as plain best-of-R CPU seconds, for the record.
        "best_cpu_s": {
            metric: best_cpu_seconds(by_position)
            for metric, by_position in pooled.items()
        },
        "gauges": dict(
            gauges({
                (metric, position): samples
                for metric, by_position in pooled.items()
                for position, samples in by_position.items()
            }),
            **{"perf.inputs_gen_s": manifest["inputs_gen_s"]},
        ),
        "ops_attempted": sum(child["ops_attempted"] for child in children),
        "ops_failed": sum(child["ops_failed"] for child in children),
        "failures": [f for child in children for f in child["failures"]][:10],
        # Each child's own numbers: when they disagree, process-level
        # luck (heap layout, page placement) outweighs sample noise.
        "per_child": [
            {
                metric: metric_seconds(by_position)
                for metric, by_position in child["samples"].items()
            }
            for child in children
        ],
        "samples_per_position": {
            metric: {position: len(samples) for position, samples in by.items()}
            for metric, by in pooled.items()
        },
        "inputs": {
            key: manifest[key]
            for key in ("seed", "images", "sizes", "script", "expected_from")
        },
        "provenance": dict(
            provenance.finish(started),
            seconds_argument=seconds,
            rounds=[child["rounds"] for child in children],
            children=len(children),
            aslr_disabled=[c["provenance"]["aslr_disabled"] for c in children],
            scratch_filesystem=children[0]["provenance"]["scratch_filesystem"],
            child_loadavg=[
                [c["provenance"]["loadavg_before"], c["provenance"]["loadavg_after"]]
                for c in children
            ],
        ),
    }
    if "ledger" in children[0]:
        result["ledger"] = children[0]["ledger"]["values"]
        result["contrast"] = children[0]["ledger"]["contrast"]
    return result


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def driver_line(result: dict, traced: bool, benchmark: dict) -> str:
    """The contract's last line of stdout."""
    if traced:
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        metrics = {
            name: {"value": result["ledger"][name], "unit": unit}
            for name, unit in units.items()
        }
    else:
        metrics = result["end_to_end"]
    return json.dumps({
        "correct": result["ops_failed"] == 0,
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": metrics,
    })


def print_result(result: dict) -> None:
    print(f"== {result['workload']}  (seed {result['inputs']['seed']}, "
          f"expected from {result['inputs']['expected_from']})")
    print(f"  ops_attempted {result['ops_attempted']:>12d}")
    print(f"  ops_failed    {result['ops_failed']:>12d}")
    for failure in result["failures"][:3]:
        print(f"  FAILED: {failure}")
    readings = result["gauges"]
    if readings["perf.wall_over_cpu"] > 1.10 or readings["perf.host_speed"] < 0.8:
        print(f"  WARNING: wall/CPU = {readings['perf.wall_over_cpu']:.2f}, host "
              f"speed = {readings['perf.host_speed']:.2f} of the reference — the "
              "host was contended; calibrated CPU times resist this, wall "
              "lines do not")
    if "ledger" not in result:
        for metric, entry in result["end_to_end"].items():
            print(f"  {metric:<14}{entry['value']:>12.4f} {entry['unit']}")
        for metric, value in result["ungated_s"].items():
            print(f"  {metric:<14}{value:>12.4f} s  (un-gated)")
        print("  best-of-R CPU s, uncalibrated: " + "  ".join(
            f"{metric}={value:.4f}" for metric, value in result["best_cpu_s"].items()
        ))
        print("  gauges: " + "  ".join(
            f"{name}={value:.4g}" for name, value in readings.items()
        ))
        return
    # A traced run's end-to-end numbers are not the benchmark's: one
    # process, three rounds, and a count pass that inflates the RSS.
    for name, value in result["ledger"].items():
        print(f"  {name:<46}{value:>14.6g}")
    for position, shares in result["contrast"].items():
        print(f"  contrast[{position}]: " + "  ".join(
            f"{key}={value:.3f}" for key, value in shares.items()
        ))


def write_result(path: str, results: list, traced: bool) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "traced": traced,
                "workloads": {result["workload"]: result for result in results},
            },
            handle, indent=1,
        )


def run_set(seed: int, traced: bool, path: str, seconds: float) -> list:
    results = []
    for workload in W.WORKLOADS:
        result = run_workload(workload, seed, traced, seconds)
        print_result(result)
        results.append(result)
    write_result(path, results, traced)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return results


def repeat_check(seed: int, seconds: float) -> int:
    """Two full sets (end to end + traced) of the same code, back to
    back, held to the benchmark's own bounds."""
    import compare

    paths = []
    for label in ("a", "b"):
        plain = run_set(seed, False, os.path.join(OUT, f"repeat-{label}.json"), seconds)
        traced = run_set(
            seed, True, os.path.join(OUT, f"repeat-{label}-traced.json"), seconds
        )
        for result, with_ledger in zip(plain, traced):
            result["ledger"] = with_ledger["ledger"]
        path = os.path.join(OUT, f"repeat-{label}.json")
        write_result(path, plain, True)
        paths.append(path)
    return compare.main(paths + ["--exact-counts"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time: decides how many rounds are played "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--out", help="result file (default under perf/out/)")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perf/run.py: no src/repro beside perf/ — nothing to measure",
              file=sys.stderr)
        return 2
    global W
    import workloads as W

    if args.workload is not None and args.workload not in W.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(W.WORKLOADS)}")
    # A terminated parent must still reap the child it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    traced = bool(args.trace or args.traced)
    seconds = args.seconds or load_benchmark_json()["run_seconds"]
    try:
        if args.selftest or args.pin:
            script = "selftest.py" if args.selftest else "inputs.py"
            done = subprocess.run(
                [sys.executable, os.path.join(PERF, script)]
                + (["--pin"] if args.pin else []),
                env=child_env(), cwd=ROOT, timeout=RUN_TIMEOUT_S * 4,
            )
            return done.returncode
        if args.repeat_check:
            return repeat_check(args.seed, seconds)
        default = os.path.join(OUT, "result-traced.json" if traced else "result.json")
        if args.workload is None:
            results = run_set(args.seed, traced, args.out or default, seconds)
            return 0 if all(r["ops_failed"] == 0 for r in results) else 1
        result = run_workload(args.workload, args.seed, traced, seconds)
        print_result(result)
        if args.out:
            write_result(args.out, [result], traced)
        print(driver_line(result, traced, load_benchmark_json()))
        return 0
    except (BenchError, ValueError) as error:
        print(f"perf/run.py: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
