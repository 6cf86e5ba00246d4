#!/usr/bin/env python3
"""``run.py --selftest``: the benchmark checks itself, at tiny scales.

In one process and well under 20 s: every workload's script for two
rounds, a traced run and two count passes; the shapes of the results
and of ``BENCHMARK.json``; the tracer's self-time algebra; seeded
input determinism; and the failure accounting — a corrupted expected
digest must surface as a failed op with no timing sample.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import sys
import time

import calibrate
import compare
import inputs as gen
import ledger
import measure
import provenance
import run
import workloads as W
from repro.program.rewrite import program_to_image
from trace import Tracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

CHECKS = []


def check(label: str, ok: bool, detail: str = "") -> None:
    CHECKS.append((label, bool(ok), detail))
    print(f"  {'ok  ' if ok else 'FAIL'} {label}" + (f": {detail}" if detail and not ok else ""))


def check_benchmark_json() -> dict:
    benchmark = run.load_benchmark_json()
    check("BENCHMARK.json has exactly the contract's keys", set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    })
    check("command and paths", benchmark["command"] == ["python3", "perf/run.py"]
          and benchmark["paths"] == ["perf"])
    check("run_seconds is a whole number in 1..60",
          isinstance(benchmark["run_seconds"], int)
          and 1 <= benchmark["run_seconds"] <= 60)
    check("workloads are the four scripts, each with its why",
          [(w["name"], w["why"]) for w in benchmark["workloads"]]
          == [(name, W.WHY[name]) for name in W.WORKLOADS]
          and all(set(w) == {"name", "why"} and len(w["why"]) <= 200
                  and "\n" not in w["why"] for w in benchmark["workloads"]))
    end_to_end = benchmark["end_to_end"]
    check("end_to_end names, units, directions, bounds",
          [(m["name"], m["unit"]) for m in end_to_end] == list(run.END_TO_END)
          and all(set(m) == {"name", "unit", "better", "bound"}
                  and m["better"] == "lower" and 0 < m["bound"] <= 0.25
                  for m in end_to_end))
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    check("setup_s has the largest bound",
          setup["bound"] == max(m["bound"] for m in end_to_end))
    check("per_layer is exactly ledger.LEDGER",
          [(m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]]
          == list(ledger.LEDGER)
          and all(set(m) == {"name", "unit", "better"} for m in benchmark["per_layer"]))
    names = [m["name"] for m in end_to_end + benchmark["per_layer"]] \
        + [w["name"] for w in benchmark["workloads"]]
    check("every name and unit is well formed and used once",
          all(NAME.match(name) for name in names) and len(set(names)) == len(names)
          and all(UNIT.match(m["unit"]) for m in end_to_end + benchmark["per_layer"]))
    return benchmark


def check_tracer_algebra() -> None:
    """a[0..10] > b[1..4] > c[2..3], and a > d[5..9]: self times are
    a = 10 - 3 - 4 = 3, b = 3 - 1 = 2, c = 1, d = 4."""
    ticks = iter([0, 1, 2, 3, 4, 5, 9, 10])
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.op_id = "1:x"
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
        with tracer.span("d"):
            pass
    selfs = {name: seconds for name, _op, seconds in tracer.self_times()}
    check("tracer self time = duration - children",
          selfs == {"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0}, str(selfs))
    check("self times sum to the root's duration", sum(selfs.values()) == 10.0)
    check("parents and op ids are recorded",
          [record[3] for record in tracer.records] == [-1, 0, 1, 0]
          and {record[4] for record in tracer.records} == {"1:x"})


def check_determinism() -> None:
    """Same seed => same digests; different seed => different.

    At 38 routines, not the tiny scale: with ten routines the seeded
    perturbations land on dead registers and every seed's summaries
    are equal.
    """
    def digests(seed: int):
        program = gen.gcc_program(random.Random(seed), scale=0.02)
        return (gen.digest(program_to_image(program).to_bytes()),
                gen.expected_outputs({"gcc": (program, None)}, gen.Oracle())["gcc"])

    first, again, other = digests(11), digests(11), digests(12)
    check("same seed, same image and output digests", first == again)
    check("different seed, different image and different outputs",
          first[0] != other[0] and first[1] != other[1])


def fake_child(harness, seed: int, ledger_block=None) -> dict:
    child = {
        "workload": harness.inputs.workload,
        "rounds": 2,
        "samples": measure.samples_json(harness),
        "ops_attempted": harness.attempted,
        "ops_failed": harness.failed,
        "failures": harness.failures,
        "peak_rss_mb": measure.peak_rss_mb(),
        "provenance": dict(provenance.finish(provenance.collect(seed)),
                           scratch_filesystem="selftest"),
    }
    if ledger_block is not None:
        child["ledger"] = ledger_block
    return child


def check_workload(workload: str, scratch: str, benchmark: dict) -> None:
    began = time.perf_counter()
    seed = 5
    directory = os.path.join(scratch, workload)
    manifest = gen.generate(workload, seed, directory, tiny=True)
    check(f"{workload}: tiny inputs come from the oracle",
          manifest["expected_from"] == "baseline-oracle")
    inputs = measure.Inputs(directory)
    work = os.path.join(scratch, "work")

    harness = measure.run_timed(inputs, work, rounds=2)
    check(f"{workload}: every op verified, none failed",
          harness.failed == 0 and harness.attempted > 0, str(harness.failures[:2]))
    started = provenance.collect(seed)
    result = run.merge(workload, manifest, [fake_child(harness, seed)] * 2, started, None)
    line = json.loads(run.driver_line(result, False, benchmark))
    check(f"{workload}: end-to-end result line has the contract's shape",
          set(line) == {"correct", "attempted", "failed", "metrics"}
          and line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
          and set(line["metrics"]) == {name for name, _unit in run.END_TO_END}
          and all(entry["value"] > 0 for entry in line["metrics"].values()))

    plain, block = ledger.run_traced(inputs, work, rounds=2)
    check(f"{workload}: traced run verified every op", plain.failed == 0,
          str(plain.failures[:2]))
    traced_result = run.merge(
        workload, manifest, [fake_child(plain, seed, block)], started, None
    )
    line = json.loads(run.driver_line(traced_result, True, benchmark))
    check(f"{workload}: traced result line carries every ledger metric",
          set(line["metrics"]) == {name for name, _u, _b in ledger.LEDGER})
    values = block["values"]
    expect_nonzero = {
        "cold-analyze": ("cfg.build.self_s", "psg.build.self_s", "interproc.phase1.self_s",
                         "interproc.phase1.iterations", "cfg.build.calls", "psg.build.nodes",
                         "interproc.results.to_json_s", "program.disasm.instructions"),
        "edit-replay": ("interproc.incremental.self_s", "interproc.persist.load_cache_s",
                        "interproc.persist.dump_cache_s", "interproc.incremental.dirty_routines",
                        "interproc.incremental.reused_share", "cfg.build.calls"),
        "query-cone": ("interproc.demand.self_s", "interproc.demand.phase2_cone_routines",
                       "interproc.demand.solved"),
        "family-store": ("interproc.store.hits", "interproc.store.writes",
                         "interproc.store.files", "interproc.store.bytes",
                         "interproc.store.hit_share", "interproc.incremental.self_s"),
    }[workload]
    check(f"{workload}: its own layers are on the ledger",
          all(values[name] > 0 for name in expect_nonzero),
          str({name: values[name] for name in expect_nonzero if not values[name] > 0}))
    if workload != "family-store":
        check(f"{workload}: the store is off",
              values["interproc.store.hits"] + values["interproc.store.misses"]
              + values["interproc.store.writes"] == 0)

    # The traced run ended with one count pass; a second must agree.
    _harness, again = ledger.count_pass(W.SCRIPTS[workload], inputs, work)
    differing = {name: (values[name], again[name])
                 for name in compare.exact_lines(benchmark)
                 if name in again and values[name] != again[name]}
    check(f"{workload}: the count pass repeats exactly", not differing, str(differing))

    # A wrong expected digest must be counted, and must leave no sample.
    position = next(iter(inputs.expected))
    inputs.expected[position] = "0" * 16
    harness = measure.run_timed(inputs, work, rounds=1)
    metric = harness._metric_of[position]
    check(f"{workload}: a corrupted digest is a failed op without a sample",
          harness.failed == 1 and not harness.samples[(metric, position)],
          f"failed={harness.failed}")
    print(f"  ({workload}: {time.perf_counter() - began:.1f} s)")


def check_kernel() -> None:
    """The real kernel, once; every op below is flanked by a stand-in,
    because at tiny scales the 2 x 16 ms of kernel around each
    millisecond-long op would be most of the self-test."""
    seconds = calibrate.kernel()
    check("the calibration kernel reads within 3x of its reference",
          calibrate.KERNEL_REF_S / 3 < seconds < calibrate.KERNEL_REF_S * 3,
          f"{seconds:.4f} s against {calibrate.KERNEL_REF_S} s")
    measure.kernel = lambda: calibrate.KERNEL_REF_S


def main() -> int:
    started = time.perf_counter()
    scratch = os.path.join(run.OUT, "tmp", f"selftest-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        benchmark = check_benchmark_json()
        check_tracer_algebra()
        check_determinism()
        check_kernel()
        for workload in W.WORKLOADS:
            check_workload(workload, scratch, benchmark)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = [label for label, ok, _detail in CHECKS if not ok]
    elapsed = time.perf_counter() - started
    print(f"{len(CHECKS) - len(failed)}/{len(CHECKS)} checks passed "
          f"in {elapsed:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
