#!/usr/bin/env python
"""End-to-end smoke test of the cold path: one-sweep labeling vs its oracle.

Drives the CLI as real subprocesses:

1. generate a Table-2 image;
2. ``analyze --json --save-summaries`` it with the default labeling
   (``batched``: one successors-first sweep per routine labels every
   target at once);
3. the same with ``--labeling per-target`` (one Figure-6 solve per
   target — the reference the sweep must reproduce);
4. ``query f0 --stats`` then ``query f0 --json`` on the same image: a
   cold demand query, then a warm one answered from the sidecar.

Fails unless the two saved summaries are byte-identical, ``psg_edges``
and both phases' ``solver.iterations`` counters are equal (equal
iteration counts mean the edges came out in the same *order*), and the
default run's ``psg.label.visits`` is present and at most 3.5x the
image's basic blocks — a per-target solve or a source x target scan
creeping back shows there as a count, on any host.  The warm query
must report ``phase2_solved == 0``: the cone-scoped solves and the
sidecar they memoize into compose end to end.

Usage::

    PYTHONPATH=src python tools/cold_smoke.py [--benchmark gcc]
        [--scale 0.1]

Exits non-zero with a one-line reason on any violation, so CI can run
it as a single step.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import List

from repro.cfg.build import build_all_cfgs
from repro.program.disasm import disassemble_image
from repro.program.image import ExecutableImage

#: Work bound: map entries the sweep may write per basic block.
VISITS_PER_BLOCK = 3.5

EQUAL_KEYS = (
    "solver.iterations{phase=phase1}",
    "solver.iterations{phase=phase2}",
)


def fail(message: str) -> None:
    print(f"cold-path smoke FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def cli(*args: str) -> str:
    """Run ``spike-analyze`` with ``args``; its stdout, or exit."""
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        fail(f"spike-analyze {' '.join(args)} exited {done.returncode}: "
             f"{done.stderr.strip()}")
    return done.stdout


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--benchmark", default="gcc",
        help="Table-2 shape to generate (default: gcc)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="shape scale factor (default: 0.1)",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="cold-smoke-") as tmp:
        image = os.path.join(tmp, "image.sax")
        sweep_sum = os.path.join(tmp, "sweep.sum")
        oracle_sum = os.path.join(tmp, "oracle.sum")

        cli("generate", args.benchmark, "--scale", str(args.scale), "-o", image)
        sweep = json.loads(
            cli("analyze", image, "--json", "--save-summaries", sweep_sum)
        )
        oracle = json.loads(
            cli("analyze", image, "--labeling", "per-target", "--json",
                "--save-summaries", oracle_sum)
        )

        with open(sweep_sum, "rb") as one, open(oracle_sum, "rb") as other:
            if one.read() != other.read():
                fail("the default labeling's summaries differ from "
                     "--labeling per-target's")
        if sweep["psg_edges"] != oracle["psg_edges"]:
            fail(f"psg_edges {sweep['psg_edges']} != {oracle['psg_edges']}")
        for key in EQUAL_KEYS:
            one, other = sweep["counters"].get(key), oracle["counters"].get(key)
            if one is None or one != other:
                fail(f"{key}: {one} (default) != {other} (per-target): the "
                     f"edges are not in the same order")

        with open(image, "rb") as handle:
            program = disassemble_image(ExecutableImage.from_bytes(handle.read()))
        blocks = sum(cfg.block_count for cfg in build_all_cfgs(program).values())
        visits = sweep["counters"].get("psg.label.visits")
        if visits is None:
            fail("the default run reported no psg.label.visits: the sweep "
                 "did not label it")
        if visits > VISITS_PER_BLOCK * blocks:
            fail(f"psg.label.visits {visits} > {VISITS_PER_BLOCK} x "
                 f"{blocks} basic blocks")
        if "psg.label.visits" in oracle["counters"]:
            fail("--labeling per-target ran the sweep")

        cli("query", image, "f0", "--stats")
        warm = json.loads(cli("query", image, "f0", "--json"))
        if warm["phase2_solved"] != 0:
            fail(f"the repeated query re-solved: phase2_solved "
                 f"{warm['phase2_solved']}")
        print(
            f"{sweep['routines']} routines, {blocks} blocks, "
            f"{sweep['psg_edges']} PSG edges: summaries byte-identical, "
            f"iterations {[sweep['counters'][key] for key in EQUAL_KEYS]} "
            f"equal, {visits} label visits "
            f"({visits / blocks:.2f} per block); warm query solved nothing"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
