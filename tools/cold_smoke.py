#!/usr/bin/env python
"""End-to-end smoke test of the cold path: the CLI against the oracle.

Drives the CLI as real subprocesses:

1. generate a Table-2 image;
2. ``analyze --json --save-summaries`` it: one walk per routine writes
   its CFG's block rows, one successors-first sweep per routine labels
   every target at once, each block holding one 64-bit lane per target
   it reaches;
3. ``analyze --dot`` it again: the run keeps no graph, so the PSG the
   DOT export reads is solved again on request;
4. ``query f0 --stats`` then ``query f0 --json`` on the same image: a
   cold demand query, then a warm one answered from the sidecar.

In process, the same image is analyzed with the test suite's per-target
labeling oracle patched in (``tests/label_oracle.py``: one Figure-6
solve per target over block records — the reference the sweep must
reproduce).

Fails unless the CLI's saved summaries are byte-identical to the
oracle run's, ``psg_edges`` and both phases' ``solver.iterations``
counters are equal (equal iteration counts mean the edges came out in
the same *order*), the CLI run's ``psg.label.visits`` is present and at
most 3.5x the image's basic blocks — a per-target solve or a source x
target scan creeping back shows there as a count, on any host — its
phase-1 ``solver.iterations`` is below twice its ``psg_nodes`` (one
worklist visit updates all three Figure-8 sets, so a solve that visits
each node once per set shows as a count too), its
``psg.label.region_blocks`` is present and below the block count (SCC
work stays inside back-arc regions), and its ``frontend.rows`` counter
equals the routine count: the front end walked every routine's
instruction rows once, and rendering ``--json`` solved no graph again.
The ``--dot`` file must equal :func:`~repro.reporting.dot.psg_to_dot`
of an in-process analysis's PSG, solved again the same way.  The CLI
run's own counters, which take in its session's open, must count
``program.decode`` ``forms <= distinct <= words == instructions``: the
text decoded once, ``decode_row`` cutting each form only.  The cold
query must report
``psg.builds + psg.partial_builds <= 2`` (its needed components solve
as one region per phase, not one graph per component), and the warm
one ``phase2_solved == 0``: the cone-scoped solves and the sidecar they
memoize into compose end to end.

Usage::

    PYTHONPATH=src python tools/cold_smoke.py [--benchmark gcc]
        [--scale 0.1]

CI runs it twice: on the default gcc ×0.1 image, and on acad ×0.03,
whose small routines are where the lanes only break even with the
dict-per-block sweep they replaced.

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
from typing import Dict, List

from repro.api import AnalysisConfig, AnalysisSession
from repro.interproc.persist import dump_summaries, image_fingerprint
from repro.obs.metrics import REGISTRY
from repro.reporting.dot import psg_to_dot

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.label_oracle import labeling  # noqa: E402

#: Work bound: target lanes the sweep may write per basic block.
VISITS_PER_BLOCK = 3.5

#: Work bound: phase-1 worklist visits per PSG node (exclusive).
PHASE1_VISITS_PER_NODE = 2

EQUAL_KEYS = (
    "solver.iterations{phase=phase1}",
    "solver.iterations{phase=phase2}",
)


#: PSGs a cold query may build: one region per phase.
MAX_QUERY_GRAPHS = 2


def stats_counters(text: str) -> Dict[str, int]:
    """The counter block of a ``--stats`` report, by name."""
    block = text.split("\ncounters:\n", 1)[1]
    counters = {}
    for line in block.splitlines():
        if not line.startswith("  "):
            break
        name, value = line.split()
        counters[name] = int(value.replace(",", ""))
    return counters


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
        saved = os.path.join(tmp, "sweep.sum")

        cli("generate", args.benchmark, "--scale", str(args.scale), "-o", image)
        sweep = json.loads(cli("analyze", image, "--json", "--save-summaries", saved))

        with open(image, "rb") as handle:
            blob = handle.read()
        before = REGISTRY.snapshot()
        with labeling("per-target"):
            oracle = AnalysisSession.from_image_bytes(
                blob, AnalysisConfig(store="off")
            ).analyze()
        oracle_counters = REGISTRY.delta_since(before)

        with open(saved, "rb") as handle:
            if handle.read() != dump_summaries(oracle.result, image_fingerprint(blob)):
                fail("the CLI's summaries differ from the per-target oracle's")
        if sweep["psg_edges"] != oracle.psg_edge_count:
            fail(f"psg_edges {sweep['psg_edges']} != {oracle.psg_edge_count}")
        counters = sweep["counters"]
        for key in EQUAL_KEYS:
            one, other = counters.get(key), oracle_counters.get(key)
            if one is None or one != other:
                fail(f"{key}: {one} (CLI) != {other} (oracle): the edges are "
                     f"not in the same order")

        routines = sweep["routines"]
        if counters.get("frontend.rows") != routines:
            fail(f"the cold run walked {counters.get('frontend.rows')} "
                 f"routines, not {routines}")
        # The session's first run counts the open it rests on.
        decoded = [
            counters.get(f"program.decode.{key}")
            for key in ("forms", "distinct", "words")
        ]
        instructions = oracle.program.instruction_count
        if None in decoded or not (
            decoded[0] <= decoded[1] <= decoded[2] == instructions
        ):
            fail(f"program.decode forms, distinct, words {decoded}: not "
                 f"forms <= distinct <= words == {instructions} instructions")
        blocks = oracle.basic_block_count
        visits = counters.get("psg.label.visits")
        if visits is None:
            fail("the CLI run reported no psg.label.visits: the sweep did "
                 "not label it")
        if visits > VISITS_PER_BLOCK * blocks:
            fail(f"psg.label.visits {visits} > {VISITS_PER_BLOCK} x "
                 f"{blocks} basic blocks")
        phase1 = counters["solver.iterations{phase=phase1}"]
        nodes = sweep["psg_nodes"]
        if not phase1 < PHASE1_VISITS_PER_NODE * nodes:
            fail(f"solver.iterations{{phase=phase1}} {phase1}: not below "
                 f"{PHASE1_VISITS_PER_NODE} x {nodes} PSG nodes")
        region_blocks = counters.get("psg.label.region_blocks")
        if region_blocks is None or not region_blocks < blocks:
            fail(f"psg.label.region_blocks {region_blocks}: not present "
                 f"and below the image's {blocks} basic blocks")

        dot = os.path.join(tmp, "psg.dot")
        cli("analyze", image, "--dot", dot)
        rederived = AnalysisSession.from_image_bytes(
            blob, AnalysisConfig(store="off")
        ).analyze().psg
        with open(dot, encoding="utf-8") as handle:
            if handle.read() != psg_to_dot(rederived):
                fail("the CLI's --dot differs from the in-process PSG")

        cold = stats_counters(cli("query", image, "f0", "--stats"))
        graphs = cold.get("psg.builds", 0) + cold.get("psg.partial_builds", 0)
        if graphs > MAX_QUERY_GRAPHS:
            fail(f"the cold query built {graphs} PSGs, not at most "
                 f"{MAX_QUERY_GRAPHS}: its needed components were not "
                 f"solved as one region per phase")
        warm = json.loads(cli("query", image, "f0", "--json"))
        if warm["phase2_solved"] != 0:
            fail(f"the repeated query re-solved: phase2_solved "
                 f"{warm['phase2_solved']}")
        print(
            f"{routines} routines walked, {decoded[0]} forms of "
            f"{decoded[1]} distinct words decoded, "
            f"{blocks} blocks, {sweep['psg_edges']} PSG edges: summaries "
            f"byte-identical to the per-target oracle, iterations "
            f"{[counters[key] for key in EQUAL_KEYS]} equal, {visits} label "
            f"visits ({visits / blocks:.2f} per block), {phase1} phase-1 "
            f"visits ({phase1 / nodes:.2f} per node), {region_blocks} "
            f"blocks in back-arc regions; --dot equals the PSG solved "
            f"again in process; cold query built {graphs} PSGs, "
            f"warm query solved nothing"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
