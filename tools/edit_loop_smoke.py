#!/usr/bin/env python
"""End-to-end smoke test of the edit loop: ``analyze --incremental``.

Drives the CLI as real subprocesses, the way Spike's optimize / edit /
re-optimize loop would:

1. generate a Table-2 image and analyze it cold with
   ``--incremental --cache`` (this writes the sidecar, front-end
   records included);
2. apply one :func:`repro.workloads.mutate.perturb_routine` edit and
   analyze the edited image warm against that sidecar with ``--json``;
3. analyze the edited image cold, without any cache;
4. query one routine of the base image against a copy of the first
   run's sidecar (``query`` writes its memo back), edit a routine outside
   that query's cones whose triple moves, and analyze the edited image
   with ``--incremental`` against the query's memo;
5. ``optimize`` the base image and analyze the optimized image with
   ``--incremental`` against another copy of the first run's sidecar.

Fails unless the warm run says its cache was warm, walked no routine
but the edited ones (``cfgs_built`` in the payload: the front-end
records give the call graph, and the sidecar's PSG fragments stand in
for the CFG of every other routine it re-solves — at least one, counted
``cache.fragment.hit``), decoded fewer summary bodies than the program
has routines (``cache.body.decoded``), and saved summaries
byte-identical to the cold run's; and unless the run on the query's
memo is warm, reuses some routine, and saves summaries byte-identical
to a cold run of its image; and unless the run on the optimized image
is warm and saves summaries byte-identical to a cold run of it.  Each
of those three warm runs must build at most one PSG — an incremental run
appends every region it solves to one graph — with no more routine
nodes (``psg.nodes`` less ``psg.stubs`` in its ``--json`` counters)
than the first, cold run's ``psg.nodes``.

Usage::

    PYTHONPATH=src python tools/edit_loop_smoke.py [--benchmark gcc]
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

import shutil

from repro.api import AnalysisConfig, AnalysisSession
from repro.interproc.frontend import build_frontend
from repro.program.disasm import disassemble_image
from repro.program.image import ExecutableImage
from repro.program.model import Program
from repro.program.rewrite import program_to_image
from repro.workloads.mutate import (
    editable_routines,
    first_editable_routine,
    perturb_routine,
)


def fail(message: str) -> None:
    print(f"edit-loop smoke FAILED: {message}", file=sys.stderr)
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


def triple(summary):
    return (
        summary.call_used_mask, summary.call_defined_mask,
        summary.call_killed_mask,
    )


def one_graph(what: str, warm: dict, cold_nodes: int) -> None:
    """Fail unless the run ``warm`` built at most one PSG, whose
    routines' nodes — its nodes less its stubs, the pinned entries of
    callees outside it — are at most ``cold_nodes``."""
    counters = warm["counters"]
    graphs = counters.get("psg.builds", 0) + counters.get("psg.partial_builds", 0)
    nodes = counters.get("psg.nodes", 0) - counters.get("psg.stubs", 0)
    if graphs > 1:
        fail(f"{what} built {graphs} PSGs")
    if nodes > cold_nodes:
        fail(f"{what} built {nodes} routine PSG nodes, the cold run {cold_nodes}")


def same_bytes(one: str, other: str) -> bool:
    with open(one, "rb") as first, open(other, "rb") as second:
        return first.read() == second.read()


def query_then_edit(
    tmp: str, base: str, program: Program, memo: str, cold_nodes: int
) -> None:
    """Step 4: a full run on a query's memo, after an edit outside the
    query's cones that moves a triple."""
    condensation = build_frontend(program).condensation

    def cones(name: str):
        callers = condensation.transitive_caller_components(
            {condensation.component_index(name)}
        )
        return condensation.routines_of(
            callers | condensation.transitive_callee_components(callers)
        )

    routine = min(program.routine_names(), key=lambda name: len(cones(name)))
    off = AnalysisConfig(store="off")
    before = AnalysisSession.from_program(program, off).analyze().result
    for victim in editable_routines(program):
        if victim in cones(routine):
            continue
        edited_program = perturb_routine(program, victim)
        after = AnalysisSession.from_program(edited_program, off).analyze().result
        if triple(after[victim]) != triple(before[victim]):
            break
    else:
        fail(f"no edit outside the cones of {routine} moves a triple")
    cli("query", base, routine, "--cache", memo, "--json")
    edited = os.path.join(tmp, "edited-outside.sax")
    with open(edited, "wb") as handle:
        handle.write(program_to_image(edited_program).to_bytes())
    warm_sum = os.path.join(tmp, "memo-warm.sum")
    cold_sum = os.path.join(tmp, "memo-cold.sum")
    warm = json.loads(
        cli(
            "analyze", edited, "--incremental", "--cache", memo,
            "--json", "--save-summaries", warm_sum,
        )
    )
    print(
        f"query {routine}, then edited {victim} outside its cones: "
        f"{warm['phase2_solved']} routines re-solved"
    )
    if not warm["cache"].startswith("warm"):
        fail(f"the run on the query's memo was not warm: {warm['cache']}")
    if victim not in warm["dirty_routines"]:
        fail(f"the edit of {victim} went unnoticed on the query's memo")
    if warm["phase2_solved"] >= warm["routines"]:
        fail("the run on the query's memo reused nothing")
    one_graph("the run on the query's memo", warm, cold_nodes)
    cli("analyze", edited, "--save-summaries", cold_sum)
    if not same_bytes(warm_sum, cold_sum):
        fail("summaries on the query's memo differ from a cold run's")
    print("summaries on the query's memo are byte-identical to a cold run's")


def optimize_then_reanalyze(
    tmp: str, base: str, sidecar: str, cold_nodes: int
) -> None:
    """Step 5: re-analyze the optimized base image against the base
    run's sidecar."""
    optimized = os.path.join(tmp, "optimized.sax")
    warm_sum = os.path.join(tmp, "optimized-warm.sum")
    cold_sum = os.path.join(tmp, "optimized-cold.sum")
    cli("optimize", base, "-o", optimized)
    warm = json.loads(
        cli(
            "analyze", optimized, "--incremental", "--cache", sidecar,
            "--json", "--save-summaries", warm_sum,
        )
    )
    print(
        f"optimized: {len(warm['dirty_routines'])} routines dirty, "
        f"{warm['phase2_solved']} of {warm['routines']} re-solved"
    )
    if not warm["cache"].startswith("warm"):
        fail(f"the run on the optimized image was not warm: {warm['cache']}")
    one_graph("the run on the optimized image", warm, cold_nodes)
    cli("analyze", optimized, "--save-summaries", cold_sum)
    if not same_bytes(warm_sum, cold_sum):
        fail("summaries of the optimized image differ from a cold run's")
    print("summaries of the optimized image are byte-identical to a cold run's")


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

    with tempfile.TemporaryDirectory(prefix="edit-loop-smoke-") as tmp:
        base = os.path.join(tmp, "base.sax")
        edited = os.path.join(tmp, "edited.sax")
        sidecar = os.path.join(tmp, "loop.sum2")
        warm_sum = os.path.join(tmp, "warm.sum")
        cold_sum = os.path.join(tmp, "cold.sum")

        cli("generate", args.benchmark, "--scale", str(args.scale), "-o", base)
        cold = json.loads(
            cli("analyze", base, "--incremental", "--cache", sidecar, "--json")
        )
        if not cold["cache"].startswith("cold"):
            fail(f"the first run was not cold: {cold['cache']}")
        routines = cold["routines"]
        if cold["cfgs_built"] != routines:
            fail(f"cold run built {cold['cfgs_built']} CFGs for "
                 f"{routines} routines")
        cold_nodes = cold["counters"]["psg.nodes"]
        print(
            f"cold: {routines} routines, {cold['cfgs_built']} CFGs built, "
            f"{cold_nodes} PSG nodes"
        )
        memo = os.path.join(tmp, "memo.sum2")
        shutil.copyfile(sidecar, memo)
        base_sidecar = os.path.join(tmp, "base.sum2")
        shutil.copyfile(sidecar, base_sidecar)

        with open(base, "rb") as handle:
            program = disassemble_image(ExecutableImage.from_bytes(handle.read()))
        victim = first_editable_routine(program)
        image = program_to_image(perturb_routine(program, victim))
        with open(edited, "wb") as handle:
            handle.write(image.to_bytes())

        warm = json.loads(
            cli(
                "analyze", edited, "--incremental", "--cache", sidecar,
                "--json", "--save-summaries", warm_sum,
            )
        )
        solved = max(warm["phase1_solved"], warm["phase2_solved"])
        counters = warm["counters"]
        dirty = warm["dirty_routines"]
        print(
            f"warm: edited {victim}; dirty {dirty}, "
            f"{solved} routines re-solved, {warm['cfgs_built']} CFGs built, "
            f"{counters.get('psg.nodes', 0)} PSG nodes, "
            f"record hits {counters.get('frontend.record.hit')}, "
            f"fragment hits {counters.get('cache.fragment.hit')}, "
            f"{counters.get('cache.body.decoded')} bodies decoded"
        )
        if not warm["cache"].startswith("warm"):
            fail(f"the second run was not warm: {warm['cache']}")
        if victim not in dirty:
            fail(f"the edit of {victim} went unnoticed")
        if warm["cfgs_built"] > len(dirty):
            fail(f"built {warm['cfgs_built']} CFGs for {len(dirty)} edited "
                 f"routines")
        if not counters.get("cache.fragment.hit", 0) > 0:
            fail(f"re-solved {solved} routines without one PSG fragment")
        if not counters.get("cache.body.decoded", 0) < routines:
            fail(f"decoded {counters.get('cache.body.decoded')} summary "
                 f"bodies of {routines}")
        one_graph("the warm run", warm, cold_nodes)

        cli("analyze", edited, "--save-summaries", cold_sum)
        if not same_bytes(warm_sum, cold_sum):
            fail("warm summaries differ from a cold run of the edited image")
        print("warm summaries are byte-identical to a cold run's")
        query_then_edit(tmp, base, program, memo, cold_nodes)
        optimize_then_reanalyze(tmp, base, base_sidecar, cold_nodes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
