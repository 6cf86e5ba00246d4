#!/usr/bin/env python
"""End-to-end smoke test of the edit loop: ``analyze --incremental``.

Drives the CLI as real subprocesses, the way Spike's optimize / edit /
re-optimize loop would:

1. generate a Table-2 image and analyze it cold with
   ``--incremental --cache`` (this writes the sidecar, front-end
   records included);
2. apply one :func:`repro.workloads.mutate.perturb_routine` edit and
   analyze the edited image warm against that sidecar with ``--json``;
3. analyze the edited image cold, without any cache.

Fails unless the warm run says its cache was warm, built no more CFGs
than it re-solved routines (``cfgs_built`` in the payload — the point
of the front-end records), and saved summaries byte-identical to the
cold run's.

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

from repro.program.disasm import disassemble_image
from repro.program.image import ExecutableImage
from repro.program.rewrite import program_to_image
from repro.workloads.mutate import first_editable_routine, perturb_routine


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
        print(f"cold: {routines} routines, {cold['cfgs_built']} CFGs built")

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
        print(
            f"warm: edited {victim}; dirty {warm['dirty_routines']}, "
            f"{solved} routines re-solved, {warm['cfgs_built']} CFGs built, "
            f"record hits {warm['counters'].get('frontend.record.hit')}"
        )
        if not warm["cache"].startswith("warm"):
            fail(f"the second run was not warm: {warm['cache']}")
        if victim not in warm["dirty_routines"]:
            fail(f"the edit of {victim} went unnoticed")
        if warm["cfgs_built"] > solved:
            fail(f"built {warm['cfgs_built']} CFGs to re-solve {solved} "
                 f"routines")
        if warm["cfgs_built"] >= routines:
            fail("the warm run built every CFG: no front-end record applied")

        cli("analyze", edited, "--save-summaries", cold_sum)
        with open(warm_sum, "rb") as one, open(cold_sum, "rb") as other:
            if one.read() != other.read():
                fail("warm summaries differ from a cold run of the edited "
                     "image")
        print("warm summaries are byte-identical to a cold run's")
    return 0


if __name__ == "__main__":
    sys.exit(main())
