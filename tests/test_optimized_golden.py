"""Optimized-output goldens: every Table-2 shape through the Figure-1
pipeline.

``tests/golden/optimized.json`` pins, for each shape of
:data:`repro.workloads.shapes.ALL_SHAPES` generated at scale 0.01 with
seed 7, the SHA-256 of the optimized image's bytes and every pass's
:class:`~repro.opt.pipeline.OptimizationReport` counts.  Each liveness
the passes run has a unique least fixed point, so a change to *how*
they solve it must leave both unchanged.

To regenerate after an *intended* change to what the optimizer does::

    PYTHONPATH=src python -m tests.test_optimized_golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.program.rewrite import program_to_image
from repro.workloads.generator import GeneratorConfig, generate_benchmark
from repro.workloads.shapes import ALL_SHAPES
from tests.facade import optimize_program

GOLDEN = Path(__file__).parent / "golden" / "optimized.json"
SCALE = 0.01
SEED = 7


def _program(shape: str):
    program, _shape = generate_benchmark(
        shape, scale=SCALE, config=GeneratorConfig(seed=SEED)
    )
    return program


def _record(result) -> dict:
    image = program_to_image(result.optimized).to_bytes()
    return {
        "sha256": hashlib.sha256(image).hexdigest(),
        "reports": {
            report.name: [
                report.routines_changed,
                report.instructions_deleted,
                report.instructions_rewritten,
            ]
            for report in result.reports
        },
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_shape():
    assert sorted(_golden()) == sorted(shape.name for shape in ALL_SHAPES)


@pytest.mark.parametrize("shape", [shape.name for shape in ALL_SHAPES])
def test_optimized_bytes_and_counts_match(shape):
    assert _record(optimize_program(_program(shape))) == _golden()[shape]


@pytest.mark.parametrize("shape", ["compress", "li", "vortex"])
def test_behaviour_preserved(shape):
    result = optimize_program(_program(shape), verify=True)
    assert result.behaviour_preserved()
    assert _record(result) == _golden()[shape]


if __name__ == "__main__":
    records = {
        shape.name: _record(optimize_program(_program(shape.name)))
        for shape in ALL_SHAPES
    }
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(records)} shapes)")
