"""Simulator goldens: what :func:`~repro.sim.interpreter.run_program`
observes on three Table-2 shapes, byte for byte.

``tests/golden/simulator.json`` pins, for compress, li and vortex
generated at scale 0.01 with seed 7 (the shapes
``tests/test_optimized_golden.py`` runs through ``optimize --verify``),
the SHA-256 of a plain run's outputs, step count, exit value, final
registers and opcode counts, and the SHA-256 of the call records of a
run with ``trace_calls=True``.  A change to how the interpreter reads
the program must leave both unchanged.

To regenerate after an *intended* change to what the simulator does::

    PYTHONPATH=src python -m tests.test_simulator_golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.sim.interpreter import run_program
from repro.workloads.generator import GeneratorConfig, generate_benchmark

GOLDEN = Path(__file__).parent / "golden" / "simulator.json"
SHAPES = ("compress", "li", "vortex")
SCALE = 0.01
SEED = 7


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_digest(result) -> str:
    return _digest([
        result.outputs, result.steps, result.exit_value,
        list(result.final_registers), result.opcode_counts,
    ])


def _record(shape: str) -> dict:
    program, _shape = generate_benchmark(
        shape, scale=SCALE, config=GeneratorConfig(seed=SEED)
    )
    plain = run_program(program)
    traced = run_program(program, trace_calls=True)
    assert _run_digest(traced) == _run_digest(plain)
    return {
        "run": _run_digest(plain),
        "call_records": _digest([
            [r.callee, r.read_before_write, r.written, r.changed]
            for r in traced.call_records
        ]),
    }


def test_golden_covers_every_shape():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(SHAPES)


@pytest.mark.parametrize("shape", SHAPES)
def test_simulator_results_match(shape):
    assert _record(shape) == json.loads(GOLDEN.read_text())[shape]


if __name__ == "__main__":
    records = {shape: _record(shape) for shape in SHAPES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(records)} shapes)")
