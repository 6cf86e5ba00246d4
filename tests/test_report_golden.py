"""Report goldens: the DOT exports and the listings, byte for byte.

``tests/golden/reports.json`` pins, for compress and for the
multiway-heavy perl shape generated at scale 0.05 with seed 7, the
SHA-256 of every routine's :func:`~repro.reporting.dot.cfg_to_dot`
(default and ``max_instructions=1``), of
:func:`~repro.reporting.dot.psg_to_dot` (whole program, the routine
with the most PSG nodes, labels off), of
:func:`~repro.reporting.annotate.render_annotated_listing` and of the
disassembly listing :func:`~repro.program.disasm.render_listing`.  The
reports read the instruction, CFG and PSG rows; a change to how they
read them must leave these bytes unchanged.

To regenerate after an *intended* change to what a report prints::

    PYTHONPATH=src python -m tests.test_report_golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.program.disasm import render_listing
from repro.reporting.annotate import render_annotated_listing
from repro.reporting.dot import cfg_to_dot, psg_to_dot
from repro.workloads.generator import GeneratorConfig, generate_benchmark
from tests.facade import analyze_program

GOLDEN = Path(__file__).parent / "golden" / "reports.json"
SHAPES = ("compress", "perl")
SCALE = 0.05
SEED = 7


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _record(shape: str) -> dict:
    program, _shape = generate_benchmark(
        shape, scale=SCALE, config=GeneratorConfig(seed=SEED)
    )
    analysis = analyze_program(program)
    psg = analysis.psg
    names = program.routine_names()
    largest = max(names, key=lambda name: psg.routines[name].node_count)
    cfgs = [analysis.cfgs[name] for name in names]
    return {
        "cfg_dot": _digest("\n".join(map(cfg_to_dot, cfgs))),
        "cfg_dot_1": _digest(
            "\n".join(cfg_to_dot(cfg, max_instructions=1) for cfg in cfgs)
        ),
        "psg_dot": _digest(psg_to_dot(psg)),
        "psg_dot_routine": [largest, _digest(psg_to_dot(psg, routine=largest))],
        "psg_dot_unlabeled": _digest(psg_to_dot(psg, show_labels=False)),
        "annotated": _digest(render_annotated_listing(analysis)),
        "listing": _digest(render_listing(program)),
    }


def test_golden_covers_every_shape():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(SHAPES)


@pytest.mark.parametrize("shape", SHAPES)
def test_report_bytes_match(shape):
    assert _record(shape) == json.loads(GOLDEN.read_text())[shape]


if __name__ == "__main__":
    records = {shape: _record(shape) for shape in SHAPES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(records)} shapes)")
