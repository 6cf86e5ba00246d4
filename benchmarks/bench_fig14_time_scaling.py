"""Figure 14: total analysis time as a function of program size.

The paper plots total dataflow time against routines, basic blocks and
instructions across the benchmark suite and observes "low-order
polynomial complexity", well-behaved especially in the number of basic
blocks.  We reproduce it as a controlled sweep: one shape (gcc — the
branchiest SPEC benchmark) scaled geometrically, measuring the total
analysis time at each size, and report the fitted log-log slope (an
exponent near 1 = the near-linear behaviour the paper claims).
"""

import math

import pytest

from benchmarks.conftest import analyze_serial, record

from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.shapes import shape_by_name

SCALES = (0.05, 0.1, 0.2, 0.4)

HEADERS = (
    "Scale",
    "Routines",
    "Blocks",
    "Instructions",
    "Time (s)",
    "us/block",
)

_POINTS = []


@pytest.mark.parametrize("scale", SCALES)
def test_fig14_point(benchmark, scale):
    shape = shape_by_name("gcc").scaled(scale)
    program = generate_program(shape, GeneratorConfig(seed=0))
    analysis = benchmark.pedantic(
        analyze_serial, args=(program,), rounds=1, iterations=1
    )
    blocks = analysis.basic_block_count
    elapsed = analysis.metrics.total_seconds
    _POINTS.append((blocks, elapsed))
    record(
        "Figure 14: analysis time vs program size (gcc-shaped sweep)",
        HEADERS,
        (
            scale,
            program.routine_count,
            blocks,
            program.instruction_count,
            elapsed,
            1e6 * elapsed / blocks,
        ),
    )
    assert elapsed > 0


def test_fig14_loglog_slope(benchmark):
    """Fit t = c * blocks^k over the sweep; the paper's claim is k ≈ 1."""

    def slope():
        points = sorted(_POINTS)
        if len(points) < 2:
            pytest.skip("sweep points unavailable (run the whole file)")
        xs = [math.log(b) for b, _t in points]
        ys = [math.log(t) for _b, t in points]
        n = len(xs)
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        k = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
            (x - mean_x) ** 2 for x in xs
        )
        return k

    k = benchmark.pedantic(slope, rounds=1, iterations=1)
    record(
        "Figure 14: analysis time vs program size (gcc-shaped sweep)",
        HEADERS,
        (f"log-log slope k={k:.2f}", "", "", "", "", ""),
        note="Paper claim: time grows as a low-order polynomial (near-linear).",
    )
    # Generous bound: near-linear, definitely sub-quadratic.
    assert k < 1.8, f"analysis time scales superlinearly: exponent {k:.2f}"
