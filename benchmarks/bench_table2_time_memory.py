"""Table 2: benchmark size, dataflow analysis time and memory usage.

For every benchmark the paper reports routines, basic blocks,
instructions, total dataflow time (seconds on a 466 MHz Alpha 21164, in
C) and memory (MBytes).  We regenerate the table on the synthetic
stand-ins: sizes are measured from the generated program, time is the
five-stage pipeline's wall clock (Python), and memory follows the
explicit model of ``repro.reporting.memory``.

Absolute times are not expected to match a 1997 C implementation; the
reproduced claims are (a) analysis completes in seconds even for the
largest inputs, (b) the relative ordering of the benchmarks, and
(c) the near-linear growth probed by Figures 14/15.
"""

import pytest

from benchmarks.conftest import (
    BENCHMARK_NAMES,
    analyze_serial,
    benchmark_program,
    record,
    scale_for,
)

from repro.workloads.shapes import shape_by_name

HEADERS = (
    "Benchmark",
    "Routines",
    "Basic Blocks",
    "Instr (k)",
    "Time (s)",
    "Paper s (full size)",
    "Memory (MB)",
    "Paper MB (full size)",
)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_table2_row(benchmark, name):
    program, _scaled = benchmark_program(name)
    shape = shape_by_name(name)
    analysis = benchmark.pedantic(
        analyze_serial, args=(program,), rounds=1, iterations=1
    )
    record(
        "Table 2: size, dataflow time and memory"
        f" (ours at scale, paper at full size)",
        HEADERS,
        (
            name,
            program.routine_count,
            analysis.basic_block_count,
            program.instruction_count / 1000.0,
            analysis.metrics.total_seconds,
            shape.paper_time_seconds,
            analysis.memory_bytes / 1e6,
            shape.paper_memory_mbytes,
        ),
        note=(
            "Paper columns are the full-size C/Alpha measurements; ours are "
            "the scaled synthetic stand-ins analyzed in Python."
        ),
    )
    assert analysis.metrics.total_seconds > 0
    assert analysis.memory_bytes > 0
    # The generated stand-in tracks the scaled shape's size.
    expected = shape.scaled(scale_for(shape))
    assert program.routine_count == expected.routines
