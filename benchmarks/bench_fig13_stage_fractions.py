"""Figure 13: fraction of total time spent in each analysis stage.

The paper reports the breakdown only for gcc and the eight PC
applications (the small benchmarks defeat the timer resolution), and
observes that CFG building plus initialization is consistently 50-60%
of the total while the remaining stages vary per benchmark.  We record
the measured fractions for the same nine benchmarks.
"""

import pytest

from benchmarks.conftest import analyze_serial, benchmark_program, record


#: gcc + the eight PC applications, as in the paper's figure.
FIGURE13_BENCHMARKS = [
    "gcc", "acad", "excel", "maxeda", "sqlservr", "texim", "ustation",
    "vc", "winword",
]

HEADERS = (
    "Benchmark",
    "CFG Build %",
    "Init %",
    "PSG Build %",
    "Phase 1 %",
    "Phase 2 %",
    "CFG+Init %",
    # Absolute wall time alongside the fractions: without a "(s)"
    # column the session summary recorded this table's time as 0.0.
    "Total (s)",
)


@pytest.mark.parametrize("name", FIGURE13_BENCHMARKS)
def test_fig13_row(benchmark, name):
    program, _scaled = benchmark_program(name)
    analysis = benchmark.pedantic(
        analyze_serial, args=(program,), rounds=1, iterations=1
    )
    fractions = analysis.metrics.fractions()
    record(
        "Figure 13: stage fractions"
        " (paper: CFG Build + Init = 50-60% on its C implementation)",
        HEADERS,
        (
            name,
            100 * fractions["cfg_build"],
            100 * fractions["initialization"],
            100 * fractions["psg_build"],
            100 * fractions["phase1"],
            100 * fractions["phase2"],
            100 * (fractions["cfg_build"] + fractions["initialization"]),
            analysis.metrics.total_seconds,
        ),
    )
    assert abs(sum(fractions.values()) - 1.0) < 1e-9
