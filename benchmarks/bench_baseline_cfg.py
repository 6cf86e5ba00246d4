"""The PSG's raison d'être: analysis over the PSG vs the whole-program CFG.

Section 1 motivates the compact representation by the cost of
interprocedural dataflow over the entire CFG ("the time required ... is
typically proportional to the size of the graph being analyzed").  This
bench runs both engines on the same programs, asserts their summaries
agree exactly, and reports the dataflow-time and modeled-memory
comparison.

Note the honest accounting: the PSG pipeline must *build* the PSG
(labeling flow-summary edges costs CFG-subgraph solves), so the
comparison reports both the dataflow-only time (phases 1+2, the cost
that recurs every time summaries are recomputed during optimization)
and the end-to-end time.
"""

import pytest

from benchmarks.conftest import benchmark_program, record
from repro.api import AnalysisSession
from repro.interproc.baseline import analyze_program_baseline

COMPARED = ["compress", "li", "go", "perl", "gcc", "maxeda", "vc"]

HEADERS = (
    "Benchmark",
    "PSG phases (s)",
    "CFG total (s)",
    "PSG total (s)",
    "PSG memory (MB)",
    "CFG memory (MB)",
    "Memory ratio",
    "Summaries equal",
)


@pytest.mark.parametrize("name", COMPARED)
def test_psg_vs_cfg_baseline(benchmark, name):
    program, _scaled = benchmark_program(name)

    def run_both():
        psg = AnalysisSession.from_program(program).analyze()
        cfg = analyze_program_baseline(program)
        return psg, cfg

    psg, cfg = benchmark.pedantic(run_both, rounds=1, iterations=1)
    equal = psg.result.equal_summaries(cfg.result)
    phases = psg.metrics.seconds["phase1"] + psg.metrics.seconds["phase2"]
    record(
        "PSG vs whole-program CFG (the paper's motivating comparison)",
        HEADERS,
        (
            name,
            phases,
            cfg.elapsed_seconds,
            psg.metrics.total_seconds,
            psg.memory_bytes / 1e6,
            cfg.memory_bytes / 1e6,
            cfg.memory_bytes / psg.memory_bytes,
            "yes" if equal else "NO",
        ),
        note=(
            "'PSG phases' is the recurring dataflow cost once the PSG "
            "exists; 'CFG total' re-iterates over every basic block."
        ),
    )
    assert equal, cfg.result.diff(psg.result)[:5]
    # The PSG usually needs less dataflow state, but the paper's own
    # Table 5 shows call-dense outliers (acad: 1.14 PSG nodes per basic
    # block) where the PSG is *not* smaller; maxeda (15.45 calls/routine)
    # behaves the same way here.  Assert only that the PSG stays within
    # a small constant factor.
    assert psg.memory_bytes < 1.5 * cfg.memory_bytes
