"""The region solve on long call chains.

Every path solves the components it needs as regions — one partial PSG
per run of needed components — so a cold query and a cold incremental
run build one or two graphs, not one per call-graph component, and a
deep chain recurses nowhere.
"""

import pytest

from repro.api import AnalysisConfig, AnalysisSession
from repro.interproc.persist import dump_summaries
from repro.interproc.store import SummaryStore
from repro.interproc.summaries import SummarySet
from repro.obs.metrics import REGISTRY
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image

_OFF = AnalysisConfig(store="off")


def _chain(depth: int):
    """``f0`` (exported, the entry) calls ``f1``, which calls ``f2``, …
    down to the leaf ``f{depth - 1}``: every component a singleton."""
    parts = []
    for index in range(depth):
        parts.append(f".routine f{index}" + (" export" if index == 0 else ""))
        parts += ["    lda sp, -16(sp)", "    stq ra, 0(sp)"]
        if index + 1 < depth:
            parts += ["    addq a0, #1, a0", f"    bsr ra, f{index + 1}"]
        else:
            parts.append("    bis zero, a0, v0")
        parts += ["    ldq ra, 0(sp)", "    lda sp, 16(sp)"]
        parts.append("    halt" if index == 0 else "    ret (ra)")
    return disassemble_image(assemble("\n".join(parts)))


def _canon(summary) -> bytes:
    return dump_summaries(SummarySet(summaries={summary.name: summary}))


def _graphs_built(run):
    """``run()``'s result and the PSGs it built, whole or partial."""
    before = REGISTRY.snapshot()
    result = run()
    delta = REGISTRY.delta_since(before)
    return result, delta.get("psg.builds", 0) + delta.get("psg.partial_builds", 0)


@pytest.fixture(scope="module")
def chain_2000():
    program = _chain(2000)
    full = AnalysisSession.from_program(program, _OFF).analyze().result
    return program, full


class TestRegions:
    @pytest.mark.parametrize("routine", ["f1999", "f0"], ids=["leaf", "root"])
    def test_cold_query_builds_one_region_per_phase(self, chain_2000, routine):
        program, full = chain_2000
        session = AnalysisSession.from_program(program, _OFF)
        result, graphs = _graphs_built(lambda: session.query(routine))
        assert graphs <= 2
        assert _canon(result.summary) == _canon(full.summaries[routine])

    def test_cold_run_against_an_empty_store(self, chain_2000, tmp_path):
        program, full = chain_2000
        config = AnalysisConfig(store=SummaryStore(str(tmp_path / "store")))
        session = AnalysisSession.from_program(program, config)
        result, graphs = _graphs_built(session.analyze_incremental)
        assert graphs <= 2
        assert result.metrics.phase1_solved == program.routine_count
        assert dump_summaries(result.result) == dump_summaries(full)


def test_5000_deep_chain_solves_on_every_path(tmp_path):
    """No path recurses per call-graph level: the whole solve, a cold
    query of the deepest routine and a cold incremental run (store off,
    and against an empty store) all finish with the same summaries."""
    program = _chain(5000)
    leaf = "f4999"
    full = AnalysisSession.from_program(program, _OFF).analyze().result
    expected = dump_summaries(full)
    query = AnalysisSession.from_program(program, _OFF).query(leaf)
    assert _canon(query.summary) == _canon(full.summaries[leaf])
    store = AnalysisConfig(store=SummaryStore(str(tmp_path / "store")))
    for config in (_OFF, store):
        run = AnalysisSession.from_program(program, config).analyze_incremental()
        assert dump_summaries(run.result) == expected
