"""Tests for stage timing, the memory model, and table rendering."""

import time

import pytest

from tests.facade import analyze_program
from repro.reporting.memory import (
    DEFAULT_MODEL,
    MemoryModel,
    cfg_analysis_memory,
    memory_breakdown,
    psg_analysis_memory,
)
from repro.reporting.metrics import STAGE_NAMES, RunMetrics
from repro.reporting.tables import format_markdown_table, format_table


#: The paper's five stages, which a whole-program run times.
PAPER_STAGES = ("cfg_build", "initialization", "psg_build", "phase1", "phase2")


class TestStageTimer:
    def test_accumulates(self):
        metrics = RunMetrics()
        with metrics.stage("phase1"):
            time.sleep(0.002)
        with metrics.stage("phase1"):
            time.sleep(0.002)
        assert metrics.seconds["phase1"] >= 0.004

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            with RunMetrics().stage("nonsense"):
                pass

    def test_total_and_fractions(self):
        metrics = RunMetrics(seconds=dict(
            cfg_build=1.0, initialization=1.0, psg_build=1.0, phase1=0.5,
            phase2=0.5,
        ))
        assert metrics.total_seconds == 4.0
        fractions = metrics.fractions()
        assert fractions["cfg_build"] == 0.25
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_zero_total_fractions(self):
        metrics = RunMetrics(seconds=dict.fromkeys(PAPER_STAGES, 0.0))
        assert metrics.fractions() == dict.fromkeys(PAPER_STAGES, 0.0)

    def test_as_dict(self):
        d = RunMetrics(seconds={"phase2": 1.0, "phase1": 2.0}).stage_seconds()
        assert d == {"phase1": 2.0, "phase2": 1.0, "total": 3.0}
        assert list(d) == ["phase1", "phase2", "total"]  # pipeline order
        assert set(STAGE_NAMES) >= set(PAPER_STAGES)

    def test_analysis_populates_all_stages(self, small_benchmark):
        analysis = analyze_program(small_benchmark)
        stage_seconds = analysis.metrics.stage_seconds()
        assert set(stage_seconds) == set(PAPER_STAGES) | {"total"}
        assert all(seconds >= 0 for seconds in stage_seconds.values())
        assert analysis.metrics.total_seconds > 0


def _counts(analysis):
    """(basic blocks, intraprocedural arcs) of an analysis."""
    cfgs = analysis.cfgs.values()
    return (
        sum(cfg.block_count for cfg in cfgs),
        sum(cfg.arc_count for cfg in cfgs),
    )


class TestMemoryModel:
    def test_psg_memory_positive_and_composed(self, small_benchmark):
        analysis = analyze_program(small_benchmark)
        counts = _counts(analysis)
        total = psg_analysis_memory(analysis.psg, *counts)
        breakdown = memory_breakdown(analysis.psg, *counts)
        assert total == analysis.memory_bytes
        assert total == sum(breakdown.values())
        assert breakdown["psg_nodes"] == (
            analysis.psg.node_count * DEFAULT_MODEL.psg_node_bytes
        )

    def test_cfg_mode_blocks_cost_more(self):
        """§4: a CFG block holds 8 sets vs a PSG node's 3."""
        assert (
            DEFAULT_MODEL.block_bytes_cfg_mode
            > DEFAULT_MODEL.block_bytes_psg_mode
        )
        assert DEFAULT_MODEL.block_bytes_cfg_mode == 8 * 8 + 16

    def test_custom_model(self, small_benchmark):
        analysis = analyze_program(small_benchmark)
        doubled = MemoryModel(
            psg_node_bytes=2 * DEFAULT_MODEL.psg_node_bytes,
            psg_edge_bytes=2 * DEFAULT_MODEL.psg_edge_bytes,
            block_bytes_psg_mode=2 * DEFAULT_MODEL.block_bytes_psg_mode,
            block_bytes_cfg_mode=2 * DEFAULT_MODEL.block_bytes_cfg_mode,
            arc_bytes=2 * DEFAULT_MODEL.arc_bytes,
        )
        counts = _counts(analysis)
        assert psg_analysis_memory(analysis.psg, *counts, doubled) == (
            2 * psg_analysis_memory(analysis.psg, *counts)
        )

    def test_cfg_analysis_memory(self, small_benchmark):
        analysis = analyze_program(small_benchmark)
        calls = sum(len(cfg.call_sites) for cfg in analysis.cfgs.values())
        memory = cfg_analysis_memory(analysis.cfgs, 2 * calls)
        assert memory > psg_analysis_memory(analysis.psg, *_counts(analysis)) / 2


class TestTables:
    def test_alignment(self):
        text = format_table(
            ["Benchmark", "Time"],
            [["compress", 0.05], ["gcc", 1.9]],
            title="Table 2",
        )
        lines = text.splitlines()
        assert lines[0] == "Table 2"
        # Title, header, separator, then the rows.
        assert "compress" in lines[3]
        # Numeric column right-aligned.
        assert lines[3].rstrip().endswith("0.05")

    def test_thousands_and_precision(self):
        text = format_table(["n", "v"], [["x", 1234567], ["y", 12.345]])
        assert "1,234,567" in text
        assert "12.3" in text

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_markdown(self):
        text = format_markdown_table(["a", "b"], [[1, 2]])
        assert text.splitlines()[0] == "| a | b |"
        assert text.splitlines()[1] == "|---|---|"
        assert "| 1 | 2 |" in text
