"""Tests for the top-level analysis driver and its configuration."""

import pytest

from repro.interproc.analysis import AnalysisConfig
from tests.facade import analyze_image, analyze_program
from repro.program.asm import assemble
from repro.program.rewrite import program_to_image
from repro.psg.build import PsgConfig
from repro.sim.interpreter import run_program


class TestDriver:
    def test_analyze_image_equals_analyze_program(self, quick_program):
        from_program = analyze_program(quick_program)
        from_image = analyze_image(program_to_image(quick_program))
        assert from_program.result.equal_summaries(from_image.result)

    def test_all_structures_exposed(self, quick_program):
        analysis = analyze_program(quick_program)
        assert set(analysis.cfgs) == {"main", "helper"}
        assert analysis.call_graph.program is analysis.program
        assert set(analysis.saved_restored) == {"main", "helper"}
        assert analysis.psg.node_count > 0
        assert len(analysis.phase1.may_use) == analysis.psg.node_count
        assert len(analysis.phase2.may_use) == analysis.psg.node_count

    def test_counts(self, quick_program):
        analysis = analyze_program(quick_program)
        assert analysis.basic_block_count == sum(
            cfg.block_count for cfg in analysis.cfgs.values()
        )
        calls = sum(len(c.call_sites) for c in analysis.cfgs.values())
        intra = sum(c.arc_count for c in analysis.cfgs.values())
        assert analysis.cfg_arc_count == intra + 2 * calls

    def test_memory_accounted(self, quick_program):
        analysis = analyze_program(quick_program)
        assert analysis.memory_bytes > 0

    def test_timings_cover_all_stages(self, small_benchmark):
        analysis = analyze_program(small_benchmark)
        seconds = analysis.metrics.seconds
        assert seconds["cfg_build"] > 0
        assert seconds["initialization"] > 0
        assert seconds["psg_build"] > 0
        assert seconds["phase1"] > 0
        assert seconds["phase2"] > 0


class TestFilteringAblationConfig:
    def test_disabling_filtering_is_sound_but_coarser(self, small_benchmark):
        filtered = analyze_program(small_benchmark)
        unfiltered = analyze_program(
            small_benchmark, AnalysisConfig(callee_saved_filtering=False)
        )
        for name in small_benchmark.routine_names():
            a = filtered.summary(name)
            b = unfiltered.summary(name)
            # Unfiltered sets can only be supersets of the filtered ones.
            assert a.call_used_mask & ~b.call_used_mask == 0
            assert a.call_killed_mask & ~b.call_killed_mask == 0
            # And no saved/restored registers are recorded.
            assert b.saved_restored_mask == 0

    def test_unfiltered_still_sound_against_execution(self, small_benchmark):
        unfiltered = analyze_program(
            small_benchmark, AnalysisConfig(callee_saved_filtering=False)
        )
        trace = run_program(small_benchmark, trace_calls=True)
        from repro.dataflow.regset import mask_of

        preserved = mask_of(["sp", "gp"])
        for record in trace.call_records:
            if record.callee not in unfiltered.result.summaries:
                continue
            summary = unfiltered.summary(record.callee)
            # With filtering off, call-used covers save-reads directly.
            stray = record.read_before_write & ~(
                summary.call_used_mask | preserved
            )
            assert stray == 0, record.callee


class TestPsgConfigPlumbing:
    def test_branch_threshold_respected(self, switchy_benchmark):
        few = analyze_program(
            switchy_benchmark,
            AnalysisConfig(psg=PsgConfig(branch_nodes=False)),
        )
        assert few.psg.branch_node_count == 0
        default = analyze_program(switchy_benchmark)
        assert default.psg.branch_node_count > 0
        assert few.result.equal_summaries(default.result)
