"""Tests for the micro-workload library (the paper's figures)."""

import pytest

from tests.facade import analyze_program
from repro.interproc.baseline import analyze_program_baseline
from tests.facade import optimize_program
from repro.sim.interpreter import run_program
from repro.workloads.micro import (
    figure1_program,
    figure2_program,
    figure4_program,
    figure12_program,
)


@pytest.mark.parametrize(
    "builder",
    [figure1_program, figure2_program, figure4_program, figure12_program],
)
class TestAllMicroWorkloads:
    def test_engines_agree(self, builder):
        program = builder()
        psg = analyze_program(program)
        baseline = analyze_program_baseline(program)
        assert psg.result.equal_summaries(baseline.result)


class TestFigure1Micro:
    def test_runs(self):
        result = run_program(figure1_program())
        assert result.outputs == [1016]

    def test_all_four_opportunities_taken(self):
        program = figure1_program()
        result = optimize_program(program, verify=True)
        assert result.behaviour_preserved()
        by_pass = {r.name: r.total_edits for r in result.reports}
        assert by_pass["realloc"] >= 3   # 1(d): rename + save/restore
        assert by_pass["spill"] == 2     # 1(c): the stq/ldq pair
        assert by_pass["dce"] >= 2       # 1(a) + 1(b)
        assert result.dynamic_improvement > 0.1  # tiny program, big effect


class TestFigure12Micro:
    def test_runs_and_reduces(self):
        from repro.cfg.build import build_all_cfgs
        from repro.psg.build import PsgConfig, build_psg

        program = figure12_program()
        run_program(program)  # raises ExecutionError unless it halts
        cfgs = build_all_cfgs(program)
        with_nodes = build_psg(program, cfgs, config=PsgConfig())
        without = build_psg(program, cfgs, config=PsgConfig(branch_nodes=False))
        # The O(n^2) -> O(n) collapse of Figure 12.
        assert with_nodes.flow_edge_count < without.flow_edge_count


class TestFigure2Micro:
    def test_builds_and_analyzes(self):
        """Figure 2 has no main/halt (its callers are the example's
        point); it is an analysis fixture, not a runnable program."""
        program = figure2_program()
        assert program.routine_names() == ["P1", "P2", "P3"]
        analysis = analyze_program(program)
        assert "P2" in analysis.result.summaries
