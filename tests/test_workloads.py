"""Tests for benchmark shapes and the synthetic generator."""

import pytest

from repro.cfg.build import build_all_cfgs, build_cfg
from repro.program.model import program_statistics
from repro.sim.interpreter import run_program
from repro.workloads.generator import (
    GeneratorConfig,
    generate_benchmark,
    generate_image,
    generate_program,
)
from repro.workloads.shapes import (
    ALL_SHAPES,
    PC_APP_SHAPES,
    SPEC95_SHAPES,
    shape_by_name,
)


class TestShapes:
    def test_all_sixteen_benchmarks_present(self):
        assert len(SPEC95_SHAPES) == 8
        assert len(PC_APP_SHAPES) == 8
        assert len(ALL_SHAPES) == 16

    def test_lookup(self):
        assert shape_by_name("gcc").routines == 1878
        with pytest.raises(KeyError):
            shape_by_name("nope")

    def test_table2_values_transcribed(self):
        acad = shape_by_name("acad")
        assert acad.basic_blocks == 339962
        assert acad.instructions == 1734700
        assert acad.paper_time_seconds == 12.04
        assert acad.paper_memory_mbytes == 41.11

    def test_table3_values_transcribed(self):
        maxeda = shape_by_name("maxeda")
        assert maxeda.calls_per_routine == 15.45
        assert maxeda.paper_psg_nodes_per_routine == 32.96

    def test_table4_values_transcribed(self):
        assert shape_by_name("sqlservr").paper_edge_reduction_pct == 80.0
        assert shape_by_name("winword").paper_edge_reduction_pct == 0.3

    def test_derived_statistics(self):
        compress = shape_by_name("compress")
        assert compress.blocks_per_routine == pytest.approx(20.87, abs=0.01)
        assert compress.instructions_per_block == pytest.approx(5.30, abs=0.01)

    def test_scaled_shape(self):
        scaled = shape_by_name("gcc").scaled(0.1)
        assert scaled.routines == 188
        # Per-routine statistics survive scaling.
        assert scaled.calls_per_routine == shape_by_name("gcc").calls_per_routine
        assert scaled.blocks_per_routine == pytest.approx(
            shape_by_name("gcc").blocks_per_routine, rel=0.05
        )

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            shape_by_name("gcc").scaled(0)

    @pytest.mark.parametrize("fraction", [1.5, 1e300, float("nan")])
    def test_scaled_rejects_more_than_the_whole(self, fraction):
        with pytest.raises(ValueError):
            shape_by_name("gcc").scaled(fraction)
        assert shape_by_name("gcc").scaled(1) == shape_by_name("gcc")


class TestGenerator:
    def test_deterministic(self):
        first = generate_image(shape_by_name("compress").scaled(0.1))
        second = generate_image(shape_by_name("compress").scaled(0.1))
        assert first.to_bytes() == second.to_bytes()

    def test_seed_changes_program(self):
        a = generate_image(
            shape_by_name("compress").scaled(0.1), GeneratorConfig(seed=0)
        )
        b = generate_image(
            shape_by_name("compress").scaled(0.1), GeneratorConfig(seed=1)
        )
        assert a.to_bytes() != b.to_bytes()

    def test_routine_count_matches_shape(self):
        program, shape = generate_benchmark("li", scale=0.1)
        assert program.routine_count == shape.routines

    def test_single_entry_model_respected(self, small_benchmark):
        # A branch or jump-table target outside its routine, or a call
        # to no routine entry, is a CfgError.
        for routine in small_benchmark:
            build_cfg(small_benchmark, routine)

    def test_cfgs_buildable(self, small_benchmark):
        for cfg in build_all_cfgs(small_benchmark).values():
            cfg.check()

    def test_call_density_tracks_shape(self):
        program, shape = generate_benchmark("maxeda", scale=0.05)
        stats = program_statistics(program)
        # maxeda has ~15 calls/routine; tolerate generator variance.
        assert stats["calls_per_routine"] == pytest.approx(
            shape.calls_per_routine, rel=0.45
        )

    def test_branch_density_tracks_shape(self):
        program, shape = generate_benchmark("vc", scale=0.05)
        stats = program_statistics(program)
        assert stats["branches_per_routine"] == pytest.approx(
            shape.branches_per_routine, rel=0.5
        )

    def test_switch_heavy_shapes_get_jump_tables(self, switchy_benchmark):
        assert len(switchy_benchmark.jump_targets) > 0

    def test_low_reduction_shapes_get_few_jump_tables(self):
        program, _ = generate_benchmark("winword", scale=0.01)
        switch_count = len(program.jump_targets)
        routine_count = program.routine_count
        assert switch_count <= routine_count * 0.1

    def test_programs_terminate(self, small_benchmark):
        result = run_program(small_benchmark)
        assert result.outputs  # main OUTPUTs its callees' results

    def test_every_spec_benchmark_generates_and_runs(self):
        for shape in SPEC95_SHAPES:
            program = generate_program(shape.scaled(0.03))
            # Raises ExecutionError unless the run halts.
            run_program(program, max_steps=2_000_000)

    def test_opaque_calls_are_exported(self):
        program, _ = generate_benchmark(
            "gcc", scale=0.05, config=GeneratorConfig(seed=3, opaque_call_fraction=0.3)
        )
        exported = {routine.name for routine in program.exported_routines()}
        assert exported  # pointer-table targets are exported
