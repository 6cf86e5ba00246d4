"""Tests for the sharded parallel two-phase solver.

The headline contract (see :mod:`repro.interproc.parallel`): at any
worker count and any shard count the parallel solver's summaries are
**bit-identical** to the serial driver's, cold and warm.  Workers pin
callee entry triples (phase 1) and seed caller-side exit liveness
(phase 2), so each shard reproduces exactly its slice of the global
fixed point; the tests check the merge against the serial oracle via
the canonical SUM4 wire encoding.
"""

import multiprocessing
import os

import pytest

import repro.interproc.parallel as parallel_mod
from repro.interproc.frontend import build_frontend
from repro.interproc import (
    AnalysisError,
    analyze_incremental_parallel,
    analyze_parallel,
    dump_cache,
    dump_summaries,
    load_cache,
)
from repro.interproc.analysis import AnalysisConfig, _analyze_program
from repro.interproc.incremental import _analyze_incremental
from repro.interproc.parallel import (
    SHARDS_PER_WORKER,
    resolve_jobs,
)
from repro.workloads.generator import GeneratorConfig, generate_benchmark
from repro.workloads.mutate import first_editable_routine, perturb_routine

#: The four Table-2 shapes the figure benchmarks use, scaled far down
#: so a pool spin-up per case stays cheap.
SHAPES = ["compress", "li", "perl", "vortex"]
JOBS = [1, 2, 4]


def _program(name: str):
    program, _shape = generate_benchmark(
        name, scale=0.04, config=GeneratorConfig(seed=0)
    )
    return program


@pytest.fixture(scope="module", params=SHAPES)
def shaped(request):
    program = _program(request.param)
    serial = _analyze_program(program)
    return program, serial


# ----------------------------------------------------------------------
# Cold runs: bit-identical to serial at every worker count
# ----------------------------------------------------------------------


class TestColdBitIdentical:
    @pytest.mark.parametrize("jobs", JOBS)
    def test_matches_serial(self, shaped, jobs):
        program, serial = shaped
        analysis = analyze_parallel(program, jobs=jobs)
        assert dump_summaries(analysis.result) == dump_summaries(
            serial.result
        ), analysis.result.diff(serial.result)

    def test_single_shard_degenerate(self, shaped):
        program, serial = shaped
        analysis = analyze_parallel(program, jobs=2, shards=1)
        assert analysis.plan.shard_count == 1
        assert dump_summaries(analysis.result) == dump_summaries(
            serial.result
        )

    def test_many_tiny_shards(self, shaped):
        program, serial = shaped
        analysis = analyze_parallel(
            program, jobs=1, shards=program.routine_count
        )
        assert dump_summaries(analysis.result) == dump_summaries(
            serial.result
        )

    def test_metrics_cover_all_shards(self, shaped):
        program, _serial = shaped
        analysis = analyze_parallel(program, jobs=2)
        metrics = analysis.metrics
        assert metrics.jobs == 2
        assert metrics.shard_count == analysis.plan.shard_count
        assert len(metrics.shards) == analysis.plan.shard_count
        assert sum(r.routines for r in metrics.shards) == (
            program.routine_count
        )
        assert 0.0 <= metrics.utilization() <= 1.0


# ----------------------------------------------------------------------
# Warm runs: dirty-shard-only parallel re-solve, still exact
# ----------------------------------------------------------------------


class TestWarmBitIdentical:
    @pytest.mark.parametrize("jobs", JOBS)
    def test_mutated_warm_matches_fresh_serial(self, shaped, jobs):
        program, _serial = shaped
        cold = _analyze_incremental(program)
        cache = load_cache(dump_cache(cold.cache))
        edited = perturb_routine(program, first_editable_routine(program))
        oracle = _analyze_program(edited)

        warm = analyze_incremental_parallel(edited, cache, jobs=jobs)
        assert dump_summaries(warm.result) == dump_summaries(
            oracle.result
        ), warm.result.diff(oracle.result)
        # Every routine is either freshly solved or served from cache.
        assert warm.metrics.phase2_solved >= 1
        assert (
            warm.metrics.phase2_solved + warm.metrics.phase2_reused
            == program.routine_count
        )
        assert warm.parallel is not None
        assert warm.parallel.jobs == jobs

    def test_partial_resolve_skips_clean_shards(self):
        # On this shape the dirty cone is a proper subset of the
        # program, so the warm run must actually reuse cached facts
        # (the conservative closure can cover everything on shapes
        # whose call graph funnels through the victim).
        program = _program("li")
        cold = _analyze_incremental(program)
        cache = load_cache(dump_cache(cold.cache))
        edited = perturb_routine(program, first_editable_routine(program))
        warm = analyze_incremental_parallel(edited, cache, jobs=2)
        oracle = _analyze_program(edited)
        assert dump_summaries(warm.result) == dump_summaries(oracle.result)
        assert warm.metrics.phase2_solved < program.routine_count
        assert warm.metrics.phase2_reused > 0

    def test_clean_warm_solves_nothing(self, shaped):
        program, _serial = shaped
        cold = _analyze_incremental(program)
        cache = load_cache(dump_cache(cold.cache))
        warm = analyze_incremental_parallel(program, cache, jobs=2)
        assert warm.metrics.phase1_solved == 0
        assert warm.metrics.phase2_solved == 0
        assert dump_summaries(warm.result) == dump_summaries(cold.result)

    def test_cold_parallel_seeds_valid_cache(self, shaped):
        program, serial = shaped
        cold = analyze_incremental_parallel(program, cache=None, jobs=2)
        assert cold.metrics.cold
        assert dump_summaries(cold.result) == dump_summaries(serial.result)
        # The cache it seeded warms a serial run to a no-op.
        warm = _analyze_incremental(
            program, cache=load_cache(dump_cache(cold.cache))
        )
        assert warm.metrics.phase1_solved == 0
        assert warm.metrics.phase2_solved == 0


# ----------------------------------------------------------------------
# Shard partitioner
# ----------------------------------------------------------------------


class TestPartitioner:
    @pytest.fixture(scope="class")
    def plan_and_condensation(self):
        program = _program("vortex")
        frontend = build_frontend(program)
        condensation = frontend.condensation
        plan = condensation.partition_shards(
            frontend.block_counts, max_shards=4
        )
        return plan, condensation

    def test_contiguous_intervals_cover_everything(
        self, plan_and_condensation
    ):
        plan, condensation = plan_and_condensation
        covered = []
        for shard in plan.shards:
            assert shard.components == list(
                range(shard.components[0], shard.components[-1] + 1)
            )
            covered.extend(shard.components)
        assert covered == list(range(len(condensation.components)))

    def test_shard_dag_is_callee_first(self, plan_and_condensation):
        plan, _condensation = plan_and_condensation
        # Every phase-1 prerequisite has a smaller index (callee side),
        # so both wave orders are acyclic by construction.
        for index, callees in enumerate(plan.callee_shards):
            assert all(callee < index for callee in callees)
        for index, callers in enumerate(plan.caller_shards):
            assert all(caller > index for caller in callers)

    def test_cost_balance(self, plan_and_condensation):
        plan, _condensation = plan_and_condensation
        total = sum(shard.cost for shard in plan.shards)
        # The greedy cut never lets one shard exceed the ideal share by
        # more than the largest single component.
        largest_component = max(
            shard.cost for shard in plan.shards
        )  # upper bound on any component
        assert plan.largest_cost() <= total // len(plan.shards) + (
            largest_component
        )

    def test_max_shards_validated(self, plan_and_condensation):
        _plan, condensation = plan_and_condensation
        with pytest.raises(ValueError):
            condensation.partition_shards({}, max_shards=0)


# ----------------------------------------------------------------------
# Failure handling
# ----------------------------------------------------------------------


def _crash_phase1(phase: str, shard_index: int) -> None:
    if phase == "phase1":
        os._exit(13)


def _raise_phase2(phase: str, shard_index: int) -> None:
    if phase == "phase2":
        raise RuntimeError("synthetic shard failure")


class TestWorkerFailures:
    @pytest.fixture()
    def program(self):
        return _program("compress")

    @pytest.fixture(autouse=True)
    def _reset_fault_hook(self):
        yield
        parallel_mod._FAULT_HOOK = None

    def test_worker_crash_raises_analysis_error(self, program):
        # The hook rides into the forked workers as module state and
        # kills them hard; the scheduler must surface a clean error,
        # not hang or leak a traceback from pool internals.
        parallel_mod._FAULT_HOOK = _crash_phase1
        with pytest.raises(AnalysisError):
            analyze_parallel(program, jobs=2)

    def test_worker_exception_raises_analysis_error(self, program):
        parallel_mod._FAULT_HOOK = _raise_phase2
        with pytest.raises(AnalysisError, match="phase2"):
            analyze_parallel(program, jobs=2)

    def test_inline_exception_raises_analysis_error(self, program):
        parallel_mod._FAULT_HOOK = _raise_phase2
        with pytest.raises(AnalysisError, match="phase2"):
            analyze_parallel(program, jobs=1)


# ----------------------------------------------------------------------
# Knob plumbing
# ----------------------------------------------------------------------


class TestResolveJobs:
    def test_explicit_beats_config(self):
        assert resolve_jobs(3, AnalysisConfig(jobs=2)) == 3

    def test_config_default(self):
        assert resolve_jobs(None, AnalysisConfig(jobs=2)) == 2
        assert resolve_jobs(None, None) == 1

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0, None) == multiprocessing.cpu_count()
        assert resolve_jobs(-1, None) == multiprocessing.cpu_count()

    def test_shard_target_scales_with_jobs(self):
        program = _program("compress")
        analysis = analyze_parallel(program, jobs=2)
        assert analysis.plan.shard_count <= 2 * SHARDS_PER_WORKER
