"""Tests for the incremental re-analysis engine.

The contract under test (see :mod:`repro.interproc.incremental`):

* a cold run equals the one-shot pipeline and seeds a cache;
* a warm run with zero dirty routines does **no** phase-1/phase-2
  solving (asserted via the metrics counters) and returns the cached
  facts;
* editing one routine re-solves only its SCC and the dependents whose
  consumed facts actually changed, and the result is byte-identical to
  a from-scratch analysis of the edited program;
* structural edits — adding and removing routines — invalidate
  correctly too.
"""

import pytest

from repro import cli
from tests.facade import analyze_incremental, analyze_program
from repro.interproc import (
    SummaryFormatError,
    dump_cache,
    dump_summaries,
    load_cache,
    routine_fingerprint,
)
from repro.cfg.build import build_all_cfgs
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image
from repro.program.model import Program, Routine
from repro.workloads.mutate import first_editable_routine, perturb_routine


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


class TestRoutineFingerprint:
    def test_stable(self, small_benchmark):
        cfgs = build_all_cfgs(small_benchmark)
        name = small_benchmark.routine_names()[0]
        first = routine_fingerprint(small_benchmark.routine(name), cfgs[name])
        second = routine_fingerprint(small_benchmark.routine(name), cfgs[name])
        assert first == second

    def test_code_edit_changes_fingerprint(self, small_benchmark):
        victim = first_editable_routine(small_benchmark)
        edited = perturb_routine(small_benchmark, victim)
        cfgs_a = build_all_cfgs(small_benchmark)
        cfgs_b = build_all_cfgs(edited)
        assert routine_fingerprint(
            small_benchmark.routine(victim), cfgs_a[victim]
        ) != routine_fingerprint(edited.routine(victim), cfgs_b[victim])
        # Untouched routines keep their fingerprints.
        for name in small_benchmark.routine_names():
            if name == victim:
                continue
            assert routine_fingerprint(
                small_benchmark.routine(name), cfgs_a[name]
            ) == routine_fingerprint(edited.routine(name), cfgs_b[name])

    def test_exported_flag_in_fingerprint(self, small_benchmark):
        name = [
            routine.name
            for routine in small_benchmark.routines
            if not routine.exported
        ][0]
        original = small_benchmark.routine(name)
        flipped = Routine(
            name=original.name,
            address=original.address,
            code=original.code,
            exported=True,
        )
        cfgs = build_all_cfgs(small_benchmark)
        assert routine_fingerprint(original, cfgs[name]) != routine_fingerprint(
            flipped, cfgs[name]
        )


# ----------------------------------------------------------------------
# Cold / warm / dirty runs
# ----------------------------------------------------------------------


class TestIncrementalRuns:
    def test_cold_matches_full(self, small_benchmark):
        cold = analyze_incremental(small_benchmark)
        full = analyze_program(small_benchmark)
        assert dump_summaries(cold.result) == dump_summaries(full.result)
        assert cold.metrics.cold
        assert cold.metrics.phase1_solved == small_benchmark.routine_count
        assert cold.metrics.phase1_iterations > 0
        assert cold.metrics.phase2_iterations > 0
        assert set(cold.cache.rows) == set(
            small_benchmark.routine_names()
        )

    def test_warm_zero_dirty_does_no_solving(self, small_benchmark):
        cold = analyze_incremental(small_benchmark)
        # Round-trip the cache through the SUM5 wire format, as a real
        # warm start from a sidecar would.
        cache = load_cache(dump_cache(cold.cache))
        warm = analyze_incremental(small_benchmark, cache=cache)
        metrics = warm.metrics
        assert not metrics.cold
        assert metrics.dirty_routines == []
        assert metrics.phase1_solved == 0
        assert metrics.phase2_solved == 0
        assert metrics.phase1_sccs_solved == 0
        assert metrics.phase2_sccs_solved == 0
        assert metrics.phase1_iterations == 0
        assert metrics.phase2_iterations == 0
        assert metrics.phase1_reused == small_benchmark.routine_count
        assert metrics.phase2_reused == small_benchmark.routine_count
        # No partial PSGs were even built.
        assert "psg_build" not in metrics.seconds
        assert "phase1" not in metrics.seconds
        assert "phase2" not in metrics.seconds
        assert dump_summaries(warm.result) == dump_summaries(cold.result)

    @pytest.mark.parametrize("seed_name", ["compress", "li", "perl"])
    def test_one_dirty_matches_full_reanalysis(self, seed_name):
        from repro.workloads.generator import GeneratorConfig, generate_benchmark

        program, _shape = generate_benchmark(
            seed_name, scale=0.15, config=GeneratorConfig(seed=5)
        )
        cold = analyze_incremental(program)
        victim = first_editable_routine(program)
        edited = perturb_routine(program, victim)

        warm = analyze_incremental(edited, cache=cold.cache)
        full = analyze_program(edited)
        assert warm.metrics.dirty_routines == [victim]
        assert dump_summaries(warm.result) == dump_summaries(full.result), (
            warm.result.diff(full.result)
        )

        # The refreshed cache is itself a valid warm-start point.
        again = analyze_incremental(edited, cache=warm.cache)
        assert again.metrics.phase1_solved == 0
        assert again.metrics.phase2_solved == 0
        assert dump_summaries(again.result) == dump_summaries(full.result)

    def test_one_dirty_reanalyzes_only_the_dependency_cone(self, small_benchmark):
        cold = analyze_incremental(small_benchmark)
        victim = first_editable_routine(small_benchmark)
        edited = perturb_routine(small_benchmark, victim)
        warm = analyze_incremental(edited, cache=cold.cache)

        condensation = warm.condensation
        assert condensation is not None
        roots = {condensation.component_index(victim)}
        phase1_cone = condensation.routines_of(
            condensation.transitive_caller_components(roots)
        )
        phase2_cone = condensation.routines_of(
            condensation.transitive_callee_components(
                condensation.transitive_caller_components(roots)
            )
        )
        assert warm.metrics.phase1_solved <= len(phase1_cone)
        assert warm.metrics.phase2_solved <= len(phase2_cone)
        assert warm.metrics.phase2_solved < small_benchmark.routine_count
        # Every routine outside the invalidation cone keeps its cached
        # summary *object* — proof it was never re-assembled.
        for name in small_benchmark.routine_names():
            if name not in phase2_cone:
                assert (
                    warm.result.summaries[name]
                    is cold.cache.result.summaries[name]
                )


# ----------------------------------------------------------------------
# Structural edits: routines added and removed
# ----------------------------------------------------------------------

_TWO_ROUTINES = """
.routine main export
    li   a0, 1
    bsr  ra, shared
    halt
.routine shared
    addq a0, #1, v0
    ret  (ra)
"""

# Same program plus one routine at the *end* (so no address shifts):
# nobody calls `extra`, but `extra` calls `shared`, contributing to
# shared's live-at-exit.
_THREE_ROUTINES = _TWO_ROUTINES + """
.routine extra
    li   a0, 7
    bsr  ra, shared
    ret  (ra)
"""

# `extra` survives but its call to `shared` is replaced by a same-size
# ALU op — only `extra` is fingerprint-dirty, yet `shared` loses an
# exit-seed contributor.
_DROPPED_CALL = _THREE_ROUTINES.replace(
    "bsr  ra, shared\n    ret", "addq a0, #1, a0\n    ret"
)

# As _THREE_ROUTINES plus a second leaf, and a variant where `extra`
# redirects its call from `shared` to `other` (same-size edit again).
_FOUR_ROUTINES = _THREE_ROUTINES + """
.routine other
    subq a0, #1, v0
    ret  (ra)
"""
_RETARGETED_CALL = _FOUR_ROUTINES.replace(
    "bsr  ra, shared\n    ret", "bsr  ra, other\n    ret"
)


def _asm(source: str) -> Program:
    return disassemble_image(assemble(source))


# `main` calls `leaf` twice; the second call goes (same-size edit).  The
# dropped site's live-after is empty and the kept one's holds a0, so
# leaf's exit seed does not move.
_TWO_SITES = """
.routine main export
    li   a0, 1
    bsr  ra, leaf
    bsr  ra, leaf
    halt
.routine leaf
    addq a0, #1, v0
    ret  (ra)
"""
_ONE_SITE = _TWO_SITES.replace(
    "bsr  ra, leaf\n    halt", "addq a0, #1, a0\n    halt"
)


class TestStructuralEdits:
    def test_dropped_site_with_an_unmoved_exit_seed_keeps_the_callee(self):
        # The callee lost a site, but the inputs it was solved from did
        # not change: it is not re-solved.
        cold = analyze_incremental(_asm(_TWO_SITES))
        after = _asm(_ONE_SITE)
        warm = analyze_incremental(after, cache=load_cache(dump_cache(cold.cache)))
        assert warm.metrics.dirty_routines == ["main"]
        assert warm.metrics.phase2_solved == 1
        assert warm.cache.rows["leaf"] == cold.cache.rows["leaf"]
        assert dump_summaries(warm.result) == dump_summaries(
            analyze_program(after).result
        )

    def test_added_routine(self):
        small = _asm(_TWO_ROUTINES)
        grown = _asm(_THREE_ROUTINES)
        cold = analyze_incremental(small)
        warm = analyze_incremental(grown, cache=cold.cache)
        full = analyze_program(grown)
        assert warm.metrics.dirty_routines == ["extra"]
        assert dump_summaries(warm.result) == dump_summaries(full.result), (
            warm.result.diff(full.result)
        )

    def test_removed_routine(self):
        grown = _asm(_THREE_ROUTINES)
        small = _asm(_TWO_ROUTINES)
        cold = analyze_incremental(grown)
        warm = analyze_incremental(small, cache=cold.cache)
        full = analyze_program(small)
        # Nothing is fingerprint-dirty: the deleted routine sat at the
        # end of the image and nobody called it.  Its former callee
        # must still be re-solved (it lost an exit-seed contributor).
        assert warm.metrics.dirty_routines == []
        assert dump_summaries(warm.result) == dump_summaries(full.result), (
            warm.result.diff(full.result)
        )

    def test_surviving_caller_drops_its_call(self):
        # A caller that keeps existing but whose call instruction is
        # replaced by a same-size ALU op retracts a call edge without
        # deleting any routine: the former callee must be re-solved or
        # its cached exit liveness keeps the removed site's live-after.
        before = _asm(_THREE_ROUTINES)
        after = _asm(_DROPPED_CALL)
        cold = analyze_incremental(before)
        warm = analyze_incremental(after, cache=cold.cache)
        full = analyze_program(after)
        assert warm.metrics.dirty_routines == ["extra"]
        assert dump_summaries(warm.result) == dump_summaries(full.result), (
            warm.result.diff(full.result)
        )
        # The refreshed cache must be clean, not poisoned: a further
        # warm run reuses everything and still matches from-scratch.
        again = analyze_incremental(
            after, cache=load_cache(dump_cache(warm.cache))
        )
        assert again.metrics.phase2_solved == 0
        assert dump_summaries(again.result) == dump_summaries(full.result)

    def test_surviving_caller_retargets_its_call(self):
        # Same retraction, but the site swings to a different routine
        # instead of disappearing: the old target loses a seed, the new
        # one gains one, and both must end up byte-identical to a
        # from-scratch analysis.
        before = _asm(_FOUR_ROUTINES)
        after = _asm(_RETARGETED_CALL)
        cold = analyze_incremental(before)
        warm = analyze_incremental(after, cache=cold.cache)
        full = analyze_program(after)
        assert warm.metrics.dirty_routines == ["extra"]
        assert dump_summaries(warm.result) == dump_summaries(full.result), (
            warm.result.diff(full.result)
        )

    def test_removed_caller_shrinks_callee_liveness(self):
        # The scenario that makes the orphan handling observable: the
        # deleted routine's return-point liveness stops leaking into
        # the surviving callee's live-at-exit, so the mask can only
        # shrink (and test_removed_routine asserts the incremental
        # path tracks it exactly).
        with_extra = analyze_program(_asm(_THREE_ROUTINES)).result
        without_extra = analyze_program(_asm(_TWO_ROUTINES)).result
        before = with_extra["shared"].live_at_any_exit_mask
        after = without_extra["shared"].live_at_any_exit_mask
        assert after & ~before == 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestIncrementalCli:
    def test_cold_then_warm(self, tmp_path, capsys):
        image = tmp_path / "bench.img"
        assert cli.main(
            ["generate", "compress", "--scale", "0.1", "--seed", "3",
             "-o", str(image)]
        ) == 0
        capsys.readouterr()

        assert cli.main(
            ["analyze", str(image), "--incremental", "--stats"]
        ) == 0
        first = capsys.readouterr().out
        assert "cache:         cold (no cache file)" in first
        assert "mode:               cold" in first
        assert (image.parent / (image.name + ".sum2")).exists()

        assert cli.main(
            ["analyze", str(image), "--incremental", "--stats"]
        ) == 0
        second = capsys.readouterr().out
        assert "warm" in second
        assert "reanalyzed:    0 routines" in second
        assert "phase1 solved:      0" in second

    def test_explicit_cache_path(self, tmp_path, capsys):
        image = tmp_path / "bench.img"
        cache = tmp_path / "facts.sum2"
        cli.main(
            ["generate", "compress", "--scale", "0.1", "--seed", "3",
             "-o", str(image)]
        )
        cli.main(
            ["analyze", str(image), "--incremental", "--cache", str(cache)]
        )
        assert cache.exists()
        capsys.readouterr()
        cli.main(
            ["analyze", str(image), "--incremental", "--cache", str(cache)]
        )
        assert "warm" in capsys.readouterr().out

    def test_unreadable_cache_falls_back_to_cold(self, tmp_path, capsys):
        image = tmp_path / "bench.img"
        cache = tmp_path / "facts.sum2"
        cli.main(
            ["generate", "compress", "--scale", "0.1", "--seed", "3",
             "-o", str(image)]
        )
        cache.write_bytes(b"garbage")
        capsys.readouterr()
        assert cli.main(
            ["analyze", str(image), "--incremental", "--cache", str(cache)]
        ) == 0
        out = capsys.readouterr().out
        assert "unreadable cache" in out

    def test_legacy_sum2_sidecar_is_a_cold_start_and_gets_rewritten(
        self, tmp_path, capsys
    ):
        # tests/golden/legacy.sum2 was written by the last commit whose
        # sidecar magic was SUM2 (no front-end record section),
        # legacy.sum3 by the last one whose magic was SUM3 (every body
        # read eagerly, no fragments), and legacy.sum4 by the last one
        # whose magic was SUM4 (no recorded inputs), and legacy.sum5 by
        # the last one writing SUM5 version 1 (front-end records by
        # routine name), for the very image below.  Each sits at the
        # default IMAGE.sum2 path: the run must say why it starts cold,
        # succeed, and leave a SUM5 sidecar the next run warms from.
        import json
        import os

        image = tmp_path / "bench.img"
        sidecar = tmp_path / "bench.img.sum2"
        cli.main(
            ["generate", "compress", "--scale", "0.1", "--seed", "7",
             "-o", str(image)]
        )
        for magic, why in (
            (b"SUM2", "bad magic"), (b"SUM3", "bad magic"),
            (b"SUM4", "bad magic"), (b"SUM5", "unsupported pack v1"),
        ):
            legacy = os.path.join(
                os.path.dirname(__file__), "golden",
                f"legacy.{magic.decode().lower()}",
            )
            with open(legacy, "rb") as handle:
                blob = handle.read()
            assert blob[:4] == magic
            with pytest.raises(SummaryFormatError, match=why):
                load_cache(blob)
            sidecar.write_bytes(blob)
            capsys.readouterr()
            assert cli.main(
                ["analyze", str(image), "--incremental", "--json"]
            ) == 0
            first = json.loads(capsys.readouterr().out)
            assert first["cache"].startswith(f"cold (unreadable cache: {why}")
            assert first["mode"] == "cold"
            rewritten = sidecar.read_bytes()
            assert rewritten[:4] == b"SUM5"
            rewritten_cache = load_cache(rewritten)
            assert rewritten_cache.frontend_records
            # Fragments only of this image's routine bodies (a serial,
            # store-less cold run writes one for every body; the
            # sharded path and store adoptions build no PSG to take
            # them from).
            assert set(rewritten_cache.fragments) <= set(
                rewritten_cache.frontend_records
            )
            assert cli.main(
                ["analyze", str(image), "--incremental", "--json"]
            ) == 0
            second = json.loads(capsys.readouterr().out)
            assert second["cache"].startswith("warm")
            assert second["cfgs_built"] == 0
            assert second["summaries_crc64"] == first["summaries_crc64"]

    def test_cache_path_is_directory_falls_back_to_cold(
        self, tmp_path, capsys
    ):
        # An OSError on the cache read (here: the path is a directory)
        # takes the same cold fallback as malformed content; the failed
        # cache write at the end is reported as exit code 5 (not a
        # traceback) with the analysis output still printed.
        image = tmp_path / "bench.img"
        cache = tmp_path / "cachedir"
        cache.mkdir()
        cli.main(
            ["generate", "compress", "--scale", "0.1", "--seed", "3",
             "-o", str(image)]
        )
        capsys.readouterr()
        assert cli.main(
            ["analyze", str(image), "--incremental", "--cache", str(cache)]
        ) == cli.EXIT_CACHE_IO
        captured = capsys.readouterr()
        assert "unreadable cache" in captured.out
        assert "could not write cache" in captured.err

    def test_stats_without_incremental_prints_counters(
        self, tmp_path, capsys
    ):
        image = tmp_path / "bench.img"
        cli.main(
            ["generate", "compress", "--scale", "0.1", "--seed", "3",
             "-o", str(image)]
        )
        capsys.readouterr()
        assert cli.main(["analyze", str(image), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "solver.iterations{phase=phase1}" in out

    def test_annotate_rejected_with_incremental(self, tmp_path, capsys):
        image = tmp_path / "bench.img"
        cli.main(
            ["generate", "compress", "--scale", "0.1", "--seed", "3",
             "-o", str(image)]
        )
        capsys.readouterr()
        assert cli.main(
            ["analyze", str(image), "--incremental", "--annotate"]
        ) == 2
