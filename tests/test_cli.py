"""Tests for the spike-analyze command-line interface."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.program.asm import assemble

SOURCE = """
.routine main export
    li  a0, 5
    bsr ra, helper
    bis zero, v0, a0
    output
    halt
.routine helper
    addq a0, #1, v0
    ret (ra)
"""


@pytest.fixture()
def image_path(tmp_path):
    path = tmp_path / "prog.sax"
    path.write_bytes(assemble(SOURCE).to_bytes())
    return str(path)


class TestAnalyze:
    def test_analyze_prints_measurements(self, image_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["analyze", image_path]) == 0
        out = capsys.readouterr().out
        assert "routines:" in out
        assert "psg nodes:" in out
        assert "phase1" in out

    def test_analyze_routine_summary(self, image_path, capsys):
        assert main(["analyze", image_path, "-r", "helper"]) == 0
        out = capsys.readouterr().out
        assert "call-used" in out
        assert "a0" in out

    @pytest.mark.parametrize("labeling", ["batched", "per-target", "per-edge"])
    def test_labeling_strategies_identical_summaries(
        self, labeling, image_path, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        sidecar = str(tmp_path / f"{labeling}.sum")
        assert main(
            ["analyze", image_path, "--labeling", labeling,
             "--save-summaries", sidecar]
        ) == 0
        baseline = str(tmp_path / "default.sum")
        assert main(
            ["analyze", image_path, "--save-summaries", baseline]
        ) == 0
        capsys.readouterr()
        with open(sidecar, "rb") as handle:
            with open(baseline, "rb") as expected:
                assert handle.read() == expected.read()

    def test_bad_labeling_rejected(self, image_path, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", image_path, "--labeling", "bogus"])

    @pytest.mark.parametrize("command", ["analyze", "query"])
    def test_removed_solver_core_flag_is_a_usage_error(
        self, command, image_path, capsys
    ):
        argv = [command, image_path, "--solver-core", "flat"]
        if command == "query":
            argv.insert(2, "main")
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "usage: spike-analyze" in err
        assert "unrecognized arguments: --solver-core flat" in err


class TestDisasm:
    def test_listing(self, image_path, capsys):
        assert main(["disasm", image_path]) == 0
        out = capsys.readouterr().out
        assert "helper:" in out
        assert "addq" in out


class TestRun:
    def test_outputs(self, image_path, capsys):
        assert main(["run", image_path]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "6"
        assert "steps=" in out


class TestGenerate:
    def test_generates_image(self, tmp_path, capsys):
        output = str(tmp_path / "bench.sax")
        code = main(
            ["generate", "compress", "-o", output, "--scale", "0.05",
             "--seed", "3"]
        )
        assert code == 0
        assert "routines" in capsys.readouterr().out
        assert main(["run", output, "--max-steps", "2000000"]) == 0


class TestOptimize:
    def test_optimize_writes_image(self, image_path, tmp_path, capsys):
        output = str(tmp_path / "opt.sax")
        assert main(["optimize", image_path, "-o", output, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "instructions removed" in out
        assert "dynamic improvement" in out
        # The optimized image must still run and print the same value.
        assert main(["run", output]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "6"


class TestAnalyzeOutputs:
    def test_save_summaries(self, image_path, tmp_path, capsys):
        sidecar = str(tmp_path / "prog.sum")
        assert main(["analyze", image_path, "--save-summaries", sidecar]) == 0
        from repro.interproc.persist import image_fingerprint, load_summaries

        with open(image_path, "rb") as handle:
            fingerprint = image_fingerprint(handle.read())
        with open(sidecar, "rb") as handle:
            result = load_summaries(handle.read(), fingerprint)
        assert "helper" in result

    def test_summaries_subcommand(self, image_path, tmp_path, capsys):
        sidecar = str(tmp_path / "prog.sum")
        assert main(["analyze", image_path, "--save-summaries", sidecar]) == 0
        capsys.readouterr()
        assert main(["summaries", sidecar]) == 0
        out = capsys.readouterr().out
        assert "helper:" in out
        assert "call-used" in out

    def test_annotate_flag(self, image_path, capsys):
        assert main(["analyze", image_path, "--annotate"]) == 0
        out = capsys.readouterr().out
        assert "used on return" in out

    def test_dot_export(self, image_path, tmp_path, capsys):
        dot_path = str(tmp_path / "psg.dot")
        assert main(
            ["analyze", image_path, "--dot", dot_path, "--dot-routine", "main"]
        ) == 0
        content = open(dot_path).read()
        assert content.startswith("digraph")
        assert "entry@main" in content


class TestBenchmarks:
    def test_lists_all_sixteen(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out and "winword" in out
        assert len(out.strip().splitlines()) == 16


class TestParallelFlag:
    def test_jobs_two_prints_pool_stats(self, image_path, capsys):
        assert main(["analyze", image_path, "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "jobs:               2" in out
        assert "pool utilization:" in out

    def test_jobs_same_summaries_as_serial(self, image_path, capsys):
        assert main(["analyze", image_path, "-r", "helper"]) == 0
        serial = capsys.readouterr().out
        assert main(
            ["analyze", image_path, "--jobs", "2", "-r", "helper"]
        ) == 0
        parallel = capsys.readouterr().out
        split = "\nhelper:\n"
        assert serial.split(split)[1] == parallel.split(split)[1]

    def test_annotate_needs_serial(self, image_path, capsys):
        code = main(["analyze", image_path, "--annotate", "--jobs", "2"])
        assert code == 2
        assert "whole-program PSG" in capsys.readouterr().err


class TestJsonFlag:
    def test_serial_payload(self, image_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["analyze", image_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "serial"
        assert payload["routines"] == 2
        assert payload["instructions"] > 0
        assert "stage_seconds" in payload

    def test_parallel_payload(self, image_path, capsys):
        assert main(["analyze", image_path, "--jobs", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "parallel"
        assert payload["jobs"] == 2
        assert payload["shard_count"] >= 1

    def test_incremental_payload(self, image_path, capsys):
        args = ["analyze", image_path, "--incremental", "--json"]
        assert main(args) == 0
        captured = capsys.readouterr()
        # The cache-write note must not pollute the JSON stdout.
        assert "wrote cache" in captured.err
        cold = json.loads(captured.out)
        assert cold["kind"] == "incremental"
        assert cold["mode"] == "cold"
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["mode"] == "warm"
        assert warm["phase2_solved"] == 0

    def test_save_summaries_keeps_json_stdout_parseable(
        self, image_path, tmp_path, capsys
    ):
        out = tmp_path / "a.sum"
        args = [
            "analyze", image_path, "--json", "--jobs", "1",
            "--save-summaries", str(out),
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "wrote summaries" in captured.err
        payload = json.loads(captured.out)
        assert payload["kind"] == "serial"
        assert out.read_bytes().startswith(b"SUM")


class TestExitCodes:
    def test_missing_image_is_3(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.sax")]) == 3
        assert "cannot load image" in capsys.readouterr().err

    def test_corrupt_image_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.sax"
        bad.write_bytes(b"definitely not an image")
        assert main(["analyze", str(bad)]) == 3
        assert main(["disasm", str(bad)]) == 3
        assert main(["run", str(bad)]) == 3
        assert main(["optimize", str(bad), "-o", str(tmp_path / "o")]) == 3

    def test_hostile_symbol_tables_are_3(
        self, tmp_path, capsys, hostile_symbol_tables
    ):
        # A name that is not UTF-8, a zero-size routine, a routine at
        # an address 2 (mod 4): bad input, not a traceback.
        hostile = hostile_symbol_tables(assemble(SOURCE).to_bytes())
        assert len(hostile) == 3
        for name, blob in hostile.items():
            bad = tmp_path / f"{name}.sax"
            bad.write_bytes(blob)
            for command in (["analyze"], ["query", "main"], ["disasm"]):
                assert main([command[0], str(bad)] + command[1:]) == 3, name
                err = capsys.readouterr().err
                assert err.startswith("cannot load image")
                assert len(err.strip().splitlines()) == 1

    def test_undecodable_text_word_is_3(self, tmp_path, capsys):
        # A structurally valid image whose second text word no
        # instruction format claims: bad input, not a traceback.
        image = assemble(SOURCE)
        text = image.text[:4] + b"\x00\x00\x00\x04" + image.text[8:]
        bad = tmp_path / "badword.sax"
        bad.write_bytes(dataclasses.replace(image, text=text).to_bytes())
        for command in (["analyze"], ["query", "main"], ["disasm"]):
            assert main([command[0], str(bad)] + command[1:]) == 3
            err = capsys.readouterr().err
            assert "cannot load image" in err
            assert f"{image.text_base + 4:#x}" in err
            assert "unknown major opcode 0x1" in err

    def test_analysis_failure_is_4(self, image_path, capsys, monkeypatch):
        from repro.interproc import parallel

        def explode(phase, shard_index):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(parallel, "_FAULT_HOOK", explode)
        assert main(["analyze", image_path, "--jobs", "2"]) == 4
        assert "analysis failed" in capsys.readouterr().err

    def test_unwritable_cache_is_5(self, image_path, tmp_path, capsys):
        cache_dir = tmp_path / "cache.sum2"
        cache_dir.mkdir()
        code = main(
            ["analyze", image_path, "--incremental", "--cache",
             str(cache_dir)]
        )
        assert code == 5
        captured = capsys.readouterr()
        assert "could not write cache" in captured.err
        # The analysis itself still ran and printed its report.
        assert "reanalyzed:" in captured.out

    def test_unwritable_trace_is_5(self, image_path, tmp_path, capsys):
        trace_dir = tmp_path / "trace.json"
        trace_dir.mkdir()
        code = main(["analyze", image_path, "--trace", str(trace_dir)])
        assert code == 5
        captured = capsys.readouterr()
        assert "could not write trace" in captured.err
        # The analysis itself still ran and printed its report.
        assert "routines:" in captured.out

    def test_bad_log_level_is_2(self, image_path, capsys):
        assert main(["--log-level", "bogus", "analyze", image_path]) == 2
        assert "bogus" in capsys.readouterr().err


class TestQuerySubcommand:
    def test_cold_then_warm(self, image_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["query", image_path, "helper"]) == 0
        first = capsys.readouterr().out
        assert "routine:       helper" in first
        assert "cold (no cache file)" in first
        assert "live-at-entry" in first
        assert "wrote cache" in first
        import os as _os

        assert _os.path.exists(image_path + ".sum2")
        assert main(["query", image_path, "helper"]) == 0
        second = capsys.readouterr().out
        assert "warm" in second
        assert "reanalyzed:    0 routines" in second

    def test_json_payload(self, image_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["query", image_path, "main", "--json"]) == 0
        captured = capsys.readouterr()
        # The cache-write note must not pollute the JSON stdout.
        assert "wrote cache" in captured.err
        payload = json.loads(captured.out)
        assert payload["kind"] == "query"
        assert payload["routine"] == "main"
        assert payload["summary"]["routine"] == "main"
        assert "live_at_entry" in payload["summary"]
        assert "live_at_exit" in payload["summary"]
        assert "query.requests" in payload["counters"]

    def test_stats_block(self, image_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["query", image_path, "helper", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "query.requests" in out

    def test_unknown_routine_is_2(self, image_path, capsys):
        assert main(["query", image_path, "nonexistent"]) == 2
        assert "no routine named 'nonexistent'" in capsys.readouterr().err

    def test_missing_image_is_3(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "absent.sax"), "main"]) == 3
        assert "cannot load image" in capsys.readouterr().err

    def test_unwritable_cache_is_5(self, image_path, tmp_path, capsys):
        cache_dir = tmp_path / "cache.sum2"
        cache_dir.mkdir()
        code = main(
            ["query", image_path, "helper", "--cache", str(cache_dir)]
        )
        assert code == 5
        captured = capsys.readouterr()
        assert "could not write cache" in captured.err
        # The query itself still ran and printed its answer.
        assert "live-at-entry" in captured.out

    def test_shares_sidecar_with_incremental_analyze(
        self, image_path, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        cache = str(tmp_path / "facts.sum2")
        assert main(
            ["analyze", image_path, "--incremental", "--cache", cache]
        ) == 0
        capsys.readouterr()
        assert main(
            ["query", image_path, "helper", "--cache", cache]
        ) == 0
        out = capsys.readouterr().out
        assert "warm" in out
        assert "reanalyzed:    0 routines" in out
        # And the refreshed sidecar warms a later incremental run.
        assert main(
            ["analyze", image_path, "--incremental", "--cache", cache]
        ) == 0
        assert "reanalyzed:    0 routines" in capsys.readouterr().out


class TestJobsEnvHardening:
    """Malformed REPRO_JOBS is a usage error (exit 2), not a traceback;
    0 and negative keep their documented one-worker-per-CPU meaning."""

    @pytest.mark.parametrize(
        "args",
        [["analyze"], ["analyze", "--incremental"], ["query", "helper"]],
        ids=["analyze", "incremental", "query"],
    )
    def test_garbage_value_is_2(self, args, image_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "banana")
        command = [args[0], image_path] + args[1:]
        assert main(command) == 2
        err = capsys.readouterr().err
        assert "REPRO_JOBS must be an integer" in err
        assert "banana" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_zero_and_negative_mean_one_per_cpu(
        self, value, image_path, capsys, monkeypatch
    ):
        from repro.interproc import parallel

        monkeypatch.setenv("REPRO_JOBS", value)
        monkeypatch.setattr(
            parallel.multiprocessing, "cpu_count", lambda: 2
        )
        assert main(["analyze", image_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "parallel"
        assert payload["jobs"] == 2
        # query validates the same setting (and solves serially).
        assert main(["query", image_path, "helper"]) == 0
        assert "routine:       helper" in capsys.readouterr().out


class TestAnnotateJobsWarning:
    def test_forced_serial_warns_when_env_set(
        self, image_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert main(["analyze", image_path, "--annotate"]) == 0
        captured = capsys.readouterr()
        assert "force a serial solve" in captured.err
        assert "ignoring REPRO_JOBS" in captured.err
        assert "call-used" in captured.out

    def test_no_warning_without_env(self, image_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["analyze", image_path, "--annotate"]) == 0
        assert "force a serial solve" not in capsys.readouterr().err


class TestStatsFlag:
    """--stats works for every analyze mode, not just --incremental."""

    def test_cold_serial_stats(self, image_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["analyze", image_path, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "solver.iterations{phase=phase1}" in out
        assert "psg.nodes" in out

    def test_cold_parallel_stats(self, image_path, capsys):
        assert main(["analyze", image_path, "--jobs", "2", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "pool utilization:" in out
        assert "counters:" in out
        assert "shards.solved{phase=phase1}" in out


class TestTraceFlag:
    def test_trace_writes_chrome_trace_json(
        self, image_path, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        trace = tmp_path / "trace.json"
        assert main(["analyze", image_path, "--trace", str(trace)]) == 0
        assert "wrote trace to" in capsys.readouterr().out
        document = json.loads(trace.read_text())
        events = document["traceEvents"]
        durations = [event for event in events if event["ph"] == "X"]
        assert durations
        names = {event["name"] for event in durations}
        assert "analyze" in names
        assert "psg.build" in names
        for event in durations:
            assert event["ts"] >= 0 and event["dur"] >= 0

    def test_trace_with_json_keeps_stdout_parseable(
        self, image_path, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        assert main(
            ["analyze", image_path, "--json", "--trace", str(trace)]
        ) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["kind"] in ("serial", "parallel")
        assert "wrote trace to" in captured.err


class TestReportSubcommand:
    def test_report_prints_hot_routine_table(self, image_path, capsys):
        assert main(["report", image_path]) == 0
        out = capsys.readouterr().out
        assert "Hot routines by worklist visits" in out
        assert "Routine" in out and "Phase1 visits" in out
        assert "main" in out and "helper" in out
        assert "solver iterations:" in out

    def test_report_json(self, image_path, capsys):
        assert main(["report", image_path, "--json", "--top", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["hot_routines"]) == 1
        row = payload["hot_routines"][0]
        assert row["total"] == row["phase1"] + row["phase2"] > 0
        assert "solver.iterations{phase=phase1}" in payload["counters"]

    def test_report_missing_image_is_3(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.sax")]) == 3
        assert "cannot load image" in capsys.readouterr().err

    def test_report_restores_per_routine_flag(self, image_path, capsys):
        from repro.obs import REGISTRY

        assert REGISTRY.per_routine is False
        assert main(["report", image_path]) == 0
        assert REGISTRY.per_routine is False


class TestJsonCounters:
    def test_payload_includes_counters(self, image_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["analyze", image_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        counters = payload["counters"]
        assert counters["solver.iterations{phase=phase1}"] > 0
        assert counters["solver.iterations{phase=phase2}"] > 0
        # Seeded keys are present even when the run never touched them.
        assert counters["cache.hit"] == 0
        assert counters["cache.miss"] == 0

    def test_incremental_payload_counts_cache_verdicts(
        self, image_path, tmp_path, capsys
    ):
        cache = str(tmp_path / "prog.sum2")
        args = [
            "analyze", image_path, "--incremental", "--cache", cache,
            "--json",
        ]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out.split("wrote cache")[0])
        assert cold["counters"]["cache.miss"] == 2
        assert cold["counters"]["cache.hit"] == 0
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out.split("wrote cache")[0])
        assert warm["counters"]["cache.hit"] == 2
        assert warm["counters"]["cache.miss"] == 0


class TestIncrementalParallel:
    def test_warm_jobs_two_with_stats(self, image_path, tmp_path, capsys):
        cache = str(tmp_path / "prog.sum2")
        base = ["analyze", image_path, "--incremental", "--cache", cache]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--jobs", "2", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "mode:               warm" in out
        assert "pool utilization:" in out


class TestAtomicByproductWrites:
    """A writer that dies mid-dump must leave the previous sidecar
    intact — never a truncated file that silently forces the next run
    cold (or worse, fails to parse)."""

    def _cold_cache(self, image_path, tmp_path):
        cache = str(tmp_path / "prog.sum2")
        assert main(
            ["analyze", image_path, "--incremental", "--cache", cache]
        ) == 0
        with open(cache, "rb") as handle:
            return cache, handle.read()

    def test_failed_replace_keeps_previous_cache(
        self, image_path, tmp_path, monkeypatch, capsys
    ):
        import os

        cache, good = self._cold_cache(image_path, tmp_path)
        real_replace = os.replace

        def failing_replace(src, dst, *args, **kwargs):
            if str(dst) == cache:
                raise OSError("simulated crash mid-dump")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr("repro.cli.os.replace", failing_replace)
        code = main(["analyze", image_path, "--incremental", "--cache", cache])
        assert code == 5  # EXIT_CACHE_IO
        assert "could not write cache" in capsys.readouterr().err
        with open(cache, "rb") as handle:
            assert handle.read() == good
        # The aborted write cleaned up its temp file.
        assert [p.name for p in tmp_path.iterdir() if ".tmp." in p.name] == []

    def test_sigkill_mid_dump_keeps_previous_cache(self, image_path, tmp_path):
        import os
        import subprocess
        import sys

        cache, good = self._cold_cache(image_path, tmp_path)
        # Re-run the CLI in a child that SIGKILLs itself at the rename:
        # the temp file is fully written, the dump genuinely dies, and
        # the published sidecar must still be the previous bytes.
        script = (
            "import os, signal, sys\n"
            "from repro.cli import main\n"
            "real = os.replace\n"
            "def die(src, dst):\n"
            "    if str(dst) == sys.argv[2]:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return real(src, dst)\n"
            "os.replace = die\n"
            "sys.exit(main(['analyze', sys.argv[1], '--incremental',\n"
            "               '--cache', sys.argv[2]]))\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", script, image_path, cache],
            env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
            capture_output=True,
        )
        assert proc.returncode == -9
        with open(cache, "rb") as handle:
            assert handle.read() == good
        # The orphaned temp does not confuse the next warm run.
        assert main(
            ["analyze", image_path, "--incremental", "--cache", cache]
        ) == 0

    def test_failed_summaries_write_keeps_previous_file(
        self, image_path, tmp_path, monkeypatch, capsys
    ):
        import os

        sidecar = str(tmp_path / "prog.sum")
        assert main(
            ["analyze", image_path, "--save-summaries", sidecar]
        ) == 0
        with open(sidecar, "rb") as handle:
            good = handle.read()
        real_replace = os.replace

        def failing_replace(src, dst, *args, **kwargs):
            if str(dst) == sidecar:
                raise OSError("simulated crash mid-dump")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr("repro.cli.os.replace", failing_replace)
        code = main(["analyze", image_path, "--save-summaries", sidecar])
        assert code == 5
        with open(sidecar, "rb") as handle:
            assert handle.read() == good
