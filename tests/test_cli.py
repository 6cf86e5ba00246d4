"""Tests for the spike-analyze command-line interface."""

import dataclasses
import errno
import json
import os
from pathlib import Path

import pytest

from repro.api import AnalysisConfig, AnalysisSession
from repro.cli import main
from repro.interproc import persist
from repro.interproc import store as store_module
from repro.interproc.persist import dump_summaries
from repro.program.asm import assemble
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.shapes import shape_by_name
from tests.hostile_code import two_bad_words
from tests.label_oracle import labeling as oracle_labeling

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


#: Faults at its load (an unaligned address).
FAULT_SOURCE = """
.routine main
    li  a0, 3
    ldq t0, 0(a0)
    halt
"""

#: Never halts.
LOOP_SOURCE = """
.routine main
loop:
    bsr ra, helper
    br  loop
.routine helper
    ret (ra)
"""

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture()
def image_path(tmp_path):
    path = tmp_path / "prog.sax"
    path.write_bytes(assemble(SOURCE).to_bytes())
    return str(path)


class TestAnalyze:
    def test_analyze_prints_measurements(self, image_path, capsys):
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
        self, labeling, image_path, tmp_path, capsys
    ):
        """The CLI's saved summaries equal those of a run labeled by the
        per-target and per-edge oracles, patched in."""
        sidecar = str(tmp_path / f"{labeling}.sum")
        with oracle_labeling(labeling):
            assert main(["analyze", image_path, "--save-summaries", sidecar]) == 0
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
        self._assert_usage_error(
            command, ["--solver-core", "flat"], image_path, capsys
        )

    @pytest.mark.parametrize("command", ["analyze", "query"])
    def test_removed_labeling_flag_is_a_usage_error(
        self, command, image_path, capsys
    ):
        self._assert_usage_error(
            command, ["--labeling", "per-target"], image_path, capsys
        )

    @pytest.mark.parametrize("command", ["analyze", "serve"])
    def test_removed_jobs_flag_is_a_usage_error(
        self, command, image_path, capsys
    ):
        self._assert_usage_error(command, ["--jobs", "2"], image_path, capsys)

    @pytest.mark.parametrize(
        "argv",
        [["store", "gc", "--store-dir", "{dir}"], ["serve", "--port", "0"]],
        ids=["store-gc", "serve"],
    )
    def test_negative_max_bytes_is_a_usage_error(self, argv, tmp_path, capsys):
        store = tmp_path / "store"
        (store / "packs").mkdir(parents=True)
        pack = store / "packs" / "kept.pack"
        pack.write_bytes(b"not read")
        argv = [arg.format(dir=store) for arg in argv]
        with pytest.raises(SystemExit) as caught:
            main([*argv, "--max-bytes", "-5"])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "usage: spike-analyze" in err
        assert "argument --max-bytes: must be at least 0, not -5" in err
        assert pack.exists()

    @staticmethod
    def _assert_usage_error(command, flag, image_path, capsys):
        argv = [command, image_path, *flag]
        if command == "query":
            argv.insert(2, "main")
        if command == "serve":
            argv.remove(image_path)
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "usage: spike-analyze" in err
        assert f"unrecognized arguments: {' '.join(flag)}" in err


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


class TestJsonFlag:
    def test_serial_payload(self, image_path, capsys):
        assert main(["analyze", image_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "serial"
        assert payload["routines"] == 2
        assert payload["instructions"] > 0
        assert "stage_seconds" in payload

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
            "analyze", image_path, "--json", "--save-summaries", str(out),
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

    def test_first_of_two_undecodable_words_is_named(self, tmp_path, capsys):
        image, address = two_bad_words(assemble(SOURCE))
        bad = tmp_path / "twobad.sax"
        bad.write_bytes(image.to_bytes())
        assert main(["analyze", str(bad)]) == 3
        assert capsys.readouterr().err == (
            f"cannot load image {bad}: undecodable instruction word at "
            f"{address:#x}: unknown major opcode 0x1\n"
        )

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["analyze", "{image}", "--dot", "{missing}/psg.dot"], 5,
             "could not write PSG dot"),
            (["generate", "compress", "--scale", "0.02", "-o", "{missing}/a.sax"],
             5, "could not write image"),
            (["optimize", "{image}", "-o", "{missing}/o.sax"], 5,
             "could not write optimized image"),
            (["analyze", "{image}", "-r", "nosuch"], 2, "no routine named 'nosuch'"),
            (["analyze", "{image}", "--incremental", "-r", "nosuch"], 2,
             "no routine named 'nosuch'"),
            (["analyze", "{image}", "--dot", "{tmp}/psg.dot", "--dot-routine",
              "nosuch"], 2, "no routine named 'nosuch'"),
            (["generate", "nosuch", "-o", "{tmp}/a.sax"], 2,
             "unknown benchmark 'nosuch'"),
        ],
        ids=["dot-path", "generate-path", "optimize-path", "routine",
             "incremental-routine", "dot-routine", "benchmark"],
    )
    def test_bad_output_path_or_name(
        self, image_path, tmp_path, capsys, argv, code, message
    ):
        """An unwritable output file exits 5 and an unknown name 2, each
        with one stderr line; a bad name writes nothing."""
        paths = {"image": image_path, "tmp": tmp_path, "missing": tmp_path / "no"}
        assert main([arg.format(**paths) for arg in argv]) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0]
        assert not any(tmp_path.glob("*.dot")) and not any(tmp_path.glob("a.sax"))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--port", "99999"],
             "argument --port: must be from 0 to 65535, not 99999"),
            (["serve", "--port", "-1"],
             "argument --port: must be from 0 to 65535, not -1"),
            (["report", "{image}", "--top", "-1"],
             "argument --top: must be at least 0, not -1"),
            *(
                (["generate", "compress", "-o", "{image}.out", "--scale", scale],
                 f"argument --scale: must be in (0, 1], not {scale}")
                for scale in ("0", "-1", "nan", "inf", "2", "1e300")
            ),
            *(
                (["run", "{image}", "--max-steps", steps],
                 f"argument --max-steps: must be at least 1, not {steps}")
                for steps in ("-1", "0")
            ),
            *(
                (["serve", "--trace-sample", sample],
                 f"argument --trace-sample: must be at least 1, not {sample}")
                for sample in ("0", "-3")
            ),
        ],
        ids=[
            "port-too-large", "port-negative", "top-negative",
            "scale-zero", "scale-negative", "scale-nan", "scale-inf",
            "scale-two", "scale-huge",
            "max-steps-negative", "max-steps-zero",
            "trace-sample-zero", "trace-sample-negative",
        ],
    )
    def test_out_of_range_option_is_2(self, image_path, capsys, argv, message):
        """A port outside 0..65535, a negative --top, a --scale outside
        (0, 1], a --max-steps below 1 or a --trace-sample below 1 is a
        usage error on one stderr line, not a traceback, a silently short
        list, a run that never ends, an execution failure or sampling
        silently turned off."""
        with pytest.raises(SystemExit) as caught:
            main([arg.format(image=image_path) for arg in argv])
        assert caught.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0]

    def test_analysis_failure_is_4(self, image_path, capsys, monkeypatch):
        from repro.interproc import analysis
        from repro.psg.build import PsgBuildError

        def explode(*_args, **_kwargs):
            raise PsgBuildError("synthetic failure")

        monkeypatch.setattr(analysis, "run_phase1", explode)
        assert main(["analyze", image_path]) == 4
        assert "analysis failed: synthetic failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, command, reason",
        [
            (FAULT_SOURCE, ["run"], "execution failed: unaligned load at 0x3"),
            (LOOP_SOURCE, ["run", "--max-steps", "100"],
             "execution failed: exceeded 100 steps"),
            (FAULT_SOURCE, ["optimize", "--verify"],
             "verification failed: unaligned load at 0x3"),
        ],
    )
    def test_execution_failure_is_4(
        self, source, command, reason, tmp_path, capsys
    ):
        path = tmp_path / "faulting.sax"
        path.write_bytes(assemble(source).to_bytes())
        argv = [command[0], str(path), *command[1:]]
        if command[0] == "optimize":
            argv += ["-o", str(tmp_path / "out.sax")]
        assert main(argv) == 4
        assert capsys.readouterr().err == reason + "\n"
        assert not (tmp_path / "out.sax").exists()

    def test_verify_mismatch_is_4(self, image_path, tmp_path, capsys, monkeypatch):
        from repro.opt.pipeline import OptimizationResult

        monkeypatch.setattr(
            OptimizationResult, "behaviour_preserved", lambda self: False
        )
        output = str(tmp_path / "out.sax")
        assert main(["optimize", image_path, "-o", output, "--verify"]) == 4
        err = capsys.readouterr().err
        assert err.startswith(
            "verification failed: optimization changed observable behaviour"
        )
        assert len(err.strip().splitlines()) == 1

    def test_unreadable_summaries_are_3(self, image_path, tmp_path, capsys):
        golden = (GOLDEN_DIR / "figure1.sum").read_bytes()
        truncated = tmp_path / "truncated.sum"
        truncated.write_bytes(golden[: len(golden) // 2])
        for path, reason in (
            (tmp_path / "absent.sum", "No such file or directory"),
            (image_path, "bad magic b'SAX1'"),
            (truncated, ""),
        ):
            assert main(["summaries", str(path)]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"cannot load summaries {path}: ")
            assert reason in err
            assert len(err.strip().splitlines()) == 1

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

    @pytest.mark.parametrize("command", ["analyze", "query"])
    def test_empty_cache_path_is_2(self, command, image_path, tmp_path, capsys):
        argv = [command, image_path, "--cache", ""]
        argv += ["--incremental"] if command == "analyze" else ["helper"]
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        assert "must not be empty" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["prog.sax"]

    def test_closed_stdout_is_141_without_a_traceback(self, tmp_path):
        import os
        import subprocess
        import sys

        image = str(tmp_path / "big.img")
        assert main(
            ["generate", "gcc", "--scale", "0.2", "--seed", "1", "-o", image]
        ) == 0
        # ``disasm IMAGE | head -1``: the reader leaves after one line,
        # with the listing (far past a pipe buffer) still being written.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "disasm", image],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH="src"),
            cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_bad_log_level_is_2(self, image_path, capsys):
        assert main(["--log-level", "bogus", "analyze", image_path]) == 2
        assert "bogus" in capsys.readouterr().err


class TestQuerySubcommand:
    def test_cold_then_warm(self, image_path, capsys):
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

    def test_json_payload(self, image_path, capsys):
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

    def test_stats_block(self, image_path, capsys):
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
        self, image_path, tmp_path, capsys
    ):
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


class TestJobsEnvIgnored:
    """REPRO_JOBS is not read: a garbage value changes nothing."""

    @pytest.mark.parametrize("mode", ["analyze", "incremental", "query"])
    def test_garbage_value_gives_identical_summaries(
        self, mode, image_path, tmp_path, capsys, monkeypatch
    ):
        def run(tag):
            cache = str(tmp_path / f"{tag}.sum2")
            saved = tmp_path / f"{tag}.sum"
            if mode == "query":
                argv = ["query", image_path, "helper", "--cache", cache]
            else:
                argv = ["analyze", image_path, "--save-summaries", str(saved)]
                if mode == "incremental":
                    argv += ["--incremental", "--cache", cache]
            assert main(argv + ["--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            summaries = saved.read_bytes() if mode != "query" else None
            return payload["summaries_crc64"], payload.get("summary"), summaries

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        plain = run("plain")
        monkeypatch.setenv("REPRO_JOBS", "garbage")
        assert run("garbage") == plain


class TestStatsFlag:
    """--stats works for every analyze mode, not just --incremental."""

    def test_cold_serial_stats(self, image_path, capsys):
        assert main(["analyze", image_path, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "solver.iterations{phase=phase1}" in out
        assert "psg.nodes" in out


class TestTraceFlag:
    def test_trace_writes_chrome_trace_json(
        self, image_path, tmp_path, capsys
    ):
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
        assert payload["kind"] == "serial"
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
    def test_payload_includes_counters(self, image_path, capsys):
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


class _FullFile:
    """A file open for writing on a full disk: it exists, but every
    write fails with ``ENOSPC``."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, _blob):
        _no_space()


def _no_space(*_args, **_kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestFullDisk:
    """``ENOSPC`` injected into the one atomic writer
    (``persist.atomic_write``) — in the temp file's write or in its
    ``os.replace`` — since root writes past permission bits: the
    previous output stays byte-identical, no temp file is left, the CLI
    exits 5 with one stderr line, and a store that cannot publish
    changes no summary."""

    @pytest.fixture(params=["write", "replace"])
    def full_disk(self, request, monkeypatch):
        """Arms the fault; the test calls it once the good outputs are
        on disk."""

        def arm():
            if request.param == "replace":
                monkeypatch.setattr(persist.os, "replace", _no_space)
                return

            def open_full(path, mode="r", *args, **kwargs):
                handle = open(path, mode, *args, **kwargs)
                return _FullFile(handle) if "w" in mode else handle

            monkeypatch.setattr(persist, "open", open_full, raising=False)

        return arm

    @pytest.mark.parametrize(
        "flags,what",
        [(["--incremental", "--cache"], "cache"),
         (["--save-summaries"], "summaries")],
        ids=["cache", "save-summaries"],
    )
    def test_previous_output_survives(
        self, image_path, tmp_path, capsys, full_disk, flags, what
    ):
        output = tmp_path / "prog.out"
        argv = ["analyze", image_path, *flags, str(output)]
        assert main(argv) == 0
        good = output.read_bytes()
        capsys.readouterr()
        full_disk()
        assert main(argv) == 5
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [
            f"could not write {what} to {output}: "
            f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        ]
        assert output.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir() if ".tmp." in p.name] == []

    def test_a_store_that_cannot_publish_changes_nothing(
        self, tmp_path, monkeypatch, full_disk
    ):
        program = generate_program(
            shape_by_name("compress").scaled(0.1), GeneratorConfig(seed=0)
        )
        alone = AnalysisSession.from_program(
            program, AnalysisConfig(store="off")
        ).analyze_incremental()
        written = []

        def spy(directory, blob):
            written.append(real_write_pack(directory, blob))
            return written[-1]

        real_write_pack = store_module._write_pack
        monkeypatch.setattr(store_module, "_write_pack", spy)
        full_disk()
        root = tmp_path / "store"
        stored = AnalysisSession.from_program(
            program, AnalysisConfig(store=store_module.SummaryStore(str(root)))
        ).analyze_incremental()
        assert written == [None]
        assert dump_summaries(stored.result) == dump_summaries(alone.result)
        assert [p.name for p in root.rglob("*") if p.is_file()] == []
