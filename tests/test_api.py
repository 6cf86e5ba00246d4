"""Contract tests for the :mod:`repro.api` session facade.

The facade is the supported entry point: everything a caller needs —
construction from bytes/image/path/program, whole-program analysis,
incremental re-analysis, optimization, summaries and
metrics — must be reachable from :class:`repro.api.AnalysisSession`
without importing submodule internals.  The legacy free functions are
deprecated shims that must keep forwarding their arguments faithfully.
"""

import dataclasses
import json
import warnings

import pytest

from repro.api import AnalysisConfig, AnalysisError, AnalysisSession
from repro.interproc import dump_summaries
from repro.program.asm import assemble
from repro.program.image import ImageFormatError

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


@pytest.fixture(scope="module")
def image():
    return assemble(SOURCE)


@pytest.fixture(scope="module")
def image_bytes(image):
    return image.to_bytes()


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------


class TestConstruction:
    def test_from_image_bytes(self, image_bytes):
        session = AnalysisSession.from_image_bytes(image_bytes)
        assert session.program.routine_count == 2
        assert session.image_fingerprint != 0

    def test_session_drops_the_bytes_once_fingerprinted(self, image_bytes):
        """Hashed by the session or assigned by whoever hashed them (the
        daemon's registry), the fingerprint is all the bytes were kept
        for: the session no longer refers to them afterwards."""
        from repro.interproc.persist import image_fingerprint
        from repro.service.registry import SessionRegistry

        def holds(session, blob):
            return any(value is blob for value in vars(session).values())

        blob = bytes(bytearray(image_bytes))  # an object only this test holds
        session = AnalysisSession.from_image_bytes(blob)
        assert holds(session, blob)
        assert session.image_fingerprint == image_fingerprint(blob)
        assert not holds(session, blob)
        assert session.image_fingerprint == image_fingerprint(blob)
        entry = SessionRegistry().acquire("tenant", blob)
        assert not holds(entry.session, blob)
        assert entry.session.image_fingerprint == image_fingerprint(blob)

    def test_from_image_bytes_rejects_garbage(self):
        with pytest.raises(ImageFormatError):
            AnalysisSession.from_image_bytes(b"not an image")

    def test_from_image_bytes_names_an_undecodable_word(self, image):
        # The *second* of two bad words is never reported: decoding
        # stops at the first, as it did before words were shared.
        bad = b"\x00\x00\x00\x04"
        text = image.text[:8] + bad + bad + image.text[16:]
        blob = dataclasses.replace(image, text=text).to_bytes()
        with pytest.raises(ImageFormatError) as excinfo:
            AnalysisSession.from_image_bytes(blob)
        message = str(excinfo.value)
        assert f"word at {image.text_base + 8:#x}" in message
        assert "unknown major opcode 0x1" in message

    def test_from_image(self, image):
        session = AnalysisSession.from_image(image)
        assert "helper" in session.program.routine_names()

    def test_from_path(self, image_bytes, tmp_path):
        path = tmp_path / "prog.sax"
        path.write_bytes(image_bytes)
        session = AnalysisSession.from_path(str(path))
        assert session.program.routine_count == 2

    def test_from_path_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            AnalysisSession.from_path(str(tmp_path / "absent.sax"))

    def test_from_program_has_no_fingerprint(self, quick_program):
        session = AnalysisSession.from_program(quick_program)
        assert session.image_fingerprint == 0

    def test_config_retained(self, quick_program):
        config = AnalysisConfig(callee_saved_filtering=False)
        session = AnalysisSession.from_program(quick_program, config)
        assert session.config is config

    def test_removed_jobs_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="jobs"):
            AnalysisConfig(jobs=2)

    def test_removed_solver_core_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="solver_core"):
            AnalysisConfig(solver_core="object")
        # The constant the frozen perf/ replay reads is still there.
        assert AnalysisConfig().solver_core is None

    def test_construction_does_not_analyze(self, quick_program):
        session = AnalysisSession.from_program(quick_program)
        assert session.metrics() == {}


# ----------------------------------------------------------------------
# Analyses through the facade
# ----------------------------------------------------------------------


class TestAnalyze:
    def test_serial(self, quick_program):
        session = AnalysisSession.from_program(quick_program)
        analysis = session.analyze()
        assert "helper" in analysis.result.summaries
        assert session.metrics()["kind"] == "serial"

    def test_incremental_cold_then_warm(self, quick_program):
        session = AnalysisSession.from_program(quick_program)
        cold = session.analyze_incremental()
        assert cold.metrics.cold
        warm = session.analyze_incremental(cache=cold.cache)
        assert warm.metrics.phase1_solved == 0
        assert warm.metrics.phase2_solved == 0
        assert session.metrics()["kind"] == "incremental"

    def test_optimize(self, quick_program):
        session = AnalysisSession.from_program(quick_program)
        result = session.optimize(verify=True)
        assert result.behaviour_preserved()
        # The session itself is untouched by optimization.
        assert session.program is quick_program

    def test_optimize_forwards_passes(self, quick_program):
        session = AnalysisSession.from_program(quick_program)
        result = session.optimize(passes=("dce",))
        assert [report.name for report in result.reports] == ["dce"]

    def test_optimize_rejects_unknown_pass(self, quick_program):
        session = AnalysisSession.from_program(quick_program)
        with pytest.raises(ValueError, match="unknown pass"):
            session.optimize(passes=("nonsense",))

    def test_summaries_lazily_analyzes(self, quick_program):
        session = AnalysisSession.from_program(quick_program)
        result = session.summaries()
        assert "helper" in result.summaries
        assert session.summary("helper") is result.summaries["helper"]
        assert session.metrics()["kind"] == "serial"

    def test_metrics_are_json_ready(self, quick_program):
        session = AnalysisSession.from_program(quick_program)
        session.analyze()
        payload = json.loads(json.dumps(session.metrics(), sort_keys=True))
        assert payload["kind"] == "serial"
        assert payload["routines"] == quick_program.routine_count


# ----------------------------------------------------------------------
# The worker count is gone: jobs=1 is the one value the facade accepts
# ----------------------------------------------------------------------


class TestRemovedJobs:
    def test_jobs_one_is_accepted(self, quick_program):
        serial = AnalysisSession.from_program(quick_program).analyze()
        session = AnalysisSession.from_program(quick_program)
        analysis = session.analyze(jobs=1)
        assert dump_summaries(analysis.result) == dump_summaries(
            serial.result
        )
        warm = session.analyze_incremental(
            cache=session.analyze_incremental(jobs=1).cache, jobs=1
        )
        assert warm.metrics.phase2_solved == 0

    @pytest.mark.parametrize("jobs", [2, 0, -1, None])
    def test_any_other_value_is_a_value_error(self, quick_program, jobs):
        session = AnalysisSession.from_program(quick_program)
        with pytest.raises(ValueError, match="jobs must be 1"):
            session.analyze(jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be 1"):
            session.analyze_incremental(jobs=jobs)
        assert session.metrics() == {}

    def test_env_var_is_not_read(self, quick_program, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        session = AnalysisSession.from_program(quick_program)
        session.analyze()
        assert session.metrics()["kind"] == "serial"


# ----------------------------------------------------------------------
# The deprecated free functions are gone; the facade is the surface
# ----------------------------------------------------------------------


class TestShimRemoval:
    def test_free_functions_are_gone(self):
        import repro
        import repro.interproc
        import repro.interproc.analysis
        import repro.interproc.incremental
        import repro.opt
        import repro.opt.pipeline

        removed = {
            repro: ("analyze_program", "analyze_image", "optimize_program"),
            repro.interproc: ("analyze_program", "analyze_incremental"),
            repro.interproc.analysis: ("analyze_program", "analyze_image"),
            repro.interproc.incremental: ("analyze_incremental",),
            repro.opt: ("optimize_program",),
            repro.opt.pipeline: ("optimize_program",),
        }
        for module, names in removed.items():
            for name in names:
                assert not hasattr(module, name), (
                    f"{module.__name__}.{name} should have been removed"
                )

    def test_api_all_is_the_stable_surface(self):
        import repro.api as api

        assert set(api.__all__) == {
            "AnalysisConfig",
            "AnalysisError",
            "AnalysisResult",
            "AnalysisSession",
            "QueryResult",
            "RoutineSummary",
            "SCHEMA_VERSION",
            "SummarySet",
            "UnknownRoutineError",
            "validate_payload",
        }
        for name in api.__all__:
            assert hasattr(api, name)

    def test_facade_paths_do_not_warn(self, quick_program):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = AnalysisSession.from_program(quick_program)
            session.analyze()
            session.analyze_incremental()
            session.optimize(passes=("dce",))
            session.to_json()


# ----------------------------------------------------------------------
# Top-level package exposure
# ----------------------------------------------------------------------


class TestTopLevelExports:
    def test_session_importable_from_repro(self):
        import repro

        assert repro.AnalysisSession is AnalysisSession
        assert repro.AnalysisError is AnalysisError
        assert "AnalysisSession" in repro.__all__
