"""The cross-image summary store (:mod:`repro.interproc.store`).

Four layers of guarantees:

* **key derivation** — deep fingerprints are genuine Merkle hashes:
  a callee edit propagates to every transitive caller, two callees
  swapping bodies changes keys (pair binding), and the context digest
  binds exactly the result-changing configuration knobs;
* **record robustness** — all three record grades survive truncation
  at every byte offset and mutation of every byte with a clean
  :class:`SummaryFormatError` (a store read turns that into a miss,
  unlinks the record, and the next publish repairs it);
* **byte-identity** — analysis results are identical with the store
  enabled, disabled, missing its front-end grade, or poisoned, cold
  and warm, serial and parallel, including concurrent multiprocess
  readers and writers over one store directory;
* **the front-end grade** — a routine the store has seen never gets
  its CFG rebuilt, and a record that does not describe the routine it
  is filed under ends in a built CFG;
* **operations** — hit/miss/write/evict counters, LRU GC under a byte
  budget, stale temp sweeping, and the ``spike-analyze store`` CLI.
"""

import multiprocessing
import os

import pytest

from repro.api import AnalysisConfig, AnalysisSession
from repro.cli import EXIT_OK, EXIT_USAGE, main
from repro.cfg.cfg import FrontendRecord, RecordedSite
from repro.dataflow.equations import SummaryTriple
from repro.interproc.frontend import build_frontend, jump_tables, shape_key
from repro.interproc.persist import SummaryFormatError, dump_summaries
from repro.interproc.store import (
    STORE_ENV_VAR,
    SUFFIX_FRONTEND,
    SUFFIX_SUMMARY,
    SUFFIX_TRIPLE,
    StoreIdentityError,
    SummaryStore,
    config_digest,
    deep_fingerprints,
    dump_frontend_record,
    dump_summary_record,
    dump_triple_record,
    load_frontend_record,
    load_summary_record,
    load_triple_record,
    phase2_component_key,
    resolve_store,
    routine_record_key,
)
from repro.obs.metrics import REGISTRY
from repro.program.disasm import disassemble_image
from repro.program.linker import ObjectModule, link_modules
from tests.facade import analyze_incremental, analyze_program


# ----------------------------------------------------------------------
# Linked variants: two apps against one byte-identical mathlib
# ----------------------------------------------------------------------


def _build_app(version: int) -> ObjectModule:
    app = ObjectModule("app")
    app.extern("scale")
    app.routine("main", exported=True)
    app.memory("lda", "sp", -32, "sp")
    app.memory("stq", "ra", 0, "sp")
    app.li("a0", 4 + version)  # the only cross-variant difference
    app.bsr("scale")
    app.op("addq", "v0", version, "a0")
    app.output()
    app.memory("ldq", "ra", 0, "sp")
    app.memory("lda", "sp", 32, "sp")
    app.halt()
    return app


def _build_mathlib() -> ObjectModule:
    lib = ObjectModule("mathlib")
    lib.extern("offset")
    lib.routine("scale")
    lib.memory("lda", "sp", -16, "sp")
    lib.memory("stq", "ra", 0, "sp")
    lib.memory("stq", "s0", 8, "sp")
    lib.op("mulq", "a0", 3, "s0")
    lib.op("bis", "zero", "s0", "a0")
    lib.bsr("offset")
    lib.op("addq", "s0", "v0", "v0")
    lib.memory("ldq", "s0", 8, "sp")
    lib.memory("ldq", "ra", 0, "sp")
    lib.memory("lda", "sp", 16, "sp")
    lib.ret()
    return lib


def _build_util() -> ObjectModule:
    util = ObjectModule("util")
    util.routine("offset")
    util.op("addq", "a0", 7, "v0")
    util.ret()
    return util


def _variant_program(version: int):
    image = link_modules(
        [_build_app(version), _build_mathlib(), _build_util()], entry="main"
    )
    return disassemble_image(image)


@pytest.fixture(scope="module")
def variant1():
    return _variant_program(1)


@pytest.fixture(scope="module")
def variant2():
    return _variant_program(2)


def _result_bytes(analysis) -> bytes:
    return dump_summaries(analysis.result)


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------


class _Graph:
    """callees_of over a plain edge dict (the only CallGraph surface
    deep_fingerprints touches)."""

    def __init__(self, edges):
        self.edges = edges

    def callees_of(self, name):
        return self.edges.get(name, [])


class _Cond:
    def __init__(self, components):
        self.components = components


def _deep(fps, components, edges, context=7):
    return deep_fingerprints(fps, _Cond(components), _Graph(edges), context)


class TestDeepFingerprints:
    COMPONENTS = [["leaf"], ["mid"], ["top"]]
    EDGES = {"top": ["mid"], "mid": ["leaf"]}

    def test_callee_edit_propagates_to_all_callers(self):
        base = _deep({"leaf": 1, "mid": 2, "top": 3}, self.COMPONENTS, self.EDGES)
        edited = _deep({"leaf": 9, "mid": 2, "top": 3}, self.COMPONENTS, self.EDGES)
        assert edited["leaf"] != base["leaf"]
        assert edited["mid"] != base["mid"]
        assert edited["top"] != base["top"]

    def test_caller_edit_leaves_callees_alone(self):
        base = _deep({"leaf": 1, "mid": 2, "top": 3}, self.COMPONENTS, self.EDGES)
        edited = _deep({"leaf": 1, "mid": 2, "top": 9}, self.COMPONENTS, self.EDGES)
        assert edited["leaf"] == base["leaf"]
        assert edited["mid"] == base["mid"]
        assert edited["top"] != base["top"]

    def test_body_swap_changes_caller_key(self):
        # x and y swap fingerprints: the multiset {1, 2} is unchanged,
        # so only (name, fingerprint) *pair* binding separates these.
        components = [["x"], ["y"], ["top"]]
        edges = {"top": ["x", "y"]}
        base = _deep({"x": 1, "y": 2, "top": 3}, components, edges)
        swapped = _deep({"x": 2, "y": 1, "top": 3}, components, edges)
        assert swapped["top"] != base["top"]

    def test_scc_members_share_sensitivity(self):
        components = [["a", "b"]]
        edges = {"a": ["b"], "b": ["a"]}
        base = _deep({"a": 1, "b": 2}, components, edges)
        edited = _deep({"a": 1, "b": 9}, components, edges)
        assert edited["a"] != base["a"]
        assert edited["b"] != base["b"]

    def test_context_binds_every_key(self):
        fps = {"leaf": 1, "mid": 2, "top": 3}
        base = _deep(fps, self.COMPONENTS, self.EDGES, context=7)
        other = _deep(fps, self.COMPONENTS, self.EDGES, context=8)
        assert all(other[name] != base[name] for name in fps)

    def test_unresolved_callees_contribute_nothing(self):
        # A callee outside the condensation (unknown target) is the
        # calling-standard assumption either way.
        base = _deep({"top": 3}, [["top"]], {"top": []})
        with_ghost = _deep({"top": 3}, [["top"]], {"top": ["ghost"]})
        assert base["top"] == with_ghost["top"]


class TestBoundaryKeys:
    DEEP = {"a": 11, "b": 22}

    def test_member_order_is_canonical(self):
        one = phase2_component_key(["a", "b"], self.DEEP, {"a"}, {}, 5)
        two = phase2_component_key(["b", "a"], self.DEEP, {"a"}, {}, 5)
        assert one == two

    def test_sensitive_to_every_input(self):
        base = phase2_component_key(["a", "b"], self.DEEP, {"a"}, {}, 5)
        assert base != phase2_component_key(
            ["a", "b"], {"a": 12, "b": 22}, {"a"}, {}, 5
        )
        assert base != phase2_component_key(["a", "b"], self.DEEP, set(), {}, 5)
        assert base != phase2_component_key(
            ["a", "b"], self.DEEP, {"a"}, {"b": 1}, 5
        )
        assert base != phase2_component_key(["a", "b"], self.DEEP, {"a"}, {}, 6)

    def test_routine_record_key_separates_members(self):
        assert routine_record_key(99, "a") != routine_record_key(99, "b")
        assert routine_record_key(98, "a") != routine_record_key(99, "a")


class TestConfigDigest:
    def test_result_changing_knobs_are_bound(self):
        from repro.psg.build import PsgConfig

        base = config_digest(AnalysisConfig())
        assert base != config_digest(AnalysisConfig(callee_saved_filtering=False))
        assert base != config_digest(
            AnalysisConfig(psg=PsgConfig(branch_nodes=False))
        )
        assert base != config_digest(
            AnalysisConfig(psg=PsgConfig(multiway_threshold=5))
        )

    def test_bit_identical_knobs_are_excluded(self):
        from repro.psg.build import PsgConfig

        base = config_digest(AnalysisConfig())
        # Labeling strategy and jobs are documented bit-identical, so a
        # solve under one may warm a solve under another.
        assert base == config_digest(
            AnalysisConfig(psg=PsgConfig(labeling="per-target"))
        )
        assert base == config_digest(
            AnalysisConfig(psg=PsgConfig(per_edge_labeling=True))
        )
        assert base == config_digest(AnalysisConfig(jobs=4))


# ----------------------------------------------------------------------
# Record robustness
# ----------------------------------------------------------------------


TRIPLE = SummaryTriple(may_use=0x1F, may_def=0x3, must_def=0x1)


@pytest.fixture(scope="module")
def summary_record(quick_program):
    summary = analyze_program(quick_program).result.summaries["helper"]
    key = routine_record_key(0xABCD, "helper")
    return key, summary, dump_summary_record(key, "helper", summary)


@pytest.fixture(scope="module")
def frontend_record(quick_program):
    # ``main`` has a call site, so the record exercises every field.
    record = build_frontend(quick_program).records["main"]
    assert record.sites
    return record, dump_frontend_record(record)


class TestRecordCodecs:
    def test_triple_roundtrip(self):
        blob = dump_triple_record(42, "f", TRIPLE)
        assert load_triple_record(blob, 42, "f") == TRIPLE

    def test_frontend_roundtrip(self, frontend_record):
        record, blob = frontend_record
        assert load_frontend_record(blob, record.shape_key) == record

    def test_frontend_wrong_key_refused(self, frontend_record):
        # A valid record, filed under (asked for by) another key.
        record, blob = frontend_record
        with pytest.raises(StoreIdentityError, match="key"):
            load_frontend_record(blob, record.shape_key ^ 1)

    def test_summary_roundtrip(self, summary_record):
        key, summary, blob = summary_record
        assert load_summary_record(blob, key, "helper") == summary

    def test_identity_mismatch_rejected(self, summary_record):
        key, _, blob = summary_record
        with pytest.raises(SummaryFormatError, match="key"):
            load_summary_record(blob, key + 1, "helper")
        with pytest.raises(SummaryFormatError, match="name"):
            load_summary_record(blob, key, "other")

    def test_grade_confusion_rejected(self, summary_record):
        key, _, blob = summary_record
        with pytest.raises(SummaryFormatError, match="magic"):
            load_triple_record(blob, key, "helper")
        with pytest.raises(SummaryFormatError, match="magic"):
            load_summary_record(dump_triple_record(42, "f", TRIPLE), 42, "f")
        with pytest.raises(SummaryFormatError, match="magic"):
            load_frontend_record(blob, key)

    def _assert_all_prefixes_rejected(self, blob, loader):
        for size in range(len(blob)):
            try:
                loader(blob[:size])
            except SummaryFormatError:
                continue
            except Exception as error:  # pragma: no cover
                pytest.fail(
                    f"prefix of {size} bytes leaked "
                    f"{type(error).__name__}: {error}"
                )
            pytest.fail(f"prefix of {size} bytes was accepted")

    def test_triple_every_prefix_rejected(self):
        blob = dump_triple_record(42, "f", TRIPLE)
        self._assert_all_prefixes_rejected(
            blob, lambda b: load_triple_record(b, 42, "f")
        )

    def test_summary_every_prefix_rejected(self, summary_record):
        key, _, blob = summary_record
        self._assert_all_prefixes_rejected(
            blob, lambda b: load_summary_record(b, key, "helper")
        )

    def test_frontend_every_prefix_rejected(self, frontend_record):
        record, blob = frontend_record
        self._assert_all_prefixes_rejected(
            blob, lambda b: load_frontend_record(b, record.shape_key)
        )

    def test_every_byte_mutation_rejected(
        self, summary_record, frontend_record
    ):
        # Any single corrupted byte must fail the magic, version, CRC
        # or identity check — never parse, never leak a non-format
        # exception.
        key, _, summary_blob = summary_record
        record, frontend_blob = frontend_record
        for blob, loader in (
            (summary_blob, lambda b: load_summary_record(b, key, "helper")),
            (frontend_blob, lambda b: load_frontend_record(b, record.shape_key)),
        ):
            for index in range(len(blob)):
                mutated = bytearray(blob)
                mutated[index] ^= 0xFF
                try:
                    loader(bytes(mutated))
                except SummaryFormatError:
                    continue
                except Exception as error:  # pragma: no cover
                    pytest.fail(
                        f"byte {index} mutation leaked "
                        f"{type(error).__name__}: {error}"
                    )
                pytest.fail(f"byte {index} mutation was accepted")

    def test_trailing_garbage_rejected(self, summary_record, frontend_record):
        key, _, blob = summary_record
        with pytest.raises(SummaryFormatError):
            load_summary_record(blob + b"\x00", key, "helper")
        record, blob = frontend_record
        with pytest.raises(SummaryFormatError):
            load_frontend_record(blob + b"\x00", record.shape_key)


# ----------------------------------------------------------------------
# Store I/O, counters, GC
# ----------------------------------------------------------------------


class TestStoreIO:
    def test_store_and_load(self, tmp_path):
        store = SummaryStore(str(tmp_path / "s"))
        store.store_triple(42, "f", TRIPLE)
        assert store.load_triple(42, "f") == TRIPLE
        assert store.load_triple(43, "f") is None  # absent: a miss

    def test_counters(self, tmp_path):
        store = SummaryStore(str(tmp_path / "s"))
        base = REGISTRY.snapshot()
        store.store_triple(42, "f", TRIPLE)
        store.store_triple(42, "f", TRIPLE)  # duplicate: no second write
        store.load_triple(42, "f")
        store.load_triple(43, "f")
        delta = REGISTRY.delta_since(base)
        assert delta.get("store.write") == 1
        assert delta.get("store.bytes", 0) > 0
        assert delta.get("store.hit") == 1
        assert delta.get("store.miss") == 1

    def test_corrupt_record_is_a_miss(self, tmp_path):
        store = SummaryStore(str(tmp_path / "s"))
        store.store_triple(42, "f", TRIPLE)
        path = store._path(42, SUFFIX_TRIPLE)
        with open(path, "r+b") as handle:
            handle.truncate(7)
        base = REGISTRY.snapshot()
        assert store.load_triple(42, "f") is None
        delta = REGISTRY.delta_since(base)
        assert delta.get("store.miss") == 1
        assert delta.get("store.corrupt") == 1

    @pytest.mark.parametrize("grade", ["triple", "summary", "frontend"])
    def test_corrupt_record_is_repaired_by_the_next_publish(
        self, tmp_path, summary_record, frontend_record, grade
    ):
        # ``_store`` skips paths that exist, so a record that cannot be
        # read has to go or its key would miss forever.
        store = SummaryStore(str(tmp_path / "s"))
        key, summary, _ = summary_record
        record, _ = frontend_record
        publish, load, path, prefix = {
            "triple": (
                lambda: store.store_triple(42, "f", TRIPLE),
                lambda: store.load_triple(42, "f"),
                store._path(42, SUFFIX_TRIPLE),
                "store",
            ),
            "summary": (
                lambda: store.store_summary(key, "helper", summary),
                lambda: store.load_summary(key, "helper"),
                store._path(key, SUFFIX_SUMMARY),
                "store",
            ),
            "frontend": (
                lambda: store.store_frontend(record),
                lambda: store.load_frontend(record.shape_key),
                store._path(record.shape_key, SUFFIX_FRONTEND),
                "store.frontend",
            ),
        }[grade]
        publish()
        expected = load()
        assert expected is not None
        with open(path, "r+b") as handle:
            handle.truncate(7)
        base = REGISTRY.snapshot()
        assert load() is None
        publish()
        assert load() == expected
        delta = REGISTRY.delta_since(base)
        assert delta.get(f"{prefix}.miss") == 1
        assert delta.get(f"{prefix}.corrupt") == 1
        assert delta.get(f"{prefix}.write") == 1
        assert delta.get(f"{prefix}.hit") == 1

    def test_identity_mismatch_is_left_in_place(self, tmp_path):
        # Same key, another routine's name: refused, but whoever the
        # record belongs to must still find it (no unlink, no thrash).
        store = SummaryStore(str(tmp_path / "s"))
        store.store_triple(42, "f", TRIPLE)
        base = REGISTRY.snapshot()
        assert store.load_triple(42, "g") is None
        delta = REGISTRY.delta_since(base)
        assert delta.get("store.miss") == 1
        assert not delta.get("store.corrupt")
        assert store.load_triple(42, "f") == TRIPLE

    def test_frontend_grade_counts_under_its_own_names(
        self, tmp_path, frontend_record
    ):
        record, _ = frontend_record
        store = SummaryStore(str(tmp_path / "s"))
        base = REGISTRY.snapshot()
        store.store_frontend(record)
        store.store_frontend(record)  # duplicate: no second write
        assert store.load_frontend(record.shape_key) == record
        assert store.load_frontend(record.shape_key ^ 1) is None
        delta = REGISTRY.delta_since(base)
        assert delta.get("store.frontend.write") == 1
        assert delta.get("store.frontend.hit") == 1
        assert delta.get("store.frontend.miss") == 1
        # The summary-grade names did not move.
        for name in ("store.hit", "store.miss", "store.write", "store.bytes"):
            assert not delta.get(name)

    def test_fanout_layout(self, tmp_path):
        store = SummaryStore(str(tmp_path / "s"))
        key = 0xAB00000000000001
        store.store_triple(key, "f", TRIPLE)
        assert os.path.exists(
            os.path.join(str(tmp_path / "s"), "ab", f"{key:016x}.sum1r")
        )

    def test_unwritable_store_never_fails(self, tmp_path):
        # The root is occupied by a plain file: every mkdir, write and
        # read raises OSError, and all of it must degrade to misses.
        root = tmp_path / "not-a-dir"
        root.write_bytes(b"occupied")
        store = SummaryStore(str(root))
        store.store_triple(42, "f", TRIPLE)  # silently dropped
        assert store.load_triple(42, "f") is None
        assert store.stats()["triples"] == 0

    def test_stats(self, tmp_path, summary_record, frontend_record):
        key, summary, _ = summary_record
        store = SummaryStore(str(tmp_path / "s"))
        store.store_triple(42, "f", TRIPLE)
        store.store_summary(key, "helper", summary)
        store.store_frontend(frontend_record[0])
        stats = store.stats()
        assert stats["triples"] == 1
        assert stats["summaries"] == 1
        assert stats["frontend"] == 1
        assert stats["other"] == 0
        assert stats["bytes"] > 0


class TestGC:
    def test_sweeps_stale_tmp_files(self, tmp_path):
        store = SummaryStore(str(tmp_path / "s"))
        store.store_triple(42, "f", TRIPLE)
        shard = os.path.dirname(store._path(42, SUFFIX_TRIPLE))
        stale = os.path.join(shard, "dead.sum1r.tmp.999.0")
        with open(stale, "wb") as handle:
            handle.write(b"partial")
        old = os.path.getmtime(stale) - 3600
        os.utime(stale, (old, old))
        fresh = os.path.join(shard, "live.sum1r.tmp.999.1")
        with open(fresh, "wb") as handle:
            handle.write(b"partial")
        report = store.gc()
        assert report["removed"] == 1
        assert not os.path.exists(stale)
        assert os.path.exists(fresh)  # a live writer's temp survives
        assert store.load_triple(42, "f") == TRIPLE

    def test_lru_eviction_under_budget(self, tmp_path):
        root = str(tmp_path / "s")
        store = SummaryStore(root)
        for key in range(1, 9):
            store.store_triple(key, "f", TRIPLE)
        size = os.path.getsize(store._path(1, SUFFIX_TRIPLE))
        # Age keys 1..4; recently used 5..8 must survive a 4-record
        # budget.
        for key in range(1, 5):
            path = store._path(key, SUFFIX_TRIPLE)
            os.utime(path, (1_000_000 + key, 1_000_000 + key))
        base = REGISTRY.snapshot()
        report = SummaryStore(root, max_bytes=4 * size).gc()
        assert report["removed"] == 4
        assert report["remaining_bytes"] == 4 * size
        assert REGISTRY.delta_since(base).get("store.evict") == 4
        for key in range(1, 5):
            assert store.load_triple(key, "f") is None
        for key in range(5, 9):
            assert store.load_triple(key, "f") == TRIPLE

    def test_no_budget_keeps_everything(self, tmp_path):
        store = SummaryStore(str(tmp_path / "s"))
        for key in range(1, 4):
            store.store_triple(key, "f", TRIPLE)
        assert store.gc()["removed"] == 0
        assert store.stats()["triples"] == 3


class TestResolveStore:
    def test_explicit_store_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "env"))
        store = SummaryStore(str(tmp_path / "explicit"))
        assert resolve_store(AnalysisConfig(store=store)) is store

    def test_off_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "env"))
        assert resolve_store(AnalysisConfig(store="off")) is None

    def test_environment_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "env"))
        resolved = resolve_store(AnalysisConfig())
        assert resolved is not None
        assert resolved.root == str(tmp_path / "env")

    def test_nothing_configured(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        assert resolve_store(AnalysisConfig()) is None


# ----------------------------------------------------------------------
# Byte-identity: store on / off / poisoned, cold / warm, serial /
# parallel
# ----------------------------------------------------------------------


def _poison(root: str) -> int:
    poisoned = 0
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in filenames:
            with open(os.path.join(dirpath, filename), "r+b") as handle:
                handle.truncate(7)
            poisoned += 1
    return poisoned


def _drop_grade(root: str, suffix: str) -> int:
    dropped = 0
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in filenames:
            if filename.endswith(suffix):
                os.remove(os.path.join(dirpath, filename))
                dropped += 1
    return dropped


class TestByteIdentity:
    def test_second_image_warms_from_the_first(
        self, tmp_path, variant1, variant2
    ):
        store = SummaryStore(str(tmp_path / "s"))
        config = AnalysisConfig(store=store)
        baseline1 = analyze_incremental(variant1, config=AnalysisConfig(store="off"))
        baseline2 = analyze_incremental(variant2, config=AnalysisConfig(store="off"))

        first = analyze_incremental(variant1, config=config)
        assert first.metrics.phase1_store_hits == 0
        assert _result_bytes(first) == _result_bytes(baseline1)

        second = analyze_incremental(variant2, config=config)
        # mathlib (scale) and util (offset) are byte-identical across
        # the variants; only the edited app must re-solve.
        assert second.metrics.phase1_store_hits == 2
        assert second.metrics.phase2_store_hits == 2
        assert second.metrics.phase1_solved == 1
        assert second.metrics.cfgs_built == 1  # the app module's main
        assert _result_bytes(second) == _result_bytes(baseline2)

    def test_identical_rerun_is_fully_store_served(self, tmp_path, variant1):
        config = AnalysisConfig(store=SummaryStore(str(tmp_path / "s")))
        analyze_incremental(variant1, config=config)
        again = analyze_incremental(variant1, config=config)
        assert again.metrics.phase1_store_hits == variant1.routine_count
        assert again.metrics.phase2_store_hits == variant1.routine_count
        assert again.metrics.phase1_solved == 0
        assert again.metrics.phase2_solved == 0

    def test_poisoned_store_is_byte_identical(self, tmp_path, variant1):
        root = str(tmp_path / "s")
        config = AnalysisConfig(store=SummaryStore(root))
        baseline = analyze_incremental(variant1, config=AnalysisConfig(store="off"))
        analyze_incremental(variant1, config=config)
        # Every grade of every routine: front-end records included.
        assert _poison(root) == 3 * variant1.routine_count
        base = REGISTRY.snapshot()
        rerun = analyze_incremental(variant1, config=config)
        assert rerun.metrics.phase1_store_hits == 0
        assert rerun.metrics.phase2_store_hits == 0
        assert rerun.metrics.cfgs_built == variant1.routine_count
        assert not REGISTRY.delta_since(base).get("frontend.record.adopted")
        assert _result_bytes(rerun) == _result_bytes(baseline)
        # ... and the rerun's publish repaired all of it.
        again = analyze_incremental(variant1, config=config)
        assert again.metrics.phase2_store_hits == variant1.routine_count
        assert again.metrics.cfgs_built == 0

    def test_warm_incremental_with_store(self, tmp_path, variant1, variant2):
        config = AnalysisConfig(store=SummaryStore(str(tmp_path / "s")))
        cold = analyze_incremental(variant1, config=config)
        warm = analyze_incremental(variant1, cache=cold.cache, config=config)
        baseline = analyze_incremental(
            variant1,
            cache=analyze_incremental(
                variant1, config=AnalysisConfig(store="off")
            ).cache,
            config=AnalysisConfig(store="off"),
        )
        assert _result_bytes(warm) == _result_bytes(baseline)
        assert not warm.metrics.cold

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_publishes_and_stays_identical(
        self, tmp_path, variant1, variant2, jobs
    ):
        store = SummaryStore(str(tmp_path / "s"))
        baseline = analyze_program(variant1, AnalysisConfig(store="off"))
        session = AnalysisSession.from_program(
            variant1, AnalysisConfig(store=store)
        )
        parallel = session.analyze(jobs=jobs)
        assert dump_summaries(parallel.result) == _result_bytes(baseline)
        # The parent published after the merge: a serial consumer of a
        # *different* linked variant now hits the shared library.
        follow = analyze_incremental(
            variant2, config=AnalysisConfig(store=store)
        )
        assert follow.metrics.phase1_store_hits == 2
        assert follow.metrics.cfgs_built == 1

    def test_serial_facade_publishes(self, tmp_path, variant1, variant2):
        store = SummaryStore(str(tmp_path / "s"))
        analyze_program(variant1, AnalysisConfig(store=store))
        assert store.stats()["triples"] == variant1.routine_count
        follow = analyze_incremental(
            variant2, config=AnalysisConfig(store=store)
        )
        assert follow.metrics.phase1_store_hits == 2

    def test_demand_query_reads_through(self, tmp_path, variant1, variant2):
        store = SummaryStore(str(tmp_path / "s"))
        analyze_incremental(variant1, config=AnalysisConfig(store=store))
        session = AnalysisSession.from_program(
            variant2, AnalysisConfig(store=store)
        )
        baseline = AnalysisSession.from_program(
            variant2, AnalysisConfig(store="off")
        )
        query = session.query("scale")
        expected = baseline.query("scale")
        assert query.summary == expected.summary
        assert query.metrics.cfgs_built == 1

    def test_old_store_without_frontend_records_still_hits(
        self, tmp_path, variant1, variant2
    ):
        # A store written before the front-end grade existed: its
        # summary grades keep hitting, every shape key is a miss, and
        # the records are written forward.
        root = str(tmp_path / "s")
        store = SummaryStore(root)
        config = AnalysisConfig(store=store)
        baseline = analyze_incremental(variant2, config=AnalysisConfig(store="off"))
        analyze_incremental(variant1, config=config)
        assert _drop_grade(root, SUFFIX_FRONTEND) == variant1.routine_count
        base = REGISTRY.snapshot()
        second = analyze_incremental(variant2, config=config)
        delta = REGISTRY.delta_since(base)
        assert second.metrics.phase1_store_hits == 2
        assert second.metrics.phase2_store_hits == 2
        assert second.metrics.cfgs_built == variant2.routine_count
        assert delta.get("store.frontend.miss") == variant2.routine_count
        assert delta.get("store.frontend.write") == variant2.routine_count
        assert _result_bytes(second) == _result_bytes(baseline)
        assert store.stats()["frontend"] == variant2.routine_count

    @pytest.mark.parametrize("path", ["serial", "jobs2", "query"])
    def test_record_that_does_not_describe_the_routine_builds_a_cfg(
        self, tmp_path, variant1, variant2, path
    ):
        # A well-formed record filed under ``scale``'s own shape key
        # whose one site is not a call there: the front end must fall
        # back to the CFG, and nothing downstream may notice.
        root = str(tmp_path / "s")
        store = SummaryStore(root)
        config = AnalysisConfig(store=store)
        prime = analyze_incremental(variant1, config=config)
        scale = variant2.routine("scale")
        key = shape_key(scale, jump_tables(variant2).get("scale", ()))
        os.remove(store._path(key, SUFFIX_FRONTEND))
        store.store_frontend(
            FrontendRecord(key, 2, (RecordedSite(0, 0, False, None),), ())
        )
        off = AnalysisConfig(store="off")
        base = REGISTRY.snapshot()
        if path == "query":
            got = AnalysisSession.from_program(variant2, config).query("scale")
            want = AnalysisSession.from_program(variant2, off).query("scale")
            assert got.summary == want.summary
        else:
            # jobs=2 takes records only on the warm path: start both
            # sides from variant 1's sidecar (``main`` is the edit)
            # with the library's records gone.
            jobs = 2 if path == "jobs2" else 1
            cache = prime.cache if path == "jobs2" else None
            if cache is not None:
                del cache.frontend_records["scale"]
                del cache.frontend_records["offset"]
            got = analyze_incremental(variant2, cache, config, jobs=jobs)
            want = analyze_incremental(variant2, cache, off, jobs=jobs)
            assert _result_bytes(got) == _result_bytes(want)
        delta = REGISTRY.delta_since(base)
        assert "scale" in got.frontend.cfgs.built  # the fallback
        if path != "jobs2":  # (which builds its one dirty shard whole)
            assert got.metrics.cfgs_built == 2  # main (new) + scale
        assert delta.get("store.frontend.hit") == 2  # scale's and offset's
        assert delta.get("frontend.record.adopted") == 1  # only offset's

    def test_metrics_payload_and_render(self, tmp_path, variant1):
        config = AnalysisConfig(store=SummaryStore(str(tmp_path / "s")))
        analyze_incremental(variant1, config=config)
        again = analyze_incremental(variant1, config=config)
        payload = again.metrics.as_dict()
        assert payload["phase1_store_hits"] == variant1.routine_count
        assert payload["phase2_store_hits"] == variant1.routine_count
        assert "store hits" in again.metrics.render()


# ----------------------------------------------------------------------
# Concurrency: forked writers and readers over one store directory
# ----------------------------------------------------------------------


def _concurrent_worker(version: int, root: str, out_path: str) -> None:
    program = _variant_program(version)
    analysis = analyze_incremental(
        program, config=AnalysisConfig(store=SummaryStore(root))
    )
    blob = dump_summaries(analysis.result)
    with open(out_path, "wb") as handle:
        handle.write(blob)


class TestConcurrentStore:
    def test_forked_writers_and_readers_agree(self, tmp_path):
        # Six processes race cold solves of two linked variants through
        # one store: every record write races a read of the same key,
        # and first-writer-wins plus CRC framing must keep every result
        # byte-identical to the store-less baselines.
        root = str(tmp_path / "shared")
        expected = {
            version: dump_summaries(
                analyze_incremental(
                    _variant_program(version),
                    config=AnalysisConfig(store="off"),
                ).result
            )
            for version in (1, 2)
        }
        context = multiprocessing.get_context("fork")
        workers = []
        outputs = []
        for index in range(6):
            version = 1 + index % 2
            out_path = str(tmp_path / f"result.{index}.bin")
            outputs.append((version, out_path))
            workers.append(
                context.Process(
                    target=_concurrent_worker,
                    args=(version, root, out_path),
                )
            )
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        for version, out_path in outputs:
            with open(out_path, "rb") as handle:
                assert handle.read() == expected[version]
        # The store converged to one record set with no temp litter.
        stats = SummaryStore(root).stats()
        assert stats["triples"] == 4  # 3 shared + 1 per-variant app
        assert stats["frontend"] == 4
        assert stats["other"] == 0


# ----------------------------------------------------------------------
# CLI: store subcommand and --store-dir plumbing
# ----------------------------------------------------------------------


class TestStoreCLI:
    def test_stats_and_gc(self, tmp_path, capsys):
        import json

        root = str(tmp_path / "s")
        SummaryStore(root).store_triple(42, "f", TRIPLE)
        assert main(["store", "stats", "--store-dir", root]) == EXIT_OK
        stats = json.loads(capsys.readouterr().out)
        assert stats["triples"] == 1
        assert stats["frontend"] == 0
        SummaryStore(root).store_frontend(
            FrontendRecord(7, 1, (), ())
        )
        assert main(["store", "stats", "--store-dir", root]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["frontend"] == 1
        assert main(
            ["store", "gc", "--store-dir", root, "--max-bytes", "0"]
        ) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["removed"] == 2
        assert report["remaining_bytes"] == 0
        assert SummaryStore(root).stats()["bytes"] == 0

    def test_missing_store_dir_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        assert main(["store", "stats"]) == EXIT_USAGE
        assert "store" in capsys.readouterr().err

    def test_env_var_names_the_store(self, tmp_path, monkeypatch, capsys):
        import json

        root = str(tmp_path / "s")
        SummaryStore(root).store_triple(42, "f", TRIPLE)
        monkeypatch.setenv(STORE_ENV_VAR, root)
        assert main(["store", "stats"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["triples"] == 1

    def test_analyze_store_dir_round_trip(self, tmp_path, capsys):
        root = str(tmp_path / "s")
        for version in (1, 2):
            image = link_modules(
                [_build_app(version), _build_mathlib(), _build_util()],
                entry="main",
            )
            path = str(tmp_path / f"v{version}.sax")
            with open(path, "wb") as handle:
                handle.write(image.to_bytes())
            code = main(
                ["analyze", path, "--incremental",
                 "--cache", str(tmp_path / f"v{version}.sum2"),
                 "--store-dir", root, "--stats",
                 "--jobs", "1"]  # REPRO_JOBS must not shard the cold solve
            )
            assert code == EXIT_OK
            out = capsys.readouterr().out
        # The second image's run reports library hits in its stats,
        # and built a CFG only for its own app module.
        assert "store.hit" in out
        assert "store.frontend.hit" in out
        assert "cfgs built:         1" in out
        assert SummaryStore(root).stats()["triples"] == 4
