"""The cross-image summary store (:mod:`repro.interproc.store`).

Four layers of guarantees:

* **key derivation** — keys hash a component's inputs: a callee edit
  reaches a caller's key exactly when it moves a triple the caller
  reads, two callees swapping bodies changes keys (pair binding), and
  the context digest binds exactly the result-changing configuration
  knobs;
* **pack robustness** — a pack of any record grade survives truncation
  at every byte offset, mutation of every byte, trailing garbage, an
  index entry past its body, a foreign magic and an old version as
  misses (the reader unlinks the pack and the run's flush republishes
  it), never as an exception;
* **byte-identity** — analysis results are identical with the store
  enabled, disabled, missing its front-end grade, poisoned, or left in
  an older layout, cold and warm, including
  concurrent multiprocess and daemon-thread publishers over one store
  directory;
* **the front-end grade** — a routine the store has seen never gets
  its CFG rebuilt, and a record that does not describe the routine it
  is filed under ends in a built CFG;
* **operations** — hit/miss/write/evict counters, per-pack LRU GC
  under a byte budget with merging, stale temp sweeping, and the
  ``spike-analyze store`` CLI.
"""

import json
import multiprocessing
import os
import struct
import threading

import pytest

from repro.api import AnalysisConfig, AnalysisSession
from repro.cli import EXIT_OK, EXIT_USAGE, main
from repro.cfg.cfg import FrontendRecord, RecordedSite
from repro.dataflow.equations import SummaryTriple
from repro.interproc.frontend import build_frontend, jump_tables, shape_key
from repro.interproc.persist import crc64, dump_summaries
from repro.interproc.store import (
    GRADE_FRONTEND,
    GRADE_SUMMARY,
    GRADE_TRIPLE,
    MAGIC_PACK,
    STORE_ENV_VAR,
    STORE_VERSION,
    SummaryStore,
    component_inputs,
    config_digest,
    decode_pack,
    dump_frontend_record,
    dump_summary_record,
    dump_triple_record,
    encode_pack,
    inputs_key,
    resolve_store,
    routine_record_key,
)
from repro.obs.metrics import REGISTRY
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image
from repro.program.linker import ObjectModule, link_modules
from repro.service import AnalysisDaemon, ServiceClient, ServiceConfig
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


def _variant_image(version: int):
    return link_modules(
        [_build_app(version), _build_mathlib(), _build_util()], entry="main"
    )


def _variant_program(version: int):
    return disassemble_image(_variant_image(version))


@pytest.fixture(scope="module")
def variant1():
    return _variant_program(1)


@pytest.fixture(scope="module")
def variant2():
    return _variant_program(2)


def _result_bytes(analysis) -> bytes:
    return dump_summaries(analysis.result)


# ----------------------------------------------------------------------
# Pack-level helpers
# ----------------------------------------------------------------------


def _publish(store: SummaryStore, *adds) -> None:
    """One run's publish: a view, ``adds`` applied to it, one flush."""
    view = store.open()
    for add in adds:
        add(view)
    view.flush()


def _pack_paths(root: str):
    packs = os.path.join(root, "packs")
    if not os.path.isdir(packs):
        return []
    return sorted(
        os.path.join(packs, name)
        for name in os.listdir(packs)
        if name.endswith(".pack")
    )


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _slots(root: str):
    """Every ``(grade, key)`` held by an intact pack."""
    slots = set()
    for path in _pack_paths(root):
        slots.update(
            (grade, key) for grade, key, _s, _e in decode_pack(_read(path))
        )
    return slots


def _pack_holding(root: str, grade: int, key: int) -> str:
    for path in _pack_paths(root):
        if any(
            (g, k) == (grade, key) for g, k, _s, _e in decode_pack(_read(path))
        ):
            return path
    raise AssertionError(f"no pack holds {(grade, key)}")


def _rewrite_packs(root: str, keep) -> int:
    """Rewrite every pack without the records ``keep(grade, key)``
    refuses; how many were dropped."""
    dropped = 0
    for index, path in enumerate(_pack_paths(root)):
        blob = _read(path)
        records = {}
        for grade, key, start, end in decode_pack(blob):
            if keep(grade, key):
                records[grade, key] = blob[start:end]
            else:
                dropped += 1
        os.remove(path)
        if records:
            with open(os.path.join(root, "packs", f"re{index}.pack"), "wb") as out:
                out.write(encode_pack(records))
    return dropped


def _poison(root: str) -> int:
    poisoned = 0
    for path in _pack_paths(root):
        with open(path, "r+b") as handle:
            handle.truncate(7)
        poisoned += 1
    return poisoned


def _raw_pack(entries, records: bytes, magic=MAGIC_PACK, version=STORE_VERSION):
    """A pack with a valid checksum over whatever index it is given."""
    body = struct.pack("<I", len(entries)) + b"".join(
        struct.pack("<BQII", *entry) for entry in entries
    ) + records
    return struct.pack("<4sBQ", magic, version, crc64(body)) + body


class _Probe:
    """Makes ``blob`` the store's only pack and looks it up through a
    fresh view."""

    def __init__(self, root: str) -> None:
        self.store = SummaryStore(root)
        os.makedirs(self.store.packs_dir, exist_ok=True)
        self.path = os.path.join(self.store.packs_dir, "probe.pack")

    def load(self, blob: bytes, lookup):
        with open(self.path, "wb") as handle:
            handle.write(blob)
        return lookup(self.store.open())

    def assert_corrupt_miss(self, blob: bytes, lookup, what: str) -> None:
        base = REGISTRY.snapshot()
        try:
            got = self.load(blob, lookup)
        except Exception as error:  # pragma: no cover
            pytest.fail(f"{what} leaked {type(error).__name__}: {error}")
        assert got is None, f"{what} was accepted"
        assert REGISTRY.delta_since(base).get("store.corrupt") == 1, what
        assert not os.path.exists(self.path), f"{what} was left in place"


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------


def _keys(fps, components, edges, triples=None, context=7):
    """Every routine's grade-1 record key: its component's phase-1
    inputs (as :func:`component_inputs` gathers them, over plain dicts)
    under :func:`inputs_key`.  A routine's triple defaults to one that
    moves with its code."""
    triples = {
        **{name: SummaryTriple(may_use=fp) for name, fp in fps.items()},
        **(triples or {}),
    }
    keys = {}
    for members in components:
        inside = set(members)
        inputs = {
            name: (
                fps[name],
                tuple(
                    None if callee in inside else triples[callee]
                    for callee in edges.get(name, [])
                ),
            )
            for name in members
        }
        key = inputs_key(context, members, inputs)
        keys.update((name, routine_record_key(key, name)) for name in members)
    return keys


class TestDeepFingerprints:
    """Grade-1 keys hash callee *results*: a change reaches a caller's
    key exactly when it moves a triple the caller reads."""

    COMPONENTS = [["leaf"], ["mid"], ["top"]]
    EDGES = {"top": ["mid"], "mid": ["leaf"]}
    FPS = {"leaf": 1, "mid": 2, "top": 3}

    def test_callee_edit_propagates_to_all_callers(self):
        # The leaf's edit moves its triple, and through it mid's.
        base = _keys(self.FPS, self.COMPONENTS, self.EDGES)
        edited = _keys(
            {**self.FPS, "leaf": 9}, self.COMPONENTS, self.EDGES,
            triples={"mid": SummaryTriple(may_use=20)},
        )
        assert edited["leaf"] != base["leaf"]
        assert edited["mid"] != base["mid"]
        assert edited["top"] != base["top"]

    def test_callee_edit_that_keeps_its_triple_keeps_callers_keys(self):
        base = _keys(self.FPS, self.COMPONENTS, self.EDGES)
        edited = _keys(
            {**self.FPS, "leaf": 9}, self.COMPONENTS, self.EDGES,
            triples={"leaf": SummaryTriple(may_use=1)},
        )
        assert edited["leaf"] != base["leaf"]
        assert edited["mid"] == base["mid"]
        assert edited["top"] == base["top"]

    def test_caller_edit_leaves_callees_alone(self):
        base = _keys(self.FPS, self.COMPONENTS, self.EDGES)
        edited = _keys({**self.FPS, "top": 9}, self.COMPONENTS, self.EDGES)
        assert edited["leaf"] == base["leaf"]
        assert edited["mid"] == base["mid"]
        assert edited["top"] != base["top"]

    def test_body_swap_changes_caller_key(self):
        # x and y swap bodies, hence triples: the multiset of callee
        # triples is unchanged, so only (name, triple) binding separates
        # these.
        components = [["x"], ["y"], ["top"]]
        edges = {"top": ["x", "y"]}
        base = _keys({"x": 1, "y": 2, "top": 3}, components, edges)
        swapped = _keys({"x": 2, "y": 1, "top": 3}, components, edges)
        assert swapped["top"] != base["top"]

    def test_scc_members_share_sensitivity(self):
        components = [["a", "b"]]
        edges = {"a": ["b"], "b": ["a"]}
        base = _keys({"a": 1, "b": 2}, components, edges)
        edited = _keys({"a": 1, "b": 9}, components, edges)
        assert edited["a"] != base["a"]
        assert edited["b"] != base["b"]

    def test_context_binds_every_key(self):
        base = _keys(self.FPS, self.COMPONENTS, self.EDGES, context=7)
        other = _keys(self.FPS, self.COMPONENTS, self.EDGES, context=8)
        assert all(other[name] != base[name] for name in self.FPS)

    def test_unresolved_callees_contribute_nothing(self):
        # A call with no resolved target is the calling-standard
        # assumption: it adds no input.
        program = disassemble_image(assemble(
            """
            .data fp: 0
            .routine main
                li  t0, @fp
                ldq pv, 0(t0)
                jsr ra, (pv)
                halt
            """
        ))
        frontend = build_frontend(program)
        assert frontend.call_graph.sites["main"]  # premise: one site
        inputs = component_inputs(frontend, ["main"], {})
        assert inputs == {"main": (frontend.fingerprints["main"], ())}


class TestBoundaryKeys:
    """Grade-2 keys: the phase-1 inputs plus each member's
    externally-callable bit and exit seed."""

    INPUTS = {
        "a": (11, (None, SummaryTriple(1, 2, 0)), (True, 0)),
        "b": (22, (None,), (False, 0x30)),
    }

    def test_member_order_is_canonical(self):
        one = inputs_key(5, ["a", "b"], self.INPUTS)
        two = inputs_key(5, ["b", "a"], self.INPUTS)
        assert one == two

    def test_sensitive_to_every_input(self):
        base = inputs_key(5, ["a", "b"], self.INPUTS)
        a_fp, a_callees, a_phase2 = self.INPUTS["a"]
        for a in (
            (12, a_callees, a_phase2),  # own fingerprint
            (a_fp, (None, SummaryTriple(1, 2, 2)), a_phase2),  # callee triple
            (a_fp, (SummaryTriple(), SummaryTriple(1, 2, 0)), a_phase2),  # SCC
            (a_fp, a_callees, (False, 0)),  # externally callable
            (a_fp, a_callees, (True, 1)),  # exit seed
            (a_fp, a_callees),  # phase 1 only
        ):
            assert base != inputs_key(5, ["a", "b"], {**self.INPUTS, "a": a}), a
        assert base != inputs_key(6, ["a", "b"], self.INPUTS)

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


# ----------------------------------------------------------------------
# Pack robustness
# ----------------------------------------------------------------------


TRIPLE = SummaryTriple(may_use=0x1F, may_def=0x3, must_def=0x1)


@pytest.fixture(scope="module")
def summary_record(quick_program):
    summary = analyze_program(quick_program).result.summaries["helper"]
    key = routine_record_key(0xABCD, "helper")
    return key, summary, encode_pack(
        {(GRADE_SUMMARY, key): dump_summary_record("helper", summary)}
    )


@pytest.fixture(scope="module")
def frontend_record(quick_program):
    # ``main`` has a call site, so the record exercises every field.
    record = build_frontend(quick_program).records["main"]
    assert record.sites
    return record, encode_pack(
        {(GRADE_FRONTEND, record.shape_key): dump_frontend_record(record)}
    )


TRIPLE_PACK = encode_pack({(GRADE_TRIPLE, 42): dump_triple_record("f", TRIPLE)})


class TestRecordCodecs:
    def test_triple_roundtrip(self, tmp_path):
        probe = _Probe(str(tmp_path / "s"))
        assert probe.load(TRIPLE_PACK, lambda v: v.load_triple(42, "f")) == TRIPLE

    def test_frontend_roundtrip(self, tmp_path, frontend_record):
        record, blob = frontend_record
        probe = _Probe(str(tmp_path / "s"))
        assert probe.load(
            blob, lambda v: v.load_frontend(record.shape_key)
        ) == record

    def test_frontend_wrong_key_refused(self, tmp_path, frontend_record):
        # A valid record, filed under (asked for by) another key: a
        # miss that leaves the pack alone.
        record, _ = frontend_record
        key = record.shape_key ^ 1
        blob = encode_pack({(GRADE_FRONTEND, key): dump_frontend_record(record)})
        probe = _Probe(str(tmp_path / "s"))
        base = REGISTRY.snapshot()
        assert probe.load(blob, lambda v: v.load_frontend(key)) is None
        assert not REGISTRY.delta_since(base).get("store.corrupt")
        assert os.path.exists(probe.path)

    def test_summary_roundtrip(self, tmp_path, summary_record):
        key, summary, blob = summary_record
        probe = _Probe(str(tmp_path / "s"))
        assert probe.load(
            blob, lambda v: v.load_summary(key, "helper")
        ) == summary

    def test_identity_mismatch_rejected(self, tmp_path, summary_record):
        key, _, blob = summary_record
        probe = _Probe(str(tmp_path / "s"))
        assert probe.load(blob, lambda v: v.load_summary(key + 1, "helper")) is None
        assert probe.load(blob, lambda v: v.load_summary(key, "other")) is None
        assert os.path.exists(probe.path)  # refused, not corrupt

    def test_grade_confusion_rejected(self, tmp_path, summary_record):
        # The index's grade keeps the grades apart; a body filed under
        # the wrong grade fails its exact-length decode and the pack
        # goes as corrupt.
        key, summary, blob = summary_record
        probe = _Probe(str(tmp_path / "s"))
        assert probe.load(blob, lambda v: v.load_triple(key, "helper")) is None
        assert probe.load(blob, lambda v: v.load_frontend(key)) is None
        misfiled = encode_pack(
            {(GRADE_TRIPLE, key): dump_summary_record("helper", summary)}
        )
        probe.assert_corrupt_miss(
            misfiled, lambda v: v.load_triple(key, "helper"), "a misfiled body"
        )

    def _assert_all_prefixes_rejected(self, tmp_path, blob, lookup):
        probe = _Probe(str(tmp_path / "s"))
        for size in range(len(blob)):
            probe.assert_corrupt_miss(
                blob[:size], lookup, f"prefix of {size} bytes"
            )

    def test_triple_every_prefix_rejected(self, tmp_path):
        self._assert_all_prefixes_rejected(
            tmp_path, TRIPLE_PACK, lambda v: v.load_triple(42, "f")
        )

    def test_summary_every_prefix_rejected(self, tmp_path, summary_record):
        key, _, blob = summary_record
        self._assert_all_prefixes_rejected(
            tmp_path, blob, lambda v: v.load_summary(key, "helper")
        )

    def test_frontend_every_prefix_rejected(self, tmp_path, frontend_record):
        record, blob = frontend_record
        self._assert_all_prefixes_rejected(
            tmp_path, blob, lambda v: v.load_frontend(record.shape_key)
        )

    def test_every_byte_mutation_rejected(
        self, tmp_path, summary_record, frontend_record
    ):
        # Any single corrupted byte must fail the magic, version, CRC
        # or index check — never parse, never leak an exception.
        key, _, summary_blob = summary_record
        record, frontend_blob = frontend_record
        probe = _Probe(str(tmp_path / "s"))
        for blob, lookup in (
            (summary_blob, lambda v: v.load_summary(key, "helper")),
            (frontend_blob, lambda v: v.load_frontend(record.shape_key)),
            (TRIPLE_PACK, lambda v: v.load_triple(42, "f")),
        ):
            for index in range(len(blob)):
                mutated = bytearray(blob)
                mutated[index] ^= 0xFF
                probe.assert_corrupt_miss(
                    bytes(mutated), lookup, f"byte {index} mutation"
                )

    def test_trailing_garbage_rejected(
        self, tmp_path, summary_record, frontend_record
    ):
        key, _, blob = summary_record
        probe = _Probe(str(tmp_path / "s"))
        probe.assert_corrupt_miss(
            blob + b"\x00", lambda v: v.load_summary(key, "helper"), "garbage"
        )
        record, blob = frontend_record
        probe.assert_corrupt_miss(
            blob + b"\x00", lambda v: v.load_frontend(record.shape_key), "garbage"
        )

    def test_entry_past_the_body_rejected(self, tmp_path):
        body = dump_triple_record("f", TRIPLE)
        probe = _Probe(str(tmp_path / "s"))
        lookup = lambda v: v.load_triple(42, "f")  # noqa: E731
        for entry in (
            (GRADE_TRIPLE, 42, 0, len(body) + 1),
            (GRADE_TRIPLE, 42, len(body), 1),
            (GRADE_TRIPLE, 42, 2**32 - 1, 2**32 - 1),
        ):
            probe.assert_corrupt_miss(_raw_pack([entry], body), lookup, str(entry))
        # ... and an index longer than the pack.
        blob = _raw_pack([(GRADE_TRIPLE, 42, 0, len(body))], body)
        count_at = struct.calcsize("<4sBQ")
        forged = bytearray(blob)
        forged[count_at:count_at + 4] = struct.pack("<I", 1000)
        payload = bytes(forged[count_at:])
        forged[5:13] = struct.pack("<Q", crc64(payload))
        probe.assert_corrupt_miss(bytes(forged), lookup, "a long index")

    def test_malformed_index_rejected(self, tmp_path):
        body = dump_triple_record("f", TRIPLE)
        probe = _Probe(str(tmp_path / "s"))
        lookup = lambda v: v.load_triple(42, "f")  # noqa: E731
        entry = (GRADE_TRIPLE, 42, 0, len(body))
        probe.assert_corrupt_miss(
            _raw_pack([(9, 42, 0, len(body))], body), lookup, "unknown grade"
        )
        probe.assert_corrupt_miss(
            _raw_pack([entry, entry], body), lookup, "a duplicate entry"
        )

    def test_foreign_magic_and_old_version_rejected(self, tmp_path):
        body = dump_triple_record("f", TRIPLE)
        entries = [(GRADE_TRIPLE, 42, 0, len(body))]
        probe = _Probe(str(tmp_path / "s"))
        lookup = lambda v: v.load_triple(42, "f")  # noqa: E731
        assert probe.load(_raw_pack(entries, body), lookup) == TRIPLE
        probe.assert_corrupt_miss(
            _raw_pack(entries, body, magic=b"SUM5"), lookup, "a sidecar's magic"
        )
        for version in (1, 2):  # 2: the deep-fingerprint keys
            probe.assert_corrupt_miss(
                _raw_pack(entries, body, version=version), lookup, "an old version"
            )

    def test_empty_pack(self, tmp_path):
        probe = _Probe(str(tmp_path / "s"))
        lookup = lambda v: v.load_triple(42, "f")  # noqa: E731
        probe.assert_corrupt_miss(b"", lookup, "an empty file")
        # A well-formed pack of no records is no one's record: a plain
        # miss.
        base = REGISTRY.snapshot()
        assert probe.load(encode_pack({}), lookup) is None
        delta = REGISTRY.delta_since(base)
        assert delta.get("store.miss") == 1
        assert not delta.get("store.corrupt")

    def test_same_key_in_two_packs(self, tmp_path):
        root = str(tmp_path / "s")
        store = SummaryStore(root)
        _publish(store, lambda v: v.store_triple(42, "f", TRIPLE))
        other = encode_pack({
            (GRADE_TRIPLE, 42): dump_triple_record("f", TRIPLE),
            (GRADE_TRIPLE, 43): dump_triple_record("g", TRIPLE),
        })
        with open(os.path.join(store.packs_dir, "other.pack"), "wb") as out:
            out.write(other)
        view = store.open()
        assert view.load_triple(42, "f") == TRIPLE
        assert view.load_triple(43, "g") == TRIPLE
        stats = store.stats()
        assert (stats["packs"], stats["triples"]) == (2, 2)


# ----------------------------------------------------------------------
# Store I/O, counters, GC
# ----------------------------------------------------------------------


class TestStoreIO:
    def test_store_and_load(self, tmp_path):
        store = SummaryStore(str(tmp_path / "s"))
        _publish(store, lambda v: v.store_triple(42, "f", TRIPLE))
        view = store.open()
        assert view.load_triple(42, "f") == TRIPLE
        assert view.load_triple(43, "f") is None  # absent: a miss

    def test_counters(self, tmp_path):
        store = SummaryStore(str(tmp_path / "s"))
        base = REGISTRY.snapshot()
        _publish(
            store,
            lambda v: v.store_triple(42, "f", TRIPLE),
            lambda v: v.store_triple(42, "f", TRIPLE),  # no second write
        )
        _publish(store, lambda v: v.store_triple(42, "f", TRIPLE))  # held
        view = store.open()
        view.load_triple(42, "f")
        view.load_triple(43, "f")
        delta = REGISTRY.delta_since(base)
        assert delta.get("store.write") == 1
        assert delta.get("store.bytes", 0) > 0
        assert delta.get("store.hit") == 1
        assert delta.get("store.miss") == 1
        assert len(_pack_paths(store.root)) == 1  # a flush of nothing writes nothing

    def test_corrupt_record_is_a_miss(self, tmp_path):
        store = SummaryStore(str(tmp_path / "s"))
        _publish(store, lambda v: v.store_triple(42, "f", TRIPLE))
        assert _poison(store.root) == 1
        base = REGISTRY.snapshot()
        assert store.open().load_triple(42, "f") is None
        delta = REGISTRY.delta_since(base)
        assert delta.get("store.miss") == 1
        assert delta.get("store.corrupt") == 1
        assert _pack_paths(store.root) == []  # unlinked

    def test_corrupt_packs_leave_the_others_served(self, tmp_path, summary_record):
        # Packs are read in name order: a corrupt one between good ones
        # (at open), and one whose record fails to decode (at lookup),
        # cost only their own records.
        key, summary, _ = summary_record
        store = SummaryStore(str(tmp_path / "s"))
        os.makedirs(store.packs_dir)
        packs = {
            "a": TRIPLE_PACK,
            "b": TRIPLE_PACK[:-1],
            "c": encode_pack({(GRADE_TRIPLE, 3): dump_triple_record("h", TRIPLE)}),
            "d": encode_pack(
                {(GRADE_TRIPLE, key): dump_summary_record("helper", summary)}
            ),
            "e": encode_pack({(GRADE_TRIPLE, 5): dump_triple_record("j", TRIPLE)}),
        }
        for name, blob in packs.items():
            with open(os.path.join(store.packs_dir, f"{name}.pack"), "wb") as out:
                out.write(blob)
        base = REGISTRY.snapshot()
        view = store.open()
        assert view.load_triple(key, "helper") is None
        for key_, name in ((42, "f"), (3, "h"), (5, "j")):
            assert view.load_triple(key_, name) == TRIPLE
        assert REGISTRY.delta_since(base).get("store.corrupt") == 2
        assert sorted(os.listdir(store.packs_dir)) == ["a.pack", "c.pack", "e.pack"]

    @pytest.mark.parametrize("grade", ["triple", "summary", "frontend"])
    def test_corrupt_record_is_repaired_by_the_next_publish(
        self, tmp_path, summary_record, frontend_record, grade
    ):
        # A view skips records its index holds, so a pack that cannot
        # be read has to go or its keys would miss forever.
        store = SummaryStore(str(tmp_path / "s"))
        key, summary, _ = summary_record
        record, _ = frontend_record
        publish, load, prefix = {
            "triple": (
                lambda v: v.store_triple(42, "f", TRIPLE),
                lambda v: v.load_triple(42, "f"),
                "store",
            ),
            "summary": (
                lambda v: v.store_summary(key, "helper", summary),
                lambda v: v.load_summary(key, "helper"),
                "store",
            ),
            "frontend": (
                lambda v: v.store_frontend(record),
                lambda v: v.load_frontend(record.shape_key),
                "store.frontend",
            ),
        }[grade]
        _publish(store, publish)
        expected = load(store.open())
        assert expected is not None
        _poison(store.root)
        base = REGISTRY.snapshot()
        view = store.open()
        assert load(view) is None
        publish(view)
        view.flush()
        assert load(store.open()) == expected
        delta = REGISTRY.delta_since(base)
        assert delta.get(f"{prefix}.miss") == 1
        assert delta.get("store.corrupt") == 1
        assert delta.get(f"{prefix}.write") == 1
        assert delta.get(f"{prefix}.hit") == 1

    def test_identity_mismatch_is_left_in_place(self, tmp_path):
        # Same key, another routine's name: refused, but whoever the
        # record belongs to must still find it (no unlink, no thrash).
        store = SummaryStore(str(tmp_path / "s"))
        _publish(store, lambda v: v.store_triple(42, "f", TRIPLE))
        base = REGISTRY.snapshot()
        view = store.open()
        assert view.load_triple(42, "g") is None
        delta = REGISTRY.delta_since(base)
        assert delta.get("store.miss") == 1
        assert not delta.get("store.corrupt")
        assert view.load_triple(42, "f") == TRIPLE
        assert store.open().load_triple(42, "f") == TRIPLE

    def test_frontend_grade_counts_under_its_own_names(
        self, tmp_path, frontend_record
    ):
        record, _ = frontend_record
        store = SummaryStore(str(tmp_path / "s"))
        base = REGISTRY.snapshot()
        _publish(
            store,
            lambda v: v.store_frontend(record),
            lambda v: v.store_frontend(record),  # duplicate: no second write
        )
        view = store.open()
        assert view.load_frontend(record.shape_key) == record
        assert view.load_frontend(record.shape_key ^ 1) is None
        delta = REGISTRY.delta_since(base)
        assert delta.get("store.frontend.write") == 1
        assert delta.get("store.frontend.hit") == 1
        assert delta.get("store.frontend.miss") == 1
        # The summary-grade names did not move.
        for name in ("store.hit", "store.miss", "store.write", "store.bytes"):
            assert not delta.get(name)

    def test_pack_layout(self, tmp_path, summary_record, frontend_record):
        # One publishing run, one file: <store>/packs/<crc64 of body>.pack,
        # its index sorted by (grade, key).
        root = str(tmp_path / "s")
        key, summary, _ = summary_record
        _publish(
            SummaryStore(root),
            lambda v: v.store_frontend(frontend_record[0]),
            lambda v: v.store_summary(key, "helper", summary),
            lambda v: v.store_triple(0xAB00000000000001, "f", TRIPLE),
            lambda v: v.store_triple(7, "g", TRIPLE),
        )
        assert os.listdir(root) == ["packs"]
        (path,) = _pack_paths(root)
        blob = _read(path)
        assert blob[:5] == MAGIC_PACK + bytes([STORE_VERSION])
        checksum = struct.unpack_from("<Q", blob, 5)[0]
        assert checksum == crc64(blob[13:])
        assert os.path.basename(path) == f"{checksum:016x}.pack"
        slots = [(grade, key) for grade, key, _s, _e in decode_pack(blob)]
        assert slots == sorted(slots)
        assert [grade for grade, _ in slots] == [
            GRADE_TRIPLE, GRADE_TRIPLE, GRADE_SUMMARY, GRADE_FRONTEND
        ]

    def test_one_touch_per_pack_that_served_a_hit(self, tmp_path, monkeypatch):
        store = SummaryStore(str(tmp_path / "s"))
        _publish(
            store,
            lambda v: v.store_triple(1, "f", TRIPLE),
            lambda v: v.store_triple(2, "g", TRIPLE),
        )
        _publish(store, lambda v: v.store_triple(3, "h", TRIPLE))
        view = store.open()
        touched = []
        monkeypatch.setattr(os, "utime", lambda path, *a, **k: touched.append(path))
        assert view.load_triple(1, "f") == TRIPLE
        assert view.load_triple(2, "g") == TRIPLE
        assert view.load_triple(4, "i") is None
        assert touched == [_pack_holding(store.root, GRADE_TRIPLE, 1)]

    def test_unwritable_store_never_fails(self, tmp_path):
        # The root is occupied by a plain file: every mkdir, write and
        # read raises OSError, and all of it must degrade to misses.
        root = tmp_path / "not-a-dir"
        root.write_bytes(b"occupied")
        store = SummaryStore(str(root))
        _publish(store, lambda v: v.store_triple(42, "f", TRIPLE))  # dropped
        assert store.open().load_triple(42, "f") is None
        assert store.stats()["triples"] == 0

    def test_stats(self, tmp_path, summary_record, frontend_record):
        key, summary, _ = summary_record
        store = SummaryStore(str(tmp_path / "s"))
        _publish(
            store,
            lambda v: v.store_triple(42, "f", TRIPLE),
            lambda v: v.store_summary(key, "helper", summary),
            lambda v: v.store_frontend(frontend_record[0]),
        )
        stats = store.stats()
        assert stats["packs"] == 1
        assert stats["triples"] == 1
        assert stats["summaries"] == 1
        assert stats["frontend"] == 1
        assert stats["other"] == 0
        assert stats["bytes"] == os.path.getsize(_pack_paths(store.root)[0])
        # Counts are of distinct records, whichever packs hold them.
        with open(os.path.join(store.packs_dir, "dup.pack"), "wb") as out:
            out.write(TRIPLE_PACK)
        stats = store.stats()
        assert (stats["packs"], stats["triples"]) == (2, 1)


class TestGC:
    def test_sweeps_stale_tmp_files(self, tmp_path):
        store = SummaryStore(str(tmp_path / "s"))
        _publish(store, lambda v: v.store_triple(42, "f", TRIPLE))
        stale = os.path.join(store.packs_dir, "dead.pack.tmp.999.0")
        with open(stale, "wb") as handle:
            handle.write(b"partial")
        old = os.path.getmtime(stale) - 3600
        os.utime(stale, (old, old))
        fresh = os.path.join(store.packs_dir, "live.pack.tmp.999.1")
        with open(fresh, "wb") as handle:
            handle.write(b"partial")
        report = store.gc()
        assert report["removed"] == 1
        assert not os.path.exists(stale)
        assert os.path.exists(fresh)  # a live writer's temp survives
        assert store.open().load_triple(42, "f") == TRIPLE

    def test_lru_eviction_under_budget(self, tmp_path):
        root = str(tmp_path / "s")
        store = SummaryStore(root)
        for key in range(1, 9):
            _publish(store, lambda v, key=key: v.store_triple(key, "f", TRIPLE))
        assert len(_pack_paths(root)) == 8
        size = os.path.getsize(_pack_paths(root)[0])
        # Age the packs of keys 1..4; the recently used packs of 5..8
        # must survive a 4-pack budget.
        for key in range(1, 5):
            path = _pack_holding(root, GRADE_TRIPLE, key)
            os.utime(path, (1_000_000 + key, 1_000_000 + key))
        base = REGISTRY.snapshot()
        report = SummaryStore(root, max_bytes=4 * size).gc()
        assert report["removed"] == 4
        assert report["removed_bytes"] == 4 * size
        assert REGISTRY.delta_since(base).get("store.evict") == 4
        # The survivors were merged into one pack, smaller than the four.
        (merged,) = _pack_paths(root)
        assert report["remaining_bytes"] == os.path.getsize(merged) < 4 * size
        view = store.open()
        for key in range(1, 5):
            assert view.load_triple(key, "f") is None
        for key in range(5, 9):
            assert view.load_triple(key, "f") == TRIPLE

    def test_no_budget_keeps_everything(self, tmp_path):
        store = SummaryStore(str(tmp_path / "s"))
        for key in range(1, 4):
            _publish(store, lambda v, key=key: v.store_triple(key, "f", TRIPLE))
        assert store.gc()["removed"] == 0
        stats = store.stats()
        assert (stats["packs"], stats["triples"]) == (1, 3)

    def test_merge_drops_duplicate_and_corrupt_packs(self, tmp_path):
        root = str(tmp_path / "s")
        store = SummaryStore(root)
        _publish(store, lambda v: v.store_triple(42, "f", TRIPLE))
        _publish(store, lambda v: v.store_triple(43, "g", TRIPLE))
        with open(os.path.join(store.packs_dir, "dup.pack"), "wb") as out:
            out.write(TRIPLE_PACK)
        with open(os.path.join(store.packs_dir, "bad.pack"), "wb") as out:
            out.write(TRIPLE_PACK[:-1])
        store.gc()
        (merged,) = _pack_paths(root)
        assert [key for _, key, _s, _e in decode_pack(_read(merged))] == [42, 43]
        assert store.stats()["other"] == 0


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
# Byte-identity: store on / off / poisoned, cold / warm
# ----------------------------------------------------------------------


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
        assert len(_pack_paths(store.root)) == 2  # one per publishing run

    def test_leaf_edit_that_keeps_its_triple_keeps_callers_served(
        self, tmp_path
    ):
        # Keys hash callee triples, not callee code: editing the leaf
        # without moving its triple misses the leaf alone.
        source = """
        .routine main export
            li   a0, 3
            bsr  ra, mid
            halt
        .routine mid
            lda  sp, -16(sp)
            stq  ra, 0(sp)
            bsr  ra, leaf
            ldq  ra, 0(sp)
            lda  sp, 16(sp)
            ret  (ra)
        .routine leaf
            addq a0, #1, v0
            ret  (ra)
        """
        edited = disassemble_image(
            assemble(source.replace("addq a0, #1, v0", "addq a0, #2, v0"))
        )
        config = AnalysisConfig(store=SummaryStore(str(tmp_path / "s")))
        analyze_incremental(disassemble_image(assemble(source)), config=config)
        run = analyze_incremental(edited, config=config)
        assert run.metrics.phase1_store_hits == 2
        assert run.metrics.phase2_store_hits == 2
        assert run.metrics.phase1_solved == run.metrics.phase2_solved == 1
        assert _result_bytes(run) == _result_bytes(
            analyze_incremental(edited, config=AnalysisConfig(store="off"))
        )

    def test_identical_rerun_is_fully_store_served(self, tmp_path, variant1):
        config = AnalysisConfig(store=SummaryStore(str(tmp_path / "s")))
        analyze_incremental(variant1, config=config)
        base = REGISTRY.snapshot()
        again = analyze_incremental(variant1, config=config)
        assert again.metrics.phase1_store_hits == variant1.routine_count
        assert again.metrics.phase2_store_hits == variant1.routine_count
        assert again.metrics.phase1_solved == 0
        assert again.metrics.phase2_solved == 0
        # Nothing new to say: the rerun writes no pack.
        assert not REGISTRY.delta_since(base).get("store.write")
        assert len(_pack_paths(config.store.root)) == 1

    def test_poisoned_store_is_byte_identical(self, tmp_path, variant1):
        root = str(tmp_path / "s")
        config = AnalysisConfig(store=SummaryStore(root))
        baseline = analyze_incremental(variant1, config=AnalysisConfig(store="off"))
        analyze_incremental(variant1, config=config)
        # Every grade of every routine sits in the run's one pack.
        assert len(_slots(root)) == 3 * variant1.routine_count
        assert _poison(root) == 1
        base = REGISTRY.snapshot()
        rerun = analyze_incremental(variant1, config=config)
        assert rerun.metrics.phase1_store_hits == 0
        assert rerun.metrics.phase2_store_hits == 0
        assert rerun.metrics.cfgs_built == variant1.routine_count
        delta = REGISTRY.delta_since(base)
        assert not delta.get("frontend.record.adopted")
        assert delta.get("store.corrupt") == 1
        assert _result_bytes(rerun) == _result_bytes(baseline)
        # ... and the rerun's flush republished all of it.
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
        # A store without the front-end grade: its summary grades keep
        # hitting, every shape key is a miss, and the records are
        # written forward.
        root = str(tmp_path / "s")
        store = SummaryStore(root)
        config = AnalysisConfig(store=store)
        baseline = analyze_incremental(variant2, config=AnalysisConfig(store="off"))
        analyze_incremental(variant1, config=config)
        assert _rewrite_packs(
            root, lambda grade, _key: grade != GRADE_FRONTEND
        ) == variant1.routine_count
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

    @pytest.mark.parametrize("path", ["serial", "query"])
    def test_record_that_does_not_describe_the_routine_builds_a_cfg(
        self, tmp_path, variant1, variant2, path
    ):
        # A well-formed record filed under ``scale``'s own shape key
        # whose one site is not a call there: the front end must fall
        # back to the CFG, and nothing downstream may notice.
        root = str(tmp_path / "s")
        store = SummaryStore(root)
        config = AnalysisConfig(store=store)
        analyze_incremental(variant1, config=config)
        scale = variant2.routine("scale")
        key = shape_key(scale, jump_tables(variant2).get("scale", ()))
        assert _rewrite_packs(
            root, lambda grade, k: (grade, k) != (GRADE_FRONTEND, key)
        ) == 1
        _publish(store, lambda v: v.store_frontend(
            FrontendRecord(key, 2, (RecordedSite(0, 0, False, None),), ())
        ))
        off = AnalysisConfig(store="off")
        base = REGISTRY.snapshot()
        if path == "query":
            got = AnalysisSession.from_program(variant2, config).query("scale")
            want = AnalysisSession.from_program(variant2, off).query("scale")
            assert got.summary == want.summary
        else:
            got = analyze_incremental(variant2, None, config)
            want = analyze_incremental(variant2, None, off)
            assert _result_bytes(got) == _result_bytes(want)
        delta = REGISTRY.delta_since(base)
        assert "scale" in got.frontend.cfgs.built  # the fallback
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
# A store in the per-record layout packs replaced
# ----------------------------------------------------------------------


_OLD_MAGICS = {".sum1r": b"SST1", ".sum2r": b"SST2", ".sumfr": b"SSTF"}


def _old_layout_store(root: str, program) -> int:
    """Fill ``root`` the way the per-record layout did: one framed file
    per record and grade, ``<hh>/<key as 16 hex>.sum1r|.sum2r|.sumfr``
    (``magic | u8 1 | u64 crc64(body) | body``, the key leading the
    summary grades' bodies).  Returns the file count."""
    result = analyze_program(program, AnalysisConfig(store="off")).result
    records = build_frontend(program).records
    files = {}
    for name, summary in result.summaries.items():
        key = crc64(name.encode())
        tagged = struct.pack("<Q", key)
        files[key, ".sum1r"] = tagged + dump_triple_record(name, TRIPLE)
        files[key ^ 1, ".sum2r"] = tagged + dump_summary_record(name, summary)
        files[records[name].shape_key, ".sumfr"] = dump_frontend_record(
            records[name]
        )
    for (key, suffix), body in files.items():
        shard = os.path.join(root, f"{key >> 56:02x}")
        os.makedirs(shard, exist_ok=True)
        frame = _OLD_MAGICS[suffix] + struct.pack("<BQ", 1, crc64(body))
        with open(os.path.join(shard, f"{key:016x}{suffix}"), "wb") as out:
            out.write(frame + body)
    return len(files)


class TestOldLayout:
    def test_old_store_is_a_clean_miss_written_forward(
        self, tmp_path, variant1
    ):
        root = str(tmp_path / "s")
        old_files = _old_layout_store(root, variant1)
        assert old_files == 3 * variant1.routine_count
        baseline = analyze_incremental(variant1, config=AnalysisConfig(store="off"))
        base = REGISTRY.snapshot()
        run = analyze_incremental(
            variant1, config=AnalysisConfig(store=SummaryStore(root))
        )
        delta = REGISTRY.delta_since(base)
        assert _result_bytes(run) == _result_bytes(baseline)
        assert run.metrics.phase1_store_hits == 0
        # Grade 1 is asked only where every triple its key reads is
        # known — here, of the routines that call nobody — and misses;
        # a component whose grade 1 missed or went unasked is never
        # looked up at grade 2.
        graph = build_frontend(variant1).call_graph
        leaves = [
            name for name in variant1.routine_names()
            if not graph.callees_of(name)
        ]
        assert leaves and delta.get("store.miss") == len(leaves)
        assert not delta.get("store.corrupt")
        stats = SummaryStore(root).stats()
        assert stats["packs"] == 1
        assert stats["triples"] == variant1.routine_count
        assert stats["other"] == old_files
        again = analyze_incremental(
            variant1, config=AnalysisConfig(store=SummaryStore(root))
        )
        assert again.metrics.phase2_store_hits == variant1.routine_count

    def test_stats_and_gc_through_the_cli(self, tmp_path, variant1, capsys):
        root = str(tmp_path / "s")
        old_files = _old_layout_store(root, variant1)
        assert main(["store", "stats", "--store-dir", root]) == EXIT_OK
        stats = json.loads(capsys.readouterr().out)
        assert (stats["other"], stats["packs"]) == (old_files, 0)
        assert main(["store", "gc", "--store-dir", root]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["removed"] == old_files
        assert report["remaining_bytes"] == 0
        assert os.listdir(root) == []  # fan-out directories gone too


# ----------------------------------------------------------------------
# Concurrency: forked writers and readers, daemon threads, one store
# ----------------------------------------------------------------------


def _concurrent_worker(version: int, root: str, out_path: str) -> None:
    program = _variant_program(version)
    analysis = analyze_incremental(
        program, config=AnalysisConfig(store=SummaryStore(root))
    )
    blob = dump_summaries(analysis.result)
    with open(out_path, "wb") as handle:
        handle.write(blob)


def _family_slots(tmp_path) -> set:
    """The records one publisher per variant leaves in a fresh store."""
    root = str(tmp_path / "sequential")
    for version in (1, 2):
        analyze_incremental(
            _variant_program(version),
            config=AnalysisConfig(store=SummaryStore(root)),
        )
    return _slots(root)


class TestConcurrentStore:
    def test_forked_writers_and_readers_agree(self, tmp_path):
        # Six processes race cold solves of two linked variants through
        # one store: each writes its own pack while the others read,
        # and whole-pack publishing plus one CRC per pack must keep
        # every result byte-identical to the store-less baselines.
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
        # At most a pack per publisher, no temp litter, and the
        # distinct records are one sequential family's.
        stats = SummaryStore(root).stats()
        assert 1 <= stats["packs"] <= 6
        assert stats["triples"] == 4  # 3 shared + 1 per-variant app
        assert stats["frontend"] == 4
        assert stats["other"] == 0
        assert _slots(root) == _family_slots(tmp_path)

    def test_daemon_threads_publish_into_one_store(self, tmp_path):
        # Two handler threads of one daemon publish different images
        # into its process-wide store at once.
        root = str(tmp_path / "shared")
        daemon = AnalysisDaemon(ServiceConfig(port=0, store_dir=root))
        server = threading.Thread(target=daemon.serve_forever)
        server.start()
        payloads, errors = {}, []

        def post(version):
            try:
                host, port = daemon.server.server_address[:2]
                payloads[version] = ServiceClient.tcp(host, port).analyze(
                    _variant_image(version).to_bytes(), include_summaries=True
                ).payload
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        try:
            posts = [threading.Thread(target=post, args=(v,)) for v in (1, 2)]
            for thread in posts:
                thread.start()
            for thread in posts:
                thread.join(timeout=120)
        finally:
            daemon.drain()
            server.join(timeout=30)
        assert not errors
        for version in (1, 2):
            local = AnalysisSession.from_program(
                _variant_program(version), AnalysisConfig(store="off")
            )
            local.analyze()
            assert payloads[version]["summaries"] == json.loads(json.dumps(
                local.to_json(include_summaries=True)["summaries"]
            ))
        assert 1 <= SummaryStore(root).stats()["packs"] <= 2
        assert _slots(root) == _family_slots(tmp_path)


# ----------------------------------------------------------------------
# CLI: store subcommand and --store-dir plumbing
# ----------------------------------------------------------------------


class TestStoreCLI:
    def test_stats_and_gc(self, tmp_path, capsys):
        root = str(tmp_path / "s")
        _publish(SummaryStore(root), lambda v: v.store_triple(42, "f", TRIPLE))
        assert main(["store", "stats", "--store-dir", root]) == EXIT_OK
        stats = json.loads(capsys.readouterr().out)
        assert stats["triples"] == 1
        assert stats["frontend"] == 0
        assert stats["packs"] == 1
        _publish(
            SummaryStore(root),
            lambda v: v.store_frontend(FrontendRecord(7, 1, (), ())),
        )
        assert main(["store", "stats", "--store-dir", root]) == EXIT_OK
        stats = json.loads(capsys.readouterr().out)
        assert (stats["frontend"], stats["packs"]) == (1, 2)
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
        root = str(tmp_path / "s")
        _publish(SummaryStore(root), lambda v: v.store_triple(42, "f", TRIPLE))
        monkeypatch.setenv(STORE_ENV_VAR, root)
        assert main(["store", "stats"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["triples"] == 1

    def test_analyze_store_dir_round_trip(self, tmp_path, capsys):
        root = str(tmp_path / "s")
        for version in (1, 2):
            path = str(tmp_path / f"v{version}.sax")
            with open(path, "wb") as handle:
                handle.write(_variant_image(version).to_bytes())
            code = main(
                ["analyze", path, "--incremental",
                 "--cache", str(tmp_path / f"v{version}.sum2"),
                 "--store-dir", root, "--stats"]
            )
            assert code == EXIT_OK
            out = capsys.readouterr().out
        # The second image's run reports library hits in its stats,
        # and built a CFG only for its own app module.
        assert "store.hit" in out
        assert "store.frontend.hit" in out
        assert "cfgs built:         1" in out
        stats = SummaryStore(root).stats()
        assert stats["triples"] == 4
        assert (stats["packs"], stats["other"]) == (2, 0)
