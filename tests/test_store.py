"""The cross-image summary store (:mod:`repro.interproc.store`).

Five layers of guarantees:

* **recorded inputs** — a table's row records a component's inputs: a
  callee edit reaches a caller's inputs exactly when it moves a triple
  the caller reads, two callees swapping bodies changes them (pairs
  bind names), and a row is adopted only when every input it recorded —
  fingerprint, callee triples, externally-callable bit, exit seed and
  the context digest of the result-changing configuration knobs —
  equals the current one;
* **pack robustness** — a pack survives truncation at every byte
  offset, mutation of every byte, trailing garbage, an index entry past
  its body, an unknown grade, a foreign magic and an old version as a
  miss (the reader unlinks the pack and the run's publish writes it
  again), never as an exception;
* **byte-identity** — analysis results are identical with the store
  enabled, disabled, missing its front-end records, poisoned, or left
  in an older layout, cold and warm, including concurrent multiprocess
  and daemon-thread publishers over one store directory, and a
  ``--cache`` sidecar dropped into ``packs/`` serves another image;
* **front-end records** — a routine the store has seen never gets its
  CFG rebuilt, and a record that does not describe the routine it is
  used for ends in a built CFG;
* **operations** — hit/miss/write/evict counters, per-pack LRU GC
  under a byte budget with merging, stale temp sweeping, and the
  ``spike-analyze store`` CLI.
"""

import json
import multiprocessing
import os
import random
import shutil
import struct
import threading

import pytest

from repro.api import AnalysisConfig, AnalysisSession
from repro.cli import EXIT_OK, EXIT_USAGE, main
from repro.cfg.cfg import FrontendRecord, RecordedSite
from repro.dataflow.equations import SummaryTriple
from repro.dataflow.regset import FULL_MASK
from repro.interproc import persist
from repro.interproc.frontend import build_frontend, jump_tables, shape_key
from repro.interproc.persist import (
    GRADE_BODY,
    GRADE_RECORDS,
    GRADE_TABLE,
    RoutineRow,
    SummaryCache,
    crc64,
    decode_pack,
    dump_cache,
    dump_summaries,
    encode_pack,
    load_cache,
    pack_slots,
    read_pack,
)
from repro.interproc.store import (
    STORE_ENV_VAR,
    SummaryStore,
    component_inputs,
    config_digest,
    resolve_store,
)
from repro.interproc.summaries import SummarySet, _triple_of
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


CONTEXT = config_digest(AnalysisConfig())
TRIPLE = SummaryTriple(may_use=0x1F, may_def=0x3, must_def=0x1)
CALLEE = SummaryTriple(1, 2, 0)


def _row(fingerprint, callees=(), phase2=None, triple=TRIPLE):
    """A table row; a summarized one gets a live-after mask per target."""
    live_after = () if phase2 is None else tuple(range(len(callees)))
    return RoutineRow(fingerprint, tuple(callees), phase2, triple, live_after)


def _table(rows, summaries=None, records=(), context=CONTEXT):
    return SummaryCache(
        image_fingerprint=0,
        result=SummarySet(summaries=summaries or {}),
        rows=rows,
        frontend_records={record.shape_key: record for record in records},
        config_digest=context,
    )


def _pack(*tables, records=()):
    """A pack of ``tables`` (one empty table when none) and ``records``."""
    return encode_pack(pack_slots(
        list(tables) or [_table({})],
        {record.shape_key: record for record in records}, {},
    )[0])


def _publish(store, rows=None, summaries=None, records=()):
    """One run's publish, through a view of its own."""
    store.open().publish(_table(rows or {}, summaries, records))


def _triple(view, name="f", fingerprint=42, callees=()):
    """The triple of the row of ``name`` that records these phase-1
    inputs, if a table holds one."""
    found = view.find(CONTEXT, [name], {name: (fingerprint, tuple(callees))})
    return found[1].rows[name].triple if found and view.use(found) else None


def _summary(view, name, inputs):
    """The summary of the row of ``name`` that records these phase-2
    ``inputs``, if a table holds one."""
    found = view.find(CONTEXT, [name], {name: inputs})
    if found and view.use(found, [name]):
        return found[1].result.summaries[name]
    return None


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


def _rows(root: str):
    """Every ``(name, recorded inputs)`` a table of an intact pack holds,
    and every front-end record's shape key."""
    held = set()
    for path in _pack_paths(root):
        tables = read_pack(_read(path))
        for table in tables:
            held.update((name, *row[:3]) for name, row in table.rows.items())
        held.update(tables[0].frontend_records)
    return held


def _pack_holding(root: str, name: str, fingerprint: int) -> str:
    for path in _pack_paths(root):
        if any(
            table.rows.get(name, _row(-1)).fingerprint == fingerprint
            for table in read_pack(_read(path))
        ):
            return path
    raise AssertionError(f"no pack holds {name} at {fingerprint}")


def _rewrite_records(root: str, keep) -> int:
    """Rewrite every pack without the front-end records whose shape key
    ``keep`` refuses; how many were dropped."""
    dropped = 0
    for path in _pack_paths(root):
        tables = read_pack(_read(path))
        records = {
            key: record for key, record in tables[0].frontend_records.items()
            if keep(key)
        }
        dropped += len(tables[0].frontend_records) - len(records)
        os.remove(path)
        with open(path, "wb") as out:
            out.write(encode_pack(pack_slots(tables, records, {})[0]))
    return dropped


def _poison(root: str) -> int:
    poisoned = 0
    for path in _pack_paths(root):
        with open(path, "r+b") as handle:
            handle.truncate(7)
        poisoned += 1
    return poisoned


def _entries(blob):
    """A pack's index entries with their record bodies."""
    return [
        (grade, key, blob[start:end]) for grade, key, start, end in decode_pack(blob)
    ]


def _raw_pack(entries, records: bytes, magic=b"SUM5", version=2):
    """A pack with a valid checksum over whatever index it is given."""
    body = struct.pack("<I", len(entries)) + b"".join(
        struct.pack("<BQII", *entry) for entry in entries
    ) + records
    return struct.pack("<4sBQ", magic, version, crc64(body)) + body


def _reindexed(blob, edit=lambda entries: entries, **frame):
    """``blob``'s records behind a fresh index (``edit`` may change the
    entries, ``frame`` the magic or version), re-checksummed."""
    entries, offset = [], 0
    for grade, key, body in _entries(blob):
        entries.append((grade, key, offset, len(body)))
        offset += len(body)
    records = b"".join(body for _g, _k, body in _entries(blob))
    return _raw_pack(edit(entries), records, **frame)


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
# Recorded inputs
# ----------------------------------------------------------------------


def _keys(fps, components, edges, triples=None, context=7):
    """Every routine's component's recorded inputs, as a table must hold
    them to serve it: the context, then per member its name and phase-1
    inputs (as :func:`component_inputs` gathers them, over plain
    dicts).  A routine's triple defaults to one that moves with its
    code."""
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
        component = (context, *sorted(inputs.items()))
        keys.update((name, component) for name in members)
    return keys


class TestDeepFingerprints:
    """Recorded inputs read callee *results*: a change reaches a
    caller's inputs exactly when it moves a triple the caller reads."""

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


@pytest.fixture(scope="module")
def helper_summary(quick_program):
    return analyze_program(quick_program).result.summaries["helper"]


class TestBoundaryKeys:
    """Phase-2 inputs: the phase-1 inputs plus each member's
    externally-callable bit and exit seed, each member's compared with
    its row in one table."""

    INPUTS = {
        "a": (11, (None, CALLEE), (True, 0)),
        "b": (22, (None,), (False, 0x30)),
    }

    def _view(self, tmp_path, summary, phase2=True):
        store = SummaryStore(str(tmp_path / "s"))
        _publish(
            store,
            {
                name: _row(fp, callees, seed if phase2 else None)
                for name, (fp, callees, seed) in self.INPUTS.items()
            },
            {name: summary for name in self.INPUTS},
        )
        return store.open()

    def test_member_order_is_canonical(self, tmp_path, helper_summary):
        view = self._view(tmp_path, helper_summary)
        one = view.find(CONTEXT, ["a", "b"], self.INPUTS)
        two = view.find(CONTEXT, ["b", "a"], self.INPUTS)
        assert one is not None and one[1] is two[1]

    def test_sensitive_to_every_input(self, tmp_path, helper_summary):
        view = self._view(tmp_path, helper_summary)
        assert view.find(CONTEXT, ["a", "b"], self.INPUTS) is not None
        a_fp, a_callees, a_phase2 = self.INPUTS["a"]
        for a in (
            (12, a_callees, a_phase2),  # own fingerprint
            (a_fp, (None, SummaryTriple(1, 2, 2)), a_phase2),  # callee triple
            (a_fp, (SummaryTriple(), CALLEE), a_phase2),  # SCC
            (a_fp, a_callees, (False, 0)),  # externally callable
            (a_fp, a_callees, (True, 1)),  # exit seed
        ):
            inputs = {**self.INPUTS, "a": a}
            assert view.find(CONTEXT, ["a", "b"], inputs) is None, a
            assert view.find(CONTEXT, ["b", "a"], inputs) is None, a
        assert view.find(CONTEXT + 1, ["a", "b"], self.INPUTS) is None
        # A phase-1-only row answers phase-1 inputs, never phase-2 ones.
        bare = self._view(tmp_path / "bare", helper_summary, phase2=False)
        phase1 = {name: inputs[:2] for name, inputs in self.INPUTS.items()}
        assert bare.find(CONTEXT, ["a", "b"], phase1) is not None
        assert bare.find(CONTEXT, ["a", "b"], self.INPUTS) is None

    def test_one_table_serves_a_component(self, tmp_path, helper_summary):
        # Each member's matching row sits in another run's table: those
        # runs solved components whose other members differed, so
        # nothing is adopted.
        store = SummaryStore(str(tmp_path / "s"))
        rows = {
            name: _row(fp, callees, seed)
            for name, (fp, callees, seed) in self.INPUTS.items()
        }
        summaries = {name: helper_summary for name in self.INPUTS}
        for stale in ("a", "b"):
            fp, callees, seed = self.INPUTS[stale]
            other = {**rows, stale: _row(fp, callees, (seed[0], seed[1] ^ 1))}
            _publish(store, other, summaries)
        view = store.open()
        assert view.holds(["a", "b"], {"a": 11, "b": 22})
        assert view.find(CONTEXT, ["a", "b"], self.INPUTS) is None
        phase1 = {name: inputs[:2] for name, inputs in self.INPUTS.items()}
        assert view.find(CONTEXT, ["a", "b"], phase1) is not None

    def test_rows_are_filed_by_name(self, tmp_path, helper_summary):
        view = self._view(tmp_path, helper_summary)
        # b's row is no answer for a routine named a with b's inputs.
        assert view.find(CONTEXT, ["a"], {"a": self.INPUTS["b"]}) is None
        assert view.find(CONTEXT, ["c"], {"c": self.INPUTS["b"]}) is None
        assert view.find(CONTEXT, ["b"], {"b": self.INPUTS["b"]}) is not None


class TestConfigDigest:
    def test_result_changing_knobs_are_bound(self):
        from repro.psg.build import PsgConfig

        base = config_digest(AnalysisConfig())
        assert base != config_digest(AnalysisConfig(callee_saved_filtering=False))
        assert base != config_digest(
            AnalysisConfig(psg=PsgConfig(branch_nodes=False))
        )


# ----------------------------------------------------------------------
# Pack robustness
# ----------------------------------------------------------------------


#: ``helper``'s recorded inputs in the summary pack below.
HELPER = (0xABCD, (CALLEE,), (False, 0x30))


@pytest.fixture(scope="module")
def summary_record(helper_summary):
    row = _row(HELPER[0], HELPER[1], HELPER[2], _triple_of(helper_summary))
    return HELPER, helper_summary, _pack(
        _table({"helper": row}, {"helper": helper_summary})
    )


@pytest.fixture(scope="module")
def frontend_record(quick_program):
    # ``main`` has a call site, so the record exercises every field.
    record = build_frontend(quick_program).records["main"]
    assert record.sites
    return record, _pack(records=[record])


TRIPLE_PACK = _pack(_table({"f": _row(42)}))


def _summary_lookup(inputs):
    return lambda view: _summary(view, "helper", inputs)


def _site_added(body, target=b"helper", live_after=0):
    """``body`` with one more call site, to one target spelled
    ``target``, whose live-after mask is ``live_after`` (the sites
    end a body; its five masks and exit count come first, 13 bytes an
    exit)."""
    (exits,) = struct.unpack_from("<I", body, 40)
    at = 44 + 13 * exits
    (sites,) = struct.unpack_from("<I", body, at)
    site = struct.pack("<IIBHH", 0, 0, 0, 1, len(target)) + target
    site += struct.pack("<5Q", 0, 0, 0, 0, live_after)
    return body[:at] + struct.pack("<I", sites + 1) + body[at + 4:] + site


#: Ways to forge a summary body past the pack's checksum, each one the
#: body check rejects: cut one byte short, an unknown exit-kind code
#: (the first exit's, after the five masks, the exit count and its
#: block), a site mask above the register file, a call target that is
#: not UTF-8, one trailing byte.
_FORGERIES = {
    "truncated": lambda body: body[:-1],
    "exit-kind": lambda body: body[:48] + b"\x09" + body[49:],
    "site-mask": lambda body: _site_added(body, live_after=1 << 63),
    "utf8": lambda body: _site_added(body, target=b"\xffhelper"),
    "trailing": lambda body: body + b"\x00",
}


def _narrow_register_file(monkeypatch):
    """A u64 mask cannot exceed a 64-register file: checks made after
    this see a file one register narrower, which the site-mask forgery
    exceeds (every mask the tests publish fits it)."""
    monkeypatch.setattr(persist, "FULL_MASK", FULL_MASK >> 1)


def _forged_body(blob, forgery="truncated"):
    """``blob`` with its summary body forged (see :data:`_FORGERIES`),
    re-checksummed: the pack opens, and the body fails its check when a
    component adopts it."""
    edit = _FORGERIES[forgery]
    return encode_pack({
        (grade, key): edit(body) if grade == GRADE_BODY else body
        for grade, key, body in _entries(blob)
    })


class TestRecordCodecs:
    def test_triple_roundtrip(self, tmp_path):
        probe = _Probe(str(tmp_path / "s"))
        assert probe.load(TRIPLE_PACK, _triple) == TRIPLE

    def test_frontend_roundtrip(self, tmp_path, frontend_record):
        record, blob = frontend_record
        probe = _Probe(str(tmp_path / "s"))
        assert probe.load(
            blob, lambda v: v.frontend_record(record.shape_key)
        ) == record

    def test_frontend_wrong_key_refused(self, tmp_path, frontend_record):
        # A record answers for its own shape key only: any other is a
        # miss that leaves the pack alone.
        record, blob = frontend_record
        probe = _Probe(str(tmp_path / "s"))
        base = REGISTRY.snapshot()
        assert probe.load(
            blob, lambda v: v.frontend_record(record.shape_key ^ 1)
        ) is None
        delta = REGISTRY.delta_since(base)
        # The caller counts its lookups, once per run (build_frontend).
        assert not delta.get("store.frontend.miss")
        assert not delta.get("store.corrupt")
        assert os.path.exists(probe.path)

    def test_summary_roundtrip(self, tmp_path, summary_record):
        inputs, summary, blob = summary_record
        probe = _Probe(str(tmp_path / "s"))
        assert probe.load(blob, _summary_lookup(inputs)) == summary

    def test_identity_mismatch_rejected(self, tmp_path, summary_record):
        # The right name and fingerprint, but another recorded callee
        # triple, exit seed or externally-callable bit: not adopted,
        # and not corrupt either.
        (fingerprint, callees, phase2), _, blob = summary_record
        probe = _Probe(str(tmp_path / "s"))
        for inputs in (
            (fingerprint, (SummaryTriple(1, 2, 2),), phase2),
            (fingerprint, (None,), phase2),
            (fingerprint, callees, (False, 0x31)),
            (fingerprint, callees, (True, 0x30)),
            (fingerprint + 1, callees, phase2),
        ):
            assert probe.load(blob, _summary_lookup(inputs)) is None, inputs
        assert probe.load(
            blob, lambda v: _summary(v, "other", (fingerprint, callees, phase2))
        ) is None
        assert os.path.exists(probe.path)  # refused, not corrupt

    def test_grade_confusion_rejected(self, tmp_path, summary_record):
        # A phase-1-only row answers no phase-2 lookup, a routine's
        # fingerprint is no shape key, and a slot of a grade the format
        # does not have makes the pack corrupt.
        inputs, _, blob = summary_record
        probe = _Probe(str(tmp_path / "s"))
        assert probe.load(
            TRIPLE_PACK, lambda v: _summary(v, "f", (42, (), (False, 0)))
        ) is None
        assert probe.load(blob, lambda v: v.frontend_record(inputs[0])) is None
        probe.assert_corrupt_miss(
            _reindexed(blob, lambda entries: [
                (3 if grade == GRADE_BODY else grade, *rest)
                for grade, *rest in entries
            ]),
            _summary_lookup(inputs), "an unknown grade",
        )

    def _assert_all_prefixes_rejected(self, tmp_path, blob, lookup):
        probe = _Probe(str(tmp_path / "s"))
        for size in range(len(blob)):
            probe.assert_corrupt_miss(
                blob[:size], lookup, f"prefix of {size} bytes"
            )

    def test_triple_every_prefix_rejected(self, tmp_path):
        self._assert_all_prefixes_rejected(tmp_path, TRIPLE_PACK, _triple)

    def test_summary_every_prefix_rejected(self, tmp_path, summary_record):
        inputs, _, blob = summary_record
        self._assert_all_prefixes_rejected(
            tmp_path, blob, _summary_lookup(inputs)
        )

    def test_frontend_every_prefix_rejected(self, tmp_path, frontend_record):
        record, blob = frontend_record
        self._assert_all_prefixes_rejected(
            tmp_path, blob, lambda v: v.frontend_record(record.shape_key)
        )

    def test_every_byte_mutation_rejected(
        self, tmp_path, summary_record, frontend_record
    ):
        # Any single corrupted byte must fail the magic, version, CRC
        # or index check — never parse, never leak an exception.
        inputs, _, summary_blob = summary_record
        record, frontend_blob = frontend_record
        probe = _Probe(str(tmp_path / "s"))
        for blob, lookup in (
            (summary_blob, _summary_lookup(inputs)),
            (frontend_blob, lambda v: v.frontend_record(record.shape_key)),
            (TRIPLE_PACK, _triple),
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
        inputs, _, blob = summary_record
        probe = _Probe(str(tmp_path / "s"))
        probe.assert_corrupt_miss(
            blob + b"\x00", _summary_lookup(inputs), "garbage"
        )
        record, blob = frontend_record
        probe.assert_corrupt_miss(
            blob + b"\x00", lambda v: v.frontend_record(record.shape_key), "garbage"
        )
        # Behind a valid checksum, every section is read exactly.
        probe.assert_corrupt_miss(
            _reindexed(blob, lambda entries: [
                (grade, key, offset, length + (grade == GRADE_TABLE))
                for grade, key, offset, length in entries
            ]),
            lambda v: v.frontend_record(record.shape_key), "a long table",
        )

    def test_entry_past_the_body_rejected(self, tmp_path):
        probe = _Probe(str(tmp_path / "s"))
        size = len(TRIPLE_PACK)
        for edit in (
            lambda offset, length: (offset, length + 1),
            lambda offset, length: (offset + length, 1),
            lambda offset, length: (2**32 - 1, 2**32 - 1),
        ):
            forged = _reindexed(TRIPLE_PACK, lambda entries: [
                (grade, key, *edit(offset, length))
                if grade == GRADE_TABLE else (grade, key, offset, length)
                for grade, key, offset, length in entries
            ])
            probe.assert_corrupt_miss(forged, _triple, f"an entry past {size}")
        # ... and an index longer than the pack.
        count_at = struct.calcsize("<4sBQ")
        forged = bytearray(TRIPLE_PACK)
        forged[count_at:count_at + 4] = struct.pack("<I", 1000)
        forged[5:13] = struct.pack("<Q", crc64(bytes(forged[count_at:])))
        probe.assert_corrupt_miss(bytes(forged), _triple, "a long index")

    def test_malformed_index_rejected(self, tmp_path):
        probe = _Probe(str(tmp_path / "s"))
        probe.assert_corrupt_miss(
            _reindexed(TRIPLE_PACK, lambda entries: [
                (9, *rest) for _grade, *rest in entries
            ]),
            _triple, "unknown grade",
        )
        probe.assert_corrupt_miss(
            _reindexed(TRIPLE_PACK, lambda entries: entries + entries[-1:]),
            _triple, "a duplicate entry",
        )
        probe.assert_corrupt_miss(
            _reindexed(TRIPLE_PACK, lambda entries: [
                entry for entry in entries if entry[0] != GRADE_RECORDS
            ]),
            _triple, "no record section",
        )

    def test_foreign_magic_and_old_version_rejected(self, tmp_path):
        probe = _Probe(str(tmp_path / "s"))
        assert probe.load(_reindexed(TRIPLE_PACK), _triple) == TRIPLE
        # The store's own packs before it adopted the sidecar's format.
        probe.assert_corrupt_miss(
            _reindexed(TRIPLE_PACK, magic=b"SSTP", version=3), _triple,
            "a store pack of the old format",
        )
        probe.assert_corrupt_miss(
            _reindexed(TRIPLE_PACK, version=1), _triple, "an old version"
        )

    def test_empty_pack(self, tmp_path):
        probe = _Probe(str(tmp_path / "s"))
        probe.assert_corrupt_miss(b"", _triple, "an empty file")
        # A well-formed pack of one empty table is no one's answer: a
        # plain miss.
        base = REGISTRY.snapshot()
        assert probe.load(_pack(), _triple) is None
        assert not REGISTRY.delta_since(base).get("store.corrupt")
        assert os.path.exists(probe.path)

    def test_same_key_in_two_packs(self, tmp_path):
        root = str(tmp_path / "s")
        store = SummaryStore(root)
        _publish(store, {"f": _row(42)})
        other = _pack(_table({"f": _row(42), "g": _row(43)}))
        with open(os.path.join(store.packs_dir, "other.pack"), "wb") as out:
            out.write(other)
        view = store.open()
        assert _triple(view) == TRIPLE
        assert _triple(view, "g", 43) == TRIPLE
        stats = store.stats()
        assert (stats["packs"], stats["triples"]) == (2, 2)


def _verdict(walk, body, name):
    """``None`` when ``walk`` accepts ``body``, else the message of the
    :class:`SummaryFormatError` it raised; any other exception fails."""
    try:
        walk(body, name)
    except persist.SummaryFormatError as error:
        return str(error)
    return None


class TestBodyCheck:
    """Adoption checks a summary body (``PackedMap.check``) instead of
    decoding it, so the check must refuse exactly what decoding
    refuses."""

    #: Seeded single-byte substitutions per body.
    SUBSTITUTIONS = 12000

    @pytest.fixture(scope="class")
    def bodies(self, variant1, variant2):
        """Every summary body of the two variants' packs, by name."""
        found = {}
        for program in (variant1, variant2):
            off = AnalysisConfig(store="off")
            cache = analyze_incremental(program, config=off).cache
            summaries = read_pack(dump_cache(cache))[0].result.summaries
            for name in summaries:
                found[summaries.body(name)[0]] = name
        assert any(b"scale" in body for body in found)  # a call target
        return found

    def _mutants(self, body, rng):
        yield from (body[:size] for size in range(len(body)))
        yield body + b"\x00"
        for _ in range(self.SUBSTITUTIONS):
            at = rng.randrange(len(body))
            yield body[:at] + bytes([rng.randrange(256)]) + body[at + 1:]

    #: What decoding refuses, by the words of its messages.
    RULES = ("truncated", "exit kind", "UTF-8", "trailing", "register mask")

    @pytest.mark.parametrize("width", ["registers", "one-narrower"])
    def test_check_refuses_exactly_what_decoding_refuses(
        self, bodies, width, monkeypatch
    ):
        if width == "one-narrower":
            _narrow_register_file(monkeypatch)
        rng = random.Random(39)
        # One name cache per walk, shared by every body as a pack's is.
        names = {}
        check = lambda body, name: persist._check_summary(body, name, names)
        refused = set()
        mutants = 0
        for body, name in bodies.items():
            assert _verdict(check, body, name) is None
            for mutant in self._mutants(body, rng):
                mutants += 1
                decoded = _verdict(persist._decode_summary, mutant, name)
                checked = _verdict(check, mutant, name)
                assert (checked is None) == (decoded is None), (
                    name, mutant.hex(), decoded, checked
                )
                if decoded is not None:
                    refused.update(rule for rule in self.RULES if rule in decoded)
        assert mutants > len(bodies) * self.SUBSTITUTIONS
        # Every rule refused some mutant; a mask can only be too wide
        # for the narrower file.
        assert refused == set(self.RULES[:4 if width == "registers" else 5])

    def test_forged_sites_are_well_formed(self, helper_summary):
        # The site the forgeries add is refused only for what they put
        # in it.
        body = persist._encode_summary(helper_summary)
        for forged in (body, _site_added(body)):
            assert _verdict(persist._check_summary, forged, "helper") is None
            assert _verdict(persist._decode_summary, forged, "helper") is None


# ----------------------------------------------------------------------
# Store I/O, counters, GC
# ----------------------------------------------------------------------


class TestStoreIO:
    def test_store_and_load(self, tmp_path):
        store = SummaryStore(str(tmp_path / "s"))
        _publish(store, {"f": _row(42)})
        view = store.open()
        assert _triple(view) == TRIPLE
        assert _triple(view, "f", 43) is None  # absent: a miss

    def test_counters(self, tmp_path, quick_program):
        store = SummaryStore(str(tmp_path / "s"))
        record = FrontendRecord(7, 1, (), ())
        base = REGISTRY.snapshot()
        _publish(store, {"f": _row(42)}, records=[record])
        _publish(store, records=[record])  # held: nothing to write
        delta = REGISTRY.delta_since(base)
        assert delta.get("store.write") == 1
        assert delta.get("store.bytes", 0) > 0
        assert delta.get("store.frontend.write") == 1
        assert len(_pack_paths(store.root)) == 1
        # A run counts, per routine and phase, what the store served;
        # it asks only about components it holds rows of.
        config = AnalysisConfig(store=store)
        routines = quick_program.routine_count
        base = REGISTRY.snapshot()
        analyze_incremental(quick_program, config=config)
        delta = REGISTRY.delta_since(base)
        assert not delta.get("store.hit")
        assert not delta.get("store.miss")
        assert delta.get("store.write") == 2 * routines
        base = REGISTRY.snapshot()
        analyze_incremental(quick_program, config=config)
        delta = REGISTRY.delta_since(base)
        assert delta.get("store.hit") == 2 * routines
        assert not delta.get("store.miss")
        assert not delta.get("store.write")

    def test_corrupt_record_is_a_miss(self, tmp_path):
        store = SummaryStore(str(tmp_path / "s"))
        _publish(store, {"f": _row(42)})
        assert _poison(store.root) == 1
        base = REGISTRY.snapshot()
        assert _triple(store.open()) is None
        assert REGISTRY.delta_since(base).get("store.corrupt") == 1
        assert _pack_paths(store.root) == []  # unlinked

    def test_corrupt_packs_leave_the_others_served(
        self, tmp_path, summary_record, monkeypatch
    ):
        # Packs are read in name order: a corrupt one between good ones
        # (at open), and one whose summary body fails its check (at
        # adoption), cost only their own rows — whatever the forgery.
        inputs, _, blob = summary_record
        for forgery in _FORGERIES:
            store = SummaryStore(str(tmp_path / forgery))
            os.makedirs(store.packs_dir)
            packs = {
                "a": TRIPLE_PACK,
                "b": TRIPLE_PACK[:-1],
                "c": _pack(_table({"h": _row(3)})),
                "d": _forged_body(blob, forgery),
                "e": _pack(_table({"j": _row(5)})),
            }
            for name, pack in packs.items():
                with open(os.path.join(store.packs_dir, f"{name}.pack"), "wb") as out:
                    out.write(pack)
            with monkeypatch.context() as patch:
                if forgery == "site-mask":
                    _narrow_register_file(patch)
                base = REGISTRY.snapshot()
                view = store.open()
                assert _summary(view, "helper", inputs) is None, forgery
                for name, fingerprint in (("f", 42), ("h", 3), ("j", 5)):
                    assert _triple(view, name, fingerprint) == TRIPLE
                assert REGISTRY.delta_since(base).get("store.corrupt") == 2
            assert sorted(os.listdir(store.packs_dir)) == [
                "a.pack", "c.pack", "e.pack"
            ], forgery

    @pytest.mark.parametrize("grade", [
        "triple", "summary", *(f"summary-{forgery}" for forgery in _FORGERIES
                               if forgery != "truncated"),
        "frontend",
    ])
    def test_corrupt_record_is_repaired_by_the_next_publish(
        self, tmp_path, summary_record, frontend_record, grade, monkeypatch
    ):
        # A pack that cannot be read has to go, or its rows would miss
        # forever; the run that missed publishes them again.  A summary
        # body forged any way is refused at adoption ("summary" cuts it
        # short), and the republished answer is the store-less solve's
        # to the byte.
        store = SummaryStore(str(tmp_path / "s"))
        inputs, summary, blob = summary_record
        record, _ = frontend_record
        kind, _, forgery = grade.partition("-")
        if forgery == "site-mask":
            _narrow_register_file(monkeypatch)
        solved, load, forged, prefix = {
            "triple": (
                _table({"f": _row(42)}), _triple, TRIPLE_PACK[:-1], "store",
            ),
            "summary": (
                load_cache(blob), _summary_lookup(inputs),
                _forged_body(blob, forgery or "truncated"), "store",
            ),
            "frontend": (
                _table({}, records=[record]),
                lambda v: v.frontend_record(record.shape_key),
                _pack(records=[record])[:-1], "store.frontend",
            ),
        }[kind]
        store.open().publish(solved)
        expected = load(store.open())
        assert expected is not None
        (path,) = _pack_paths(store.root)
        with open(path, "wb") as out:
            out.write(forged)
        base = REGISTRY.snapshot()
        view = store.open()
        assert load(view) is None
        assert _pack_paths(store.root) == []  # unlinked
        view.publish(solved)
        assert load(store.open()) == expected
        delta = REGISTRY.delta_since(base)
        assert delta.get("store.corrupt") == 1
        assert delta.get(f"{prefix}.write") >= 1
        if kind == "summary":
            assert dump_summaries(
                SummarySet(summaries={"helper": load(store.open())})
            ) == dump_summaries(SummarySet(summaries={"helper": summary}))

    def test_identity_mismatch_is_left_in_place(self, tmp_path):
        # A row under another fingerprint or another name: refused, but
        # whoever it belongs to must still find it (no unlink, no
        # thrash).
        store = SummaryStore(str(tmp_path / "s"))
        _publish(store, {"f": _row(42)})
        base = REGISTRY.snapshot()
        view = store.open()
        assert _triple(view, "g") is None
        assert _triple(view, "f", 43) is None
        assert not REGISTRY.delta_since(base).get("store.corrupt")
        assert _triple(view) == TRIPLE
        assert _triple(store.open()) == TRIPLE

    def test_frontend_grade_counts_under_its_own_names(
        self, tmp_path, frontend_record
    ):
        record, _ = frontend_record
        store = SummaryStore(str(tmp_path / "s"))
        base = REGISTRY.snapshot()
        _publish(store, records=[record])
        _publish(store, records=[record])  # held: no second write
        view = store.open()
        assert view.frontend_record(record.shape_key) == record
        assert view.frontend_record(record.shape_key ^ 1) is None
        delta = REGISTRY.delta_since(base)
        assert delta.get("store.frontend.write") == 1
        # Lookups are counted by their caller, once per run.
        assert not delta.get("store.frontend.hit")
        assert not delta.get("store.frontend.miss")
        # The summary names did not move.
        for name in ("store.hit", "store.miss", "store.write", "store.bytes"):
            assert not delta.get(name)

    def test_pack_layout(self, tmp_path, summary_record, frontend_record):
        # One publishing run, one file: <store>/packs/<crc64 of body>.pack,
        # exactly what dump_cache writes, its index sorted by slot.
        root = str(tmp_path / "s")
        inputs, summary, blob = summary_record
        rows = {
            **load_cache(blob).rows,
            "f": _row(0xAB00000000000001),
            "g": _row(7),
        }
        _publish(
            SummaryStore(root), rows, {"helper": summary},
            records=[frontend_record[0]],
        )
        assert os.listdir(root) == ["packs"]
        (path,) = _pack_paths(root)
        blob = _read(path)
        assert blob[:5] == b"SUM5\x02"
        checksum = struct.unpack_from("<Q", blob, 5)[0]
        assert checksum == crc64(blob[13:])
        assert os.path.basename(path) == f"{checksum:016x}.pack"
        slots = [(grade, key) for grade, key, _s, _e in decode_pack(blob)]
        assert slots == sorted(slots)
        # The body of helper, the table's third row in name order.
        assert slots == [(GRADE_TABLE, 0), (GRADE_BODY, 2), (GRADE_RECORDS, 0)]
        published = load_cache(blob)
        assert published.rows == rows
        assert published.result.summaries["helper"] == summary
        assert published.frontend_records == {
            frontend_record[0].shape_key: frontend_record[0]
        }
        assert dump_cache(published) == blob

    def test_one_touch_per_pack_that_served_a_hit(self, tmp_path, monkeypatch):
        store = SummaryStore(str(tmp_path / "s"))
        _publish(store, {"f": _row(1), "g": _row(2)})
        _publish(store, {"h": _row(3)})
        view = store.open()
        touched = []
        monkeypatch.setattr(os, "utime", lambda path, *a, **k: touched.append(path))
        assert _triple(view, "f", 1) == TRIPLE
        assert _triple(view, "g", 2) == TRIPLE
        assert _triple(view, "i", 4) is None
        assert touched == [_pack_holding(store.root, "f", 1)]

    def test_unwritable_store_never_fails(self, tmp_path):
        # The root is occupied by a plain file: every mkdir, write and
        # read raises OSError, and all of it must degrade to misses.
        root = tmp_path / "not-a-dir"
        root.write_bytes(b"occupied")
        store = SummaryStore(str(root))
        _publish(store, {"f": _row(42)})  # dropped
        assert _triple(store.open()) is None
        assert store.stats()["triples"] == 0

    def test_stats(self, tmp_path, summary_record, frontend_record):
        inputs, summary, blob = summary_record
        store = SummaryStore(str(tmp_path / "s"))
        _publish(
            store, {**load_cache(blob).rows, "f": _row(42)},
            {"helper": summary}, records=[frontend_record[0]],
        )
        stats = store.stats()
        assert stats["packs"] == 1
        assert stats["triples"] == 2
        assert stats["summaries"] == 1
        assert stats["frontend"] == 1
        assert stats["other"] == 0
        assert stats["bytes"] == os.path.getsize(_pack_paths(store.root)[0])
        # Counts are of distinct rows, whichever packs hold them.
        with open(os.path.join(store.packs_dir, "dup.pack"), "wb") as out:
            out.write(TRIPLE_PACK)
        stats = store.stats()
        assert (stats["packs"], stats["triples"]) == (2, 2)


class TestGC:
    def test_sweeps_stale_tmp_files(self, tmp_path):
        store = SummaryStore(str(tmp_path / "s"))
        _publish(store, {"f": _row(42)})
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
        assert _triple(store.open()) == TRIPLE

    def test_lru_eviction_under_budget(self, tmp_path):
        root = str(tmp_path / "s")
        store = SummaryStore(root)
        for key in range(1, 9):
            _publish(store, {"f": _row(key)})
        assert len(_pack_paths(root)) == 8
        size = os.path.getsize(_pack_paths(root)[0])
        # Age the packs of keys 1..4; the recently used packs of 5..8
        # must survive a 4-pack budget.
        for key in range(1, 5):
            path = _pack_holding(root, "f", key)
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
            assert _triple(view, "f", key) is None
        for key in range(5, 9):
            assert _triple(view, "f", key) == TRIPLE

    def test_no_budget_keeps_everything(self, tmp_path):
        store = SummaryStore(str(tmp_path / "s"))
        for key in range(1, 4):
            _publish(store, {"f": _row(key)})
        assert store.gc()["removed"] == 0
        stats = store.stats()
        assert (stats["packs"], stats["triples"]) == (1, 3)

    def test_merge_drops_duplicate_and_corrupt_packs(self, tmp_path):
        root = str(tmp_path / "s")
        store = SummaryStore(root)
        _publish(store, {"f": _row(42)})
        _publish(store, {"g": _row(43)})
        with open(os.path.join(store.packs_dir, "dup.pack"), "wb") as out:
            out.write(_pack(_table({"f": _row(42)}), records=[
                FrontendRecord(7, 1, (), ())
            ]))
        with open(os.path.join(store.packs_dir, "bad.pack"), "wb") as out:
            out.write(TRIPLE_PACK[:-1])
        store.gc()
        (merged,) = _pack_paths(root)
        tables = read_pack(_read(merged))
        # A table per distinct run's table: adoption never mixes them.
        assert sorted(sorted(table.rows) for table in tables) == [["f"], ["g"]]
        assert list(tables[0].frontend_records) == [7]
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

        base = REGISTRY.snapshot()
        second = analyze_incremental(variant2, config=config)
        # mathlib (scale) and util (offset) are byte-identical across
        # the variants; only the edited app must re-solve.
        assert second.metrics.phase1_store_hits == 2
        assert second.metrics.phase2_store_hits == 2
        # Adoption checks each adopted summary body and decodes none.
        delta = REGISTRY.delta_since(base)
        assert delta["store.body.checked"] == second.metrics.phase2_store_hits
        assert delta["cache.body.decoded"] == 0
        assert second.metrics.phase1_solved == 1
        assert second.metrics.cfgs_built == 1  # the app module's main
        assert _result_bytes(second) == _result_bytes(baseline2)
        assert len(_pack_paths(store.root)) == 2  # one per publishing run

    def test_store_registry_calls_do_not_grow_with_the_library(
        self, tmp_path, monkeypatch
    ):
        """An adopting run records its store counts once per call site:
        a variant linked against a 20-routine and a 200-routine library
        makes the same number of ``store.*`` ``REGISTRY.inc`` calls,
        with totals that still count every routine and body."""

        def library(size):
            lib = ObjectModule("chainlib")
            for index in range(size):
                lib.routine(f"lib{index}")
                if index + 1 < size:
                    lib.memory("lda", "sp", -16, "sp")
                    lib.memory("stq", "ra", 0, "sp")
                    lib.bsr(f"lib{index + 1}")
                    lib.memory("ldq", "ra", 0, "sp")
                    lib.memory("lda", "sp", 16, "sp")
                else:
                    lib.op("addq", "a0", 7, "v0")
                lib.ret()
            return lib

        def variant(size, version):
            app = ObjectModule("app")
            app.extern("lib0")
            app.routine("main", exported=True)
            app.li("a0", 4 + version)
            app.bsr("lib0")
            app.output()
            app.halt()
            return disassemble_image(
                link_modules([app, library(size)], entry="main")
            )

        calls = []
        inc = REGISTRY.inc

        def counting(name, amount=1, **labels):
            calls.append(name)
            inc(name, amount, **labels)

        made = {}
        for size in (20, 200):
            config = AnalysisConfig(store=SummaryStore(str(tmp_path / str(size))))
            analyze_incremental(variant(size, 1), config=config)
            base = REGISTRY.snapshot()
            monkeypatch.setattr(REGISTRY, "inc", counting)
            run = analyze_incremental(variant(size, 2), config=config)
            monkeypatch.undo()
            delta = REGISTRY.delta_since(base)
            assert run.metrics.phase2_store_hits == size
            assert delta["store.frontend.hit"] == size
            assert delta["store.frontend.miss"] == 1  # the edited main
            assert delta["store.body.checked"] == size
            made[size] = sum(name.startswith("store.") for name in calls)
            calls[:] = []
        assert made[20] == made[200]

    def test_sidecar_dropped_into_packs_serves_another_image(
        self, tmp_path, variant1, variant2
    ):
        # A --cache sidecar is a store pack: copied into an empty
        # store's packs/, it serves an identical copy completely and a
        # linked variant its library.
        off = AnalysisConfig(store="off")
        sidecar = dump_cache(analyze_incremental(variant1, config=off).cache)
        store = SummaryStore(str(tmp_path / "s"))
        os.makedirs(store.packs_dir)
        with open(os.path.join(store.packs_dir, "sidecar.pack"), "wb") as out:
            out.write(sidecar)
        config = AnalysisConfig(store=store)
        for program, hits, built in (
            (_variant_program(1), variant1.routine_count, 0),
            (variant2, 2, 1),
        ):
            base = REGISTRY.snapshot()
            run = analyze_incremental(program, config=config)
            delta = REGISTRY.delta_since(base)
            assert run.metrics.phase1_store_hits == hits
            assert run.metrics.phase2_store_hits == hits
            assert delta.get("store.hit") == 2 * hits
            assert run.metrics.cfgs_built == built
            assert _result_bytes(run) == _result_bytes(
                analyze_incremental(program, config=off)
            )

    @pytest.mark.parametrize("forged", ["callee-triple", "exit-seed"])
    def test_row_with_other_recorded_inputs_is_not_adopted(
        self, tmp_path, variant1, forged
    ):
        # ``scale``'s row keeps its name and fingerprint but records
        # another triple for its callee, or another exit seed: the
        # component re-solves (all of it, or its phase 2) instead.
        root = str(tmp_path / "s")
        config = AnalysisConfig(store=SummaryStore(root))
        analyze_incremental(variant1, config=config)
        (path,) = _pack_paths(root)
        tables = read_pack(_read(path))
        (table,) = tables
        row = table.rows["scale"]
        if forged == "callee-triple":
            row = row._replace(callees=(SummaryTriple(1, 1, 1),))
        else:
            row = row._replace(phase2=(row.phase2[0], row.phase2[1] ^ 1))
        table.rows = {**table.rows, "scale": row}
        table.table = None
        with open(path, "wb") as out:
            out.write(encode_pack(pack_slots(tables, table.frontend_records, {})[0]))
        base = REGISTRY.snapshot()
        run = analyze_incremental(variant1, config=config)
        assert REGISTRY.delta_since(base).get("store.miss") == 1
        routines = variant1.routine_count
        assert run.metrics.phase2_store_hits == routines - 1
        assert run.metrics.phase1_store_hits == (
            routines - 1 if forged == "callee-triple" else routines
        )
        assert run.metrics.phase2_solved == 1
        assert _result_bytes(run) == _result_bytes(
            analyze_incremental(variant1, config=AnalysisConfig(store="off"))
        )

    def test_store_of_another_configuration_serves_no_summary(
        self, tmp_path, variant1
    ):
        # Rows are scoped by the configuration their run solved under;
        # front-end records depend on the bytes alone and still serve.
        store = SummaryStore(str(tmp_path / "s"))
        analyze_incremental(variant1, config=AnalysisConfig(store=store))
        other = AnalysisConfig(store=store, callee_saved_filtering=False)
        run = analyze_incremental(_variant_program(1), config=other)
        assert run.metrics.phase1_store_hits == 0
        assert run.metrics.phase2_store_hits == 0
        assert run.metrics.phase2_solved == variant1.routine_count
        assert _result_bytes(run) == _result_bytes(analyze_incremental(
            variant1,
            config=AnalysisConfig(store="off", callee_saved_filtering=False),
        ))

    def test_leaf_edit_that_keeps_its_triple_keeps_callers_served(
        self, tmp_path
    ):
        # Rows record callee triples, not callee code: editing the leaf
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
        # Every routine's row and record sits in the run's one pack.
        assert len(_rows(root)) == 2 * variant1.routine_count
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
        # ... and the rerun's publish wrote all of it again.
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
        # An identical re-analysis finds every component held.
        base = REGISTRY.snapshot()
        analyze_program(variant1, AnalysisConfig(store=store))
        assert not REGISTRY.delta_since(base).get("store.write")

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
        # A store without front-end records: its rows keep serving,
        # every shape key is a miss, and the records are written
        # forward.
        root = str(tmp_path / "s")
        store = SummaryStore(root)
        config = AnalysisConfig(store=store)
        baseline = analyze_incremental(variant2, config=AnalysisConfig(store="off"))
        analyze_incremental(variant1, config=config)
        assert _rewrite_records(root, lambda _key: False) == variant1.routine_count
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
        assert _rewrite_records(root, lambda k: k != key) == 1
        _publish(store, records=[
            FrontendRecord(key, 2, (RecordedSite(0, 0, False, None),), ())
        ])
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
# A store holding packs of an older format
# ----------------------------------------------------------------------


def _old_packs(root: str) -> None:
    """Leave in ``root``'s packs/ one pack of the store's former format
    (``SSTP``, checksummed) and one of the previous SUM5 layout."""
    os.makedirs(os.path.join(root, "packs"), exist_ok=True)
    for name, frame in (("sstp", dict(magic=b"SSTP", version=3)),
                        ("sum5v1", dict(version=1))):
        with open(os.path.join(root, "packs", f"{name}.pack"), "wb") as out:
            out.write(_reindexed(TRIPLE_PACK, **frame))


class TestOldLayout:
    def test_old_store_is_a_clean_miss_written_forward(
        self, tmp_path, variant1
    ):
        root = str(tmp_path / "s")
        _old_packs(root)
        baseline = analyze_incremental(variant1, config=AnalysisConfig(store="off"))
        base = REGISTRY.snapshot()
        run = analyze_incremental(
            variant1, config=AnalysisConfig(store=SummaryStore(root))
        )
        delta = REGISTRY.delta_since(base)
        assert _result_bytes(run) == _result_bytes(baseline)
        assert run.metrics.phase1_store_hits == 0
        # Each old pack misses for everything in it and is unlinked.
        assert delta.get("store.corrupt") == 2
        stats = SummaryStore(root).stats()
        assert (stats["packs"], stats["other"]) == (1, 0)
        assert stats["triples"] == variant1.routine_count
        again = analyze_incremental(
            variant1, config=AnalysisConfig(store=SummaryStore(root))
        )
        assert again.metrics.phase2_store_hits == variant1.routine_count

    def test_stats_and_gc_through_the_cli(self, tmp_path, capsys):
        root = str(tmp_path / "s")
        _old_packs(root)
        stray = os.path.join(root, "packs", "notes.txt")
        with open(stray, "w") as out:
            out.write("not a pack")
        assert main(["store", "stats", "--store-dir", root]) == EXIT_OK
        stats = json.loads(capsys.readouterr().out)
        assert (stats["other"], stats["packs"]) == (3, 0)
        assert main(["store", "gc", "--store-dir", root]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["remaining_bytes"] == 0
        # The old packs are gone; a file that is no pack is left alone.
        assert os.listdir(os.path.join(root, "packs")) == ["notes.txt"]


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


def _family_rows(tmp_path) -> set:
    """The rows and records one publisher per variant leaves in a fresh
    store."""
    root = str(tmp_path / "sequential")
    for version in (1, 2):
        analyze_incremental(
            _variant_program(version),
            config=AnalysisConfig(store=SummaryStore(root)),
        )
    return _rows(root)


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
        # distinct rows are one sequential family's.
        stats = SummaryStore(root).stats()
        assert 1 <= stats["packs"] <= 6
        assert stats["triples"] == 4  # 3 shared + 1 per-variant app
        assert stats["frontend"] == 4
        assert stats["other"] == 0
        assert _rows(root) == _family_rows(tmp_path)

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
        assert _rows(root) == _family_rows(tmp_path)


# ----------------------------------------------------------------------
# CLI: store subcommand and --store-dir plumbing
# ----------------------------------------------------------------------


class TestStoreCLI:
    def test_stats_and_gc(self, tmp_path, capsys):
        root = str(tmp_path / "s")
        _publish(SummaryStore(root), {"f": _row(42)})
        assert main(["store", "stats", "--store-dir", root]) == EXIT_OK
        stats = json.loads(capsys.readouterr().out)
        assert stats["triples"] == 1
        assert stats["frontend"] == 0
        assert stats["packs"] == 1
        _publish(SummaryStore(root), records=[FrontendRecord(7, 1, (), ())])
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
        _publish(SummaryStore(root), {"f": _row(42)})
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
        # ... and its sidecar, dropped into the store, is one more pack.
        shutil.copy(
            str(tmp_path / "v2.sum2"), os.path.join(root, "packs", "v2.pack")
        )
        stats = SummaryStore(root).stats()
        assert (stats["packs"], stats["other"], stats["triples"]) == (3, 0, 4)
