"""The SUM5 sidecar: an indexed pack read a body at a time, written by
splicing, carrying each routine body's labeled PSG fragment.

* **fragments** — appending a routine's fragment builds exactly the
  nodes, edges and rows labeling its CFG does; a warm run appends the
  fragments of the routines it re-solves, walks only those without one,
  and answers byte-identically with or without them;
* **lazy and spliced** — a local edit decodes a few bodies, and the
  next sidecar copies the rest;
* **configuration binding** — a sidecar written under one
  configuration never warms a solve under another;
* **hostile sidecars** — every truncation and byte flip is refused at
  load (or harmless), and a body or fragment forged under a valid
  checksum sends the API, the CLI and the daemon to a cold solve.
"""

import json
import threading

import pytest

from repro import cli
from repro.api import AnalysisConfig, AnalysisSession
from repro.cfg.build import build_all_cfgs
from repro.cfg.callgraph import build_call_graph
from repro.cfg.cfg import ExitKind
from repro.interproc.persist import (
    FRAGMENTS,
    GRADE_BODY,
    GRADE_FRAGMENT,
    SummaryFormatError,
    decode_pack,
    dump_cache,
    dump_summaries,
    encode_pack,
    fragment_body,
    load_cache,
)
from repro.interproc.store import SummaryStore
from repro.obs.metrics import REGISTRY
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image
from repro.program.image import ExecutableImage
from repro.program.rewrite import program_to_image
from repro.psg.build import (
    PsgAssembly,
    PsgConfig,
    PsgFragment,
    append_fragment,
    build_routine_psg,
    fragment_rows,
)
from repro.service import AnalysisDaemon, ServiceClient, ServiceConfig
from repro.workloads.generator import GeneratorConfig, generate_benchmark
from repro.workloads.mutate import (
    editable_routines,
    first_editable_routine,
    perturb_routine,
)

OFF = AnalysisConfig(store="off")


def _warm(program, cache, config=OFF):
    return AnalysisSession.from_program(program, config).analyze_incremental(
        cache=cache
    )


def _cold_bytes(program, config=OFF):
    return dump_summaries(
        AnalysisSession.from_program(program, config).analyze().result
    )


def _records(blob):
    return {
        (grade, key): blob[start:end]
        for grade, key, start, end in decode_pack(blob)
    }


def _reframed(blob, edit):
    """``blob`` with its records edited by ``edit(records)`` and the
    pack re-checksummed."""
    records = _records(blob)
    edit(records)
    return encode_pack(records)


def _forged_exit_kind(blob, name):
    """``blob`` with routine ``name``'s first exit re-coded as kind 9,
    under a valid checksum."""
    names = sorted(load_cache(blob).result.summaries)
    # Body: five masks, the exit count, then (block, kind, live).
    at = 5 * 8 + 4 + 4

    def edit(records):
        body = records[GRADE_BODY, names.index(name)]
        records[GRADE_BODY, names.index(name)] = body[:at] + b"\x09" + body[at + 1:]

    return _reframed(blob, edit)


@pytest.fixture(scope="module")
def primed(small_benchmark):
    """A serial cold run of ``small_benchmark`` and its sidecar."""
    prime = _warm(small_benchmark, None)
    return prime, dump_cache(prime.cache)


# ----------------------------------------------------------------------
# Fragments
# ----------------------------------------------------------------------


def _graph_rows(psg):
    nodes = list(zip(
        psg.node_kind, psg.node_routine, psg.node_block, psg.node_detail
    ))
    arena = psg.arena
    routines = {
        name: (
            routine.entry_node, routine.exit_nodes, routine.call_pairs,
            routine.branch_nodes, list(routine.flow_edge_indices),
        )
        for name, routine in psg.routines.items()
    }
    return (
        nodes, routines, list(arena.edge_src), list(arena.edge_dst),
        list(arena.edge_label), arena.labels, arena.flow_view,
        arena.dep1_view, arena.dep2_view,
    )


@pytest.mark.parametrize(
    "config", [PsgConfig(), PsgConfig(branch_nodes=False)],
    ids=["branch-nodes", "no-branch-nodes"],
)
def test_appended_fragments_build_the_labeled_graph(switchy_benchmark, config):
    program = switchy_benchmark
    cfgs = build_all_cfgs(program)
    labeled = PsgAssembly()
    for routine in program:
        build_routine_psg(cfgs[routine.name], config, labeled)
    psg = labeled.finish(partial=False)
    appended = PsgAssembly()
    for routine in program:
        cfg = cfgs[routine.name]
        body = fragment_body(fragment_rows(psg, routine.name, cfg.saved))
        fragment = FRAGMENTS.decode(body, None)
        assert FRAGMENTS.encode(fragment) == body
        append_fragment(routine.name, fragment, cfg.call_sites, config, appended)
    assert _graph_rows(appended.finish(partial=False)) == _graph_rows(psg)


def test_fragments_are_taken_only_for_a_written_cache(
    small_benchmark, monkeypatch
):
    import repro.interproc.incremental as incremental

    taken = []

    def counting(fragment):
        taken.append(fragment)
        return fragment_body(fragment)

    monkeypatch.setattr(
        incremental, "FRAGMENTS", FRAGMENTS._replace(encode=counting)
    )
    program = small_benchmark
    cold = _warm(program, None)
    edited = perturb_routine(program, first_editable_routine(program))
    warm = _warm(edited, load_cache(dump_cache(cold.cache)))
    assert len(taken) == program.routine_count  # by the first dump only
    dump_cache(warm.cache)
    assert len(taken) == program.routine_count + warm.metrics.cfgs_built


def test_local_edit_walks_only_the_edited_routine(small_benchmark, primed):
    _prime, sidecar = primed
    program = small_benchmark
    graph = build_call_graph(program)
    # The editable routine with the most transitive callers: its edit
    # re-solves the widest cone of unchanged code.
    victim = max(
        editable_routines(program),
        key=lambda name: len(graph.callers_of(name)),
    )
    edited = perturb_routine(program, victim)
    before = REGISTRY.snapshot()
    warm = _warm(edited, load_cache(sidecar))
    delta = REGISTRY.delta_since(before)
    assert warm.metrics.dirty_routines == [victim]
    assert warm.metrics.cfgs_built == 1
    assert delta["frontend.rows"] == 1
    solved = max(warm.metrics.phase1_solved, warm.metrics.phase2_solved)
    assert delta["cache.fragment.hit"] == solved - 1 > 0
    assert delta["cache.fragment.stale"] == 1  # the victim's old body
    assert delta["cache.fragment.miss"] == 0
    assert dump_summaries(warm.result) == _cold_bytes(edited)
    # The refreshed sidecar is the cold run's, byte for byte: the
    # victim's new fragment came from its partial PSG.
    cold = _warm(edited, None)
    assert dump_cache(warm.cache) == dump_cache(cold.cache)


def test_sidecar_without_fragments_gives_the_same_run(small_benchmark, primed):
    _prime, sidecar = primed
    program = small_benchmark
    edited = perturb_routine(program, first_editable_routine(program))
    bare = _reframed(
        sidecar,
        lambda records: [
            records.pop(slot) for slot in list(records)
            if slot[0] == GRADE_FRAGMENT
        ],
    )
    runs = []
    for blob in (sidecar, bare):
        before = REGISTRY.snapshot()
        warm = _warm(edited, load_cache(blob))
        delta = REGISTRY.delta_since(before)
        runs.append((
            dump_summaries(warm.result), delta["psg.nodes"],
            delta["psg.flow_edges"], delta["psg.call_return_edges"],
            delta["solver.iterations{phase=phase1}"],
            delta["solver.iterations{phase=phase2}"],
        ))
        if blob is bare:
            assert delta["cache.fragment.hit"] == 0
            assert warm.metrics.cfgs_built >= warm.metrics.phase2_solved
        else:
            assert delta["cache.fragment.hit"] > 0
    assert runs[0] == runs[1]
    assert runs[0][0] == _cold_bytes(edited)


def test_query_memo_keeps_and_adds_fragments(small_benchmark, primed):
    prime, sidecar = primed
    program = small_benchmark
    victim = first_editable_routine(program)
    edited = perturb_routine(program, victim)
    session = AnalysisSession.from_program(edited, OFF)
    result = session.query(victim, cache=load_cache(sidecar))
    fragments = result.cache.fragments
    shape = result.frontend.records[victim].shape_key
    assert shape in fragments and shape not in prime.cache.fragments
    assert set(fragments) >= set(prime.cache.fragments) - {
        prime.frontend.records[victim].shape_key
    }
    again = _warm(edited, load_cache(dump_cache(result.cache)))
    assert dump_summaries(again.result) == _cold_bytes(edited)


# ----------------------------------------------------------------------
# Lazy bodies, spliced writes
# ----------------------------------------------------------------------


def test_local_edit_reads_few_bodies_and_splices_the_rest(
    small_benchmark, primed
):
    _prime, sidecar = primed
    program = small_benchmark
    graph = build_call_graph(program)
    victim = min(
        editable_routines(program),
        key=lambda name: len(graph.callers_of(name)),
    )
    edited = perturb_routine(program, victim)
    before = REGISTRY.snapshot()
    cache = load_cache(sidecar)
    warm = _warm(edited, cache)
    dump_cache(warm.cache)
    delta = REGISTRY.delta_since(before)
    routines = program.routine_count
    # The routine table holds every input the run compares and every
    # live-after mask its exit seeds read: not one body is decoded.
    assert delta["cache.body.decoded"] == 0
    assert delta["cache.body.spliced"] == routines - warm.metrics.phase2_solved
    assert dump_summaries(warm.result) == _cold_bytes(edited)
    # A clean re-run decodes nothing and writes the sidecar it read.
    before = REGISTRY.snapshot()
    clean = _warm(program, load_cache(sidecar))
    assert dump_cache(clean.cache) == sidecar
    delta = REGISTRY.delta_since(before)
    assert delta["cache.body.decoded"] == 0
    assert delta["cache.body.spliced"] == routines


def test_shared_bodies_decode_once(primed):
    _prime, sidecar = primed
    cache = load_cache(sidecar)
    name = next(iter(cache.result.summaries))
    before = REGISTRY.snapshot()
    summary = cache.result.summaries[name]
    assert cache.result.summaries[name] is summary
    assert REGISTRY.delta_since(before)["cache.body.decoded"] == 1


# ----------------------------------------------------------------------
# Configuration binding
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "other",
    [
        AnalysisConfig(store="off", callee_saved_filtering=False),
        AnalysisConfig(store="off", psg=PsgConfig(branch_nodes=False)),
    ],
    ids=["callee_saved_filtering", "branch_nodes"],
)
def test_sidecar_of_another_configuration_is_a_cold_start(other):
    program, _shape = generate_benchmark(
        "li", scale=0.2, config=GeneratorConfig(seed=1)
    )
    default = _warm(program, None)
    cache = load_cache(dump_cache(default.cache))
    before = REGISTRY.snapshot()
    warm = _warm(program, cache, other)
    assert REGISTRY.delta_since(before)["cache.config_mismatch"] == 1
    assert warm.metrics.cold
    assert warm.refused == "cache written under another configuration"
    assert dump_summaries(warm.result) == _cold_bytes(program, other)
    # The refreshed sidecar is bound to the new configuration...
    again = _warm(program, load_cache(dump_cache(warm.cache)), other)
    assert again.refused is None and again.metrics.phase2_solved == 0
    # ... and a query under it refuses the old one just the same.
    query = AnalysisSession.from_program(program, other).query(
        program.entry, cache=cache
    )
    assert query.refused == "cache written under another configuration"
    assert query.summary == AnalysisSession.from_program(
        program, other
    ).analyze().result.summaries[program.entry]


# ----------------------------------------------------------------------
# Hostile sidecars
# ----------------------------------------------------------------------


TINY = """
.routine main export
    li   a0, 1
    bsr  ra, shared
    bsr  ra, leaf
    halt
.routine shared
    addq a0, #1, v0
    bsr  ra, leaf
    ret  (ra)
.routine leaf
    subq a0, #1, v0
    ret  (ra)
"""


def test_a_store_pack_is_a_sidecar(small_benchmark, primed, tmp_path):
    _prime, sidecar = primed
    store = SummaryStore(str(tmp_path / "store"))
    config = AnalysisConfig(store=store)
    _warm(small_benchmark, None, config)
    (pack,) = (tmp_path / "store" / "packs").iterdir()
    published = load_cache(pack.read_bytes())
    assert set(published.rows) == set(load_cache(sidecar).rows)
    assert dump_summaries(published.result) == _cold_bytes(small_benchmark)
    # As a sidecar, the pack warms the next run completely.
    warm = _warm(small_benchmark, published)
    assert warm.metrics.phase2_solved == 0 and warm.metrics.cfgs_built == 0
    # A pack that is not SUM5 v2 is no sidecar: the previous layout,
    # or the store's own former packs.
    for blob in (b"SUM5\x01" + sidecar[5:], b"SSTP\x03" + sidecar[5:]):
        with pytest.raises(SummaryFormatError, match="magic|unsupported"):
            load_cache(blob)


def test_every_truncation_and_byte_flip_is_refused_or_harmless():
    program = disassemble_image(assemble(TINY))
    sidecar = dump_cache(_warm(program, None).cache)
    cold = _cold_bytes(program)
    cases = [sidecar[:size] for size in range(len(sidecar))]
    for index in range(len(sidecar)):
        for flip in (0x01, 0xFF):
            mutated = bytearray(sidecar)
            mutated[index] ^= flip
            cases.append(bytes(mutated))
    loaded = 0
    for blob in cases:
        try:
            cache = load_cache(blob)
        except SummaryFormatError:
            continue
        loaded += 1
        assert dump_summaries(_warm(program, cache).result) == cold
    # The checksum sees every one of them.
    assert loaded == 0


def test_forged_body_sends_the_api_cold(small_benchmark, primed):
    _prime, sidecar = primed
    victim = first_editable_routine(small_benchmark)
    forged = load_cache(_forged_exit_kind(sidecar, victim))  # loads: lazy
    edited = perturb_routine(small_benchmark, victim)
    # A run reads no cached body: the one it re-solves is replaced
    # unread, and the refreshed cache holds the fresh body.
    warm = _warm(edited, forged)
    assert warm.refused is None and not warm.metrics.cold
    assert dump_summaries(warm.result) == _cold_bytes(edited)
    assert load_cache(dump_cache(warm.cache)).result.summaries[victim]
    # A query hands out its routine's adopted summary, read inside the
    # solve: a forged one sends it cold.
    query = AnalysisSession.from_program(small_benchmark, OFF).query(
        victim, cache=load_cache(_forged_exit_kind(sidecar, victim))
    )
    assert query.refused.startswith("unreadable cache: unknown exit kind code 9")
    assert query.metrics.cold
    assert dump_summaries(query.result) == dump_summaries(
        AnalysisSession.from_program(small_benchmark, OFF).query(victim).result
    )


def test_forged_fragment_sends_the_api_cold(small_benchmark, primed):
    _prime, sidecar = primed
    edited = perturb_routine(
        small_benchmark, first_editable_routine(small_benchmark)
    )
    before = REGISTRY.snapshot()
    _warm(edited, load_cache(sidecar))
    assert REGISTRY.delta_since(before)["cache.fragment.hit"] > 0  # premise

    def entering_the_entry(records):
        for slot in records:
            if slot[0] == GRADE_FRAGMENT:
                fragment = FRAGMENTS.decode(records[slot], None)
                targets = (0,) + fragment.targets[1:]
                records[slot] = FRAGMENTS.encode(
                    fragment._replace(targets=targets)
                )

    warm = _warm(edited, load_cache(_reframed(sidecar, entering_the_entry)))
    assert warm.refused == "unreadable cache: PSG fragment edge enters node 0"
    assert dump_summaries(warm.result) == _cold_bytes(edited)


#: entry 0, exit 1 (block 2), call 2 and return 3 (one site).
_FRAGMENT = PsgFragment(
    exits=((2, ExitKind.RETURN),), site_count=1, branch_blocks=(), saved=0,
    labels=((1, 2, 2),), sources=(0, 3), targets=(1, 2), label_ids=(0, 0),
)
_BODY = FRAGMENTS.encode(_FRAGMENT)
#: The exit kind byte: header (28 bytes), then one u32 block.
_KIND_AT = 28 + 4


@pytest.mark.parametrize(
    "body, message",
    [
        (_BODY[:20], "truncated"),
        (_BODY + b"\x00", "length"),
        (_BODY[:_KIND_AT] + b"\x07" + _BODY[_KIND_AT + 1:], "exit kind"),
        (
            FRAGMENTS.encode(_FRAGMENT._replace(labels=((0, 1, 2),))),
            "MUST-DEF",
        ),
        (
            FRAGMENTS.encode(_FRAGMENT._replace(sources=(1, 3))),
            "leaves node 1",
        ),
        (
            FRAGMENTS.encode(_FRAGMENT._replace(targets=(3, 2))),
            "enters node 3",
        ),
        # The last edge's label, the body's last u32, past the table.
        (_BODY[:-4] + b"\x01\x00\x00\x00", "missing label"),
    ],
    ids=["truncated", "long", "exit-kind", "label", "source", "target", "label-id"],
)
def test_malformed_fragments_are_format_errors(body, message):
    assert FRAGMENTS.decode(_BODY, None) == _FRAGMENT
    with pytest.raises(SummaryFormatError, match=message):
        FRAGMENTS.decode(body, None)


#: ``lone`` is nobody's caller or callee, and ``inc`` is the routine
#: the edits re-solve: no run reads either body.
THREE_ROUTINES = """
.routine main export
    li  a0, 3
    bsr ra, inc
    bis zero, v0, a0
    output
    halt
.routine inc
    addq a0, a1, v0
    addq v0, a0, v0
    ret (ra)
.routine lone
    addq a0, #2, v0
    ret (ra)
"""

_FORGED = pytest.mark.parametrize("forged", ["lone"], ids=["read-after-it"])


def _forged_cli_run(tmp_path, capsys, forged):
    """An edit of ``inc`` through the CLI, warm-started from a sidecar
    whose body of ``forged`` is forged; its payload, and the cold one."""
    image = tmp_path / "base.img"
    sidecar = tmp_path / "base.img.sum2"
    image.write_bytes(assemble(THREE_ROUTINES).to_bytes())
    assert cli.main(["analyze", str(image), "--incremental"]) == 0
    sidecar.write_bytes(_forged_exit_kind(sidecar.read_bytes(), forged))
    program = disassemble_image(ExecutableImage.from_bytes(image.read_bytes()))
    edited = tmp_path / "edited.img"
    edited.write_bytes(
        program_to_image(perturb_routine(program, "inc")).to_bytes()
    )
    capsys.readouterr()
    assert cli.main(
        ["analyze", str(edited), "--incremental", "--cache", str(sidecar),
         "--json", "-r", forged]
    ) == 0
    # The payload, then the -r block.
    payload, _end = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    assert cli.main(["analyze", str(edited), "--json"]) == 0
    cold = json.loads(capsys.readouterr().out)
    # The sidecar was rewritten with a body that decodes.
    assert load_cache(sidecar.read_bytes()).result.summaries[forged]
    return payload, cold


@_FORGED
def test_forged_body_sends_the_cli_cold(tmp_path, capsys, forged):
    payload, cold = _forged_cli_run(tmp_path, capsys, forged)
    assert payload["cache"].startswith(
        "cold (unreadable cache: unknown exit kind code 9"
    )
    assert payload["mode"] == "cold"
    assert cold["summaries_crc64"] == payload["summaries_crc64"]


def test_forged_body_the_cli_replaces_is_never_read(tmp_path, capsys):
    payload, cold = _forged_cli_run(tmp_path, capsys, "inc")
    assert payload["cache"].startswith("warm")
    assert cold["summaries_crc64"] == payload["summaries_crc64"]


def _serve(config):
    daemon = AnalysisDaemon(config)
    thread = threading.Thread(target=daemon.serve_forever)
    thread.start()
    return daemon, thread


def _forged_daemon_sidecar(tmp_path, forged):
    """A daemon's edit sidecar for ``THREE_ROUTINES``, with the body of
    ``forged`` forged; the image and the daemon config."""
    image = assemble(THREE_ROUTINES).to_bytes()
    config = ServiceConfig(port=0, cache_dir=str(tmp_path))
    daemon, thread = _serve(config)
    try:
        host, port = daemon.server.server_address[:2]
        ServiceClient.tcp(host, port).analyze(image, edit={"routine": "inc"})
    finally:
        daemon.drain()
        thread.join(timeout=30)
    (path,) = tmp_path.glob("*/*.sum2")
    path.write_bytes(_forged_exit_kind(path.read_bytes(), forged))
    return image, config


def _edited_bytes(image):
    session = AnalysisSession.from_image_bytes(image)
    return AnalysisSession.from_program(
        perturb_routine(session.program, "inc")
    ).analyze().to_json()["summaries_crc64"]


@_FORGED
def test_forged_body_sends_the_daemon_cold(tmp_path, forged):
    image, config = _forged_daemon_sidecar(tmp_path, forged)
    daemon, thread = _serve(config)
    try:
        host, port = daemon.server.server_address[:2]
        client = ServiceClient.tcp(host, port)
        response = client.analyze(image, edit={"routine": "inc"})
        assert response.status == 200
        assert response.payload["mode"] == "cold"
        assert response.payload["summaries_crc64"] == _edited_bytes(image)
        # The unusable cache was dropped: the next edit reseeds one.
        again = client.analyze(image, edit={"routine": "inc"})
        assert again.status == 200 and not again.warm
    finally:
        daemon.drain()
        thread.join(timeout=30)


def test_forged_body_the_daemon_replaces_is_never_read(tmp_path):
    image, config = _forged_daemon_sidecar(tmp_path, "inc")
    daemon, thread = _serve(config)
    try:
        host, port = daemon.server.server_address[:2]
        response = ServiceClient.tcp(host, port).analyze(
            image, edit={"routine": "inc"}
        )
        assert response.status == 200 and response.warm
        assert response.payload["mode"] != "cold"
        assert response.payload["summaries_crc64"] == _edited_bytes(image)
    finally:
        daemon.drain()
        thread.join(timeout=30)
