"""The four workloads: their constants and their scripts.

A workload is a fixed **script** of distinct operations, replayed for
R rounds from fresh state.  Every script position gets one sample per
round of *identical* work; a position's time is the median of its
samples' calibrated CPU times (:mod:`calibrate`), and each end-to-end
metric is the mean of its positions' times.  All sizes are constants
here — there are no environment knobs — so two runs of one commit do
the same work.

Every script takes the generated inputs (:class:`measure.Inputs`) and
a harness ``h`` (:class:`measure.Harness`):

* ``h.timed(metric, position, fn)`` runs ``fn`` inside a quiet timed
  region and records one sample for ``metric`` at ``position``;
* ``h.check(position, summary_bytes)`` compares an op's output with
  its expected digest *after* the clock has stopped;
* ``h.span(name)`` / ``h.note(...)`` feed the per-layer ledger in a
  traced run and cost nothing otherwise.

This file is the only one that calls the program, and it does so only
through its public surface (``repro.api`` plus the documented layer
functions), always with ``jobs=1``: one caller, closed loop, in
process, serial.
"""

from __future__ import annotations

import json

from repro.api import AnalysisConfig, AnalysisSession
from repro.cfg.build import build_all_cfgs
from repro.cfg.callgraph import build_call_graph
from repro.dataflow.local import compute_local_sets
from repro.dataflow.regset import mask_of
from repro.interproc import flatcore
from repro.interproc.analysis import _assemble_summaries, node_seed_order
from repro.interproc.persist import dump_cache, dump_summaries, load_cache
from repro.interproc.phase1 import run_phase1
from repro.interproc.phase2 import run_phase2
from repro.interproc.savedregs import saved_restored_registers
from repro.interproc.store import SummaryStore
from repro.program.disasm import disassemble_image
from repro.program.image import ExecutableImage
from repro.psg.arena import get_arena
from repro.psg.build import build_psg

# ----------------------------------------------------------------------
# Sizes (seed-independent: the seed draws traffic, not program size)
# ----------------------------------------------------------------------

#: The paper's largest SPEC shape; x0.1 is 188 routines / ~37k
#: instructions, which keeps one cold round near one CPU second.
GCC_SHAPE = "gcc"
GCC_SCALE = 0.1
#: Seeded one-instruction perturbations that make each seed's image
#: bytes (and summaries) distinct without changing the amount of work.
PERTURBATIONS = 8

#: Call-mesh: tiny routines, dense calls, mutual-recursion rings.
MESH_ROUTINES = 600
MESH_CALLS = 8
MESH_RING = 100

#: edit-replay: cumulative one-routine edits per round, all but one of
#: them *local* and one *wide*; a class is a range of "routines whose
#: summaries the edit changes" (see ``inputs.edit_trace``, which also
#: uses the caller-cone sizes that bound its candidates: of the
#: program's 188 routines, at most ``LOCAL_CONE`` or at least
#: ``DEEP_CONE`` transitively call the routine edited).
E = 6
EDIT_CLASSES = {"local": (0, 2), "wide": (60, 90)}
EDIT_TRIES = 8
LOCAL_CONE = 3
DEEP_CONE = 130
#: query-cone: warm queries after the first (cold) one.
Q = 11
#: family-store: app variants linked against one shared library.
V = 4

#: Measuring children per run; their samples are pooled.
P = 2
#: Timed rounds per child, at most (one untimed warm-up round precedes
#: them): every script position gets up to ``P x ROUNDS`` samples.
ROUNDS = {
    "cold-analyze": 6,
    "edit-replay": 3,
    "query-cone": 6,
    "family-store": 6,
}
#: ... and at least: past its share of ``--seconds`` a child stops
#: after the round it is in, but never before this many.
MIN_ROUNDS = 3
#: A traced run alternates this many untraced and traced rounds in one
#: process, so tracing overhead is measured on the same heap (and at
#: least this many, whatever ``--seconds`` says).
TRACED_ROUNDS = 3
TRACED_MIN_ROUNDS = 2

WORKLOADS = ("cold-analyze", "edit-replay", "query-cone", "family-store")

#: Every workload but family-store runs with the cross-image store off.
STORE_OFF = AnalysisConfig(store="off")


# ----------------------------------------------------------------------
# Shared steps
# ----------------------------------------------------------------------


def open_session(h, blob, config=STORE_OFF):
    """Input bytes -> a decoded session (``from_image_bytes``).

    A traced run performs the same three steps the classmethod does,
    one span each, so image parse and decode get their own ledger
    lines on every workload.
    """
    if not h.tracing:
        return AnalysisSession.from_image_bytes(blob, config)
    with h.span("program.image"):
        image = ExecutableImage.from_bytes(blob)
    with h.span("program.disasm"):
        program = disassemble_image(image)
    h.note("program.disasm.instructions", program.instruction_count)
    return AnalysisSession(program, config, image_bytes=blob)


def _dump_summaries(h, result):
    with h.span("interproc.persist.dump_summaries"):
        summary_bytes = dump_summaries(result)
    h.note("interproc.persist.summary_bytes", len(summary_bytes))
    return summary_bytes


def _to_json(h, session, include_summaries):
    with h.span("interproc.results.to_json"):
        payload = json.dumps(session.to_json(include_summaries))
    h.note("interproc.results.payload_bytes", len(payload))


# ----------------------------------------------------------------------
# cold-analyze
# ----------------------------------------------------------------------


def cold_analyze(inputs, h):
    """Two images through the whole serial pipeline.

    The gcc-shaped image is front-end heavy (CFG build + init is the
    largest share of ``op_s``); the call-mesh is solver heavy (PSG
    build + the two phases dominate ``alt_op_s``), so a front-end
    change and a solver change each have one number that should move
    more and one that should move less.  The op ends with the
    response-body cost of a full answer: SUM1 bytes plus the schema-1
    JSON payload with every summary embedded.
    """
    for metric, key in (("op_s", "gcc"), ("alt_op_s", "mesh")):
        blob = inputs.blob(key)
        session = h.timed("setup_s", key, lambda: open_session(h, blob))

        def op():
            with h.span("interproc.analysis"):
                analysis = session.analyze(jobs=1)
            summary_bytes = _dump_summaries(h, analysis.result)
            _to_json(h, session, True)
            return summary_bytes

        summary_bytes = h.timed(metric, key, op)
        h.check(key, summary_bytes)
        program, config = session.program, session.config
        # The replay must allocate on the heap the facade call had:
        # with the facade's result still alive it runs ~5 % slower.
        del session
        if h.tracing:
            h.quiet(
                f"{key}.replay",
                lambda: replay_cold(h, program, config, summary_bytes),
            )


def replay_cold(h, program, config, facade_bytes):
    """``interproc.analysis._analyze_program`` stage by stage through
    the public entry points, one span per layer (traced runs only).

    The facade call above is one opaque span; this replay is what
    splits it into layers.  Whatever the replay cannot reach — summary
    assembly, the memory model, facade bookkeeping — is reported as
    ``interproc.analysis.residual_s``.  The replay's summaries must
    equal the facade's, or the ledger would describe another program.
    """
    convention = config.convention
    with h.span("cfg.build"):
        cfgs = build_all_cfgs(program)
    with h.span("cfg.callgraph"):
        call_graph = build_call_graph(program, cfgs)
        callee_first = call_graph.reverse_topological_order()
    with h.span("dataflow.local"):
        local_sets = {name: compute_local_sets(cfg) for name, cfg in cfgs.items()}
    with h.span("interproc.savedregs"):
        saved_restored = {
            name: saved_restored_registers(cfg, convention)
            for name, cfg in cfgs.items()
        }
    with h.span("psg.build"):
        psg = build_psg(program, cfgs, local_sets, config.psg)
    if flatcore.resolve_solver_core(config.solver_core) == "flat":
        with h.span("psg.arena"):
            get_arena(psg)
    preserved = mask_of({convention.stack_pointer, convention.global_pointer})
    order = node_seed_order(psg, callee_first)
    with h.span("interproc.phase1"):
        phase1 = run_phase1(
            psg, saved_restored, preserved, order, core=config.solver_core
        )
    order = node_seed_order(psg, list(reversed(callee_first)))
    with h.span("interproc.phase2"):
        phase2 = run_phase2(
            psg, call_graph.externally_callable, convention, order,
            core=config.solver_core,
        )
    h.note("cfg.build.blocks", sum(cfg.block_count for cfg in cfgs.values()))
    h.note("cfg.callgraph.sccs", len(call_graph.strongly_connected_components()))
    # Verification only, hence the one private import of this file.
    result = _assemble_summaries(
        program, cfgs, saved_restored, psg, phase1, phase2
    )
    if dump_summaries(result) != facade_bytes:
        raise AssertionError("stage replay and facade disagree on the summaries")


# ----------------------------------------------------------------------
# edit-replay
# ----------------------------------------------------------------------


def _incremental_op(h, blob, sidecar):
    """Image bytes + previous SUM2 sidecar bytes -> refreshed sidecar
    bytes + SUM1 bytes: what one ``analyze --incremental`` invocation
    does between reading its files and writing them."""
    session = open_session(h, blob)
    cache = None
    if sidecar is not None:
        with h.span("interproc.persist.load_cache"):
            cache = load_cache(sidecar)
    with h.span("interproc.incremental"):
        analysis = session.analyze_incremental(cache=cache, jobs=1)
    h.note_incremental(analysis)
    with h.span("interproc.persist.dump_cache"):
        new_sidecar = dump_cache(analysis.cache)
    h.note("interproc.persist.cache_bytes", len(new_sidecar))
    return new_sidecar, _dump_summaries(h, analysis.result)


def edit_replay(inputs, h):
    """Spike's loop: prime a sidecar, replay ``E`` cumulative
    one-routine edits against it, then re-run the unedited image.

    ``setup_s`` is the cold prime, ``op_s`` one edit (image bytes and
    sidecar bytes in, both sidecars out), ``alt_op_s`` the warm-clean
    re-run: the front-end + fingerprint floor with nothing solved.
    """
    base = inputs.blob("base")
    primed, summary_bytes = h.timed(
        "setup_s", "prime", lambda: _incremental_op(h, base, None)
    )
    h.check("prime", summary_bytes)
    sidecar = primed
    for index in range(1, E + 1):
        key = f"edit{index}"
        blob, previous = inputs.blob(key), sidecar
        sidecar, summary_bytes = h.timed(
            "op_s", key, lambda: _incremental_op(h, blob, previous)
        )
        h.check(key, summary_bytes)
    _sidecar, summary_bytes = h.timed(
        "alt_op_s", "clean", lambda: _incremental_op(h, base, primed)
    )
    h.check("clean", summary_bytes)


# ----------------------------------------------------------------------
# query-cone
# ----------------------------------------------------------------------


def query_cone(inputs, h):
    """One session, one cold query, ``Q`` warm ones.

    Warm queries reuse the session's front end, so decode and CFG
    build are absent from ``op_s``: fingerprinting, cone selection,
    the partial-PSG build and the solver are what is left.
    """
    blob = inputs.blob("base")
    session = h.timed("setup_s", "open", lambda: open_session(h, blob))
    for index, routine in enumerate(inputs.script["queries"]):
        key = f"q{index}"

        def op():
            with h.span("interproc.demand"):
                result = session.query(routine)
            h.note_query(result)
            _to_json(h, session, False)
            return result

        result = h.timed("alt_op_s" if index == 0 else "op_s", key, op)
        h.check(key, dump_summaries(result.result))
    del session


# ----------------------------------------------------------------------
# family-store
# ----------------------------------------------------------------------


def _solve_variant(h, session):
    with h.span("interproc.incremental"):
        analysis = session.analyze_incremental(jobs=1)
    h.note_incremental(analysis)
    return _dump_summaries(h, analysis.result)


def family_store(inputs, h):
    """A linked family against one summary store: variant 1 publishes
    into an empty store, variants 2..V adopt the shared library from
    it (``op_s``, the read side), and variant 1 is also solved with the
    store off (``alt_op_s``: what adopting saves, and the floor the
    write side can approach).

    The publish is timed and verified like every op but its time is
    kept off the gated metrics (``publish_s``, a ledger line): creating
    its 370 files costs 0.02 s of system time on a quiet ext4 and 0.3 s
    when anything was deleted in the minutes before, and this
    benchmark's own clean-up is such a delete.

    ``setup_s`` is the decode of the variant being run.  Sessions are
    built per variant and dropped, never retained; every round gets a
    store directory of its own (see ``Harness.fresh_dir``).
    """
    config = AnalysisConfig(store=SummaryStore(h.fresh_dir("store")))
    for index in range(1, V + 1):
        key = f"v{index}"
        blob = inputs.blob(key)
        session = h.timed("setup_s", key, lambda: open_session(h, blob, config))
        summary_bytes = h.timed(
            "publish_s" if index == 1 else "op_s", key,
            lambda: _solve_variant(h, session),
        )
        h.check(key, summary_bytes)
        if index == 1:
            # The same decoded program, solved again with the store off.
            session = AnalysisSession(session.program, STORE_OFF, image_bytes=blob)
            summary_bytes = h.timed(
                "alt_op_s", "v1-off", lambda: _solve_variant(h, session)
            )
            h.check("v1-off", summary_bytes)
        del session
    if h.tracing:
        stats = config.store.stats()
        h.note("interproc.store.files", stats["triples"] + stats["summaries"])
        h.note("interproc.store.bytes", stats["bytes"])


SCRIPTS = {
    "cold-analyze": cold_analyze,
    "edit-replay": edit_replay,
    "query-cone": query_cone,
    "family-store": family_store,
}

#: One sentence per workload on why it exists (``BENCHMARK.json``
#: carries the same text; ``--selftest`` checks they agree).
WHY = {
    "cold-analyze": (
        "Whole serial pipeline on a front-end-heavy gcc-shaped image "
        "(op_s) and a solver-heavy call-mesh (alt_op_s): a front-end "
        "change and a solver change move opposite numbers."
    ),
    "edit-replay": (
        "Spike's loop: six cumulative one-routine edits against a SUM2 "
        "sidecar; an edit costs about as much as the cold prime today, "
        "and work moved into priming shows in setup_s."
    ),
    "query-cone": (
        "Warm demand queries bypass decode and CFG build, so front-end "
        "changes must leave op_s flat while fingerprinting, cone "
        "selection, partial-PSG build and the solver dominate it."
    ),
    "family-store": (
        "A linked family against one summary store: variants 2-4 adopt "
        "the library from the warm store (op_s, reads) beside the same "
        "solve with the store off (alt_op_s); the publish is on the ledger."
    ),
}
