"""The per-layer ledger: a traced run turned into named metrics.

End-to-end numbers are always taken with tracing off.  A traced run
(``run.py --trace 1``) is a separate child that, in one process,

1. alternates ``TRACED_ROUNDS`` untraced and traced rounds of the
   workload's script (so ``perf.trace_overhead_share`` compares like
   with like), keeping for every layer span its calibrated self time
   per script position (the median over rounds of self seconds / the
   op's kernel seconds, like the end-to-end times);
2. runs one more round bare under ``cProfile`` + ``tracemalloc`` — the
   **count pass** — for the numbers that must repeat exactly: calls
   into each layer, solver iterations, store traffic, heap peak.
   (``cProfile`` is ``sys.setprofile`` with the callback in C; only
   its call counts are used, never its times.)

Every workload reports every ledger line; a layer a workload never
enters reads 0, which is itself the prediction for that pairing.
Times are calibrated CPU seconds summed over one round of the script;
counts are per round.
"""

from __future__ import annotations

import cProfile
import gc
import tracemalloc
from collections import defaultdict

import workloads as W
from measure import Harness, out_of_time, play_round, warm_up
from repro.cfg.build import build_cfg
from repro.dataflow.regset import construction_count
from repro.obs.metrics import REGISTRY
from repro.program.disasm import disassemble_image
from repro.psg.build import build_partial_psg, build_psg
from stats import calibrated_seconds, gauges, position_seconds
from trace import Tracer

#: ``(name, unit, better)`` of every ledger line, in report order.
#: ``BENCHMARK.json``'s ``per_layer`` is exactly this list.
LEDGER = (
    # image parse + decode
    ("program.image.self_s", "s", "lower"),
    ("program.disasm.self_s", "s", "lower"),
    ("program.disasm.instructions", "count", "lower"),
    ("program.disasm.calls", "count", "lower"),
    # front end: CFGs, call graph, local sets, saved/restored masks
    ("cfg.build.self_s", "s", "lower"),
    ("cfg.build.blocks", "count", "lower"),
    ("cfg.build.calls", "count", "lower"),
    ("cfg.callgraph.self_s", "s", "lower"),
    ("cfg.callgraph.sccs", "count", "lower"),
    ("dataflow.local.self_s", "s", "lower"),
    ("interproc.savedregs.self_s", "s", "lower"),
    # PSG build + labeling, the two solve phases
    ("psg.build.self_s", "s", "lower"),
    ("psg.build.nodes", "count", "lower"),
    ("psg.build.edges", "count", "lower"),
    ("psg.build.calls", "count", "lower"),
    ("psg.arena.self_s", "s", "lower"),
    ("interproc.phase1.self_s", "s", "lower"),
    ("interproc.phase1.iterations", "count", "lower"),
    ("interproc.phase1.revisits", "count", "lower"),
    ("interproc.phase2.self_s", "s", "lower"),
    ("interproc.phase2.iterations", "count", "lower"),
    ("interproc.phase2.revisits", "count", "lower"),
    ("dataflow.regset.constructed", "count", "lower"),
    ("interproc.analysis.residual_s", "s", "lower"),
    # serialization
    ("interproc.persist.dump_summaries_s", "s", "lower"),
    ("interproc.persist.dump_cache_s", "s", "lower"),
    ("interproc.persist.load_cache_s", "s", "lower"),
    ("interproc.persist.summary_bytes", "bytes", "lower"),
    ("interproc.persist.cache_bytes", "bytes", "lower"),
    ("interproc.results.to_json_s", "s", "lower"),
    ("interproc.results.payload_bytes", "bytes", "lower"),
    # incremental engine (edit-replay, family-store; queries share it)
    ("interproc.incremental.self_s", "s", "lower"),
    ("interproc.incremental.stage_cfg_build_s", "s", "lower"),
    ("interproc.incremental.stage_fingerprint_s", "s", "lower"),
    ("interproc.incremental.stage_initialization_s", "s", "lower"),
    ("interproc.incremental.stage_psg_build_s", "s", "lower"),
    ("interproc.incremental.stage_phase1_s", "s", "lower"),
    ("interproc.incremental.stage_phase2_s", "s", "lower"),
    ("interproc.incremental.stage_assemble_s", "s", "lower"),
    ("interproc.incremental.dirty_routines", "count", "lower"),
    ("interproc.incremental.phase1_solved", "count", "lower"),
    ("interproc.incremental.phase2_solved", "count", "lower"),
    ("interproc.incremental.reused_share", "share", "higher"),
    # demand engine (query-cone)
    ("interproc.demand.self_s", "s", "lower"),
    ("interproc.demand.phase1_cone_routines", "count", "lower"),
    ("interproc.demand.phase2_cone_routines", "count", "lower"),
    ("interproc.demand.solved", "count", "lower"),
    ("interproc.demand.reused_share", "share", "higher"),
    # summary store (family-store)
    ("interproc.store.hits", "count", "higher"),
    ("interproc.store.misses", "count", "lower"),
    ("interproc.store.writes", "count", "lower"),
    ("interproc.store.hit_share", "share", "higher"),
    ("interproc.store.files", "count", "lower"),
    ("interproc.store.bytes", "bytes", "lower"),
    ("interproc.store.publish_s", "s", "lower"),
    ("interproc.store.publish_overhead_s", "s", "lower"),
    # the benchmark's own gauges
    ("perf.inputs_gen_s", "s", "lower"),
    ("perf.samples", "count", "higher"),
    ("perf.op_p50_s", "s", "lower"),
    ("perf.op_p90_s", "s", "lower"),
    ("perf.wall_over_cpu", "ratio", "lower"),
    ("perf.host_speed", "ratio", "higher"),
    ("perf.trace_overhead_share", "share", "lower"),
    ("perf.heap_peak_mb", "MB", "lower"),
    ("perf.heap_retained_mb", "MB", "lower"),
)

#: span name -> ledger line carrying its self time.
_SPAN_LINES = {
    "program.image": "program.image.self_s",
    "program.disasm": "program.disasm.self_s",
    "cfg.build": "cfg.build.self_s",
    "cfg.callgraph": "cfg.callgraph.self_s",
    "dataflow.local": "dataflow.local.self_s",
    "interproc.savedregs": "interproc.savedregs.self_s",
    "psg.build": "psg.build.self_s",
    "psg.arena": "psg.arena.self_s",
    "interproc.phase1": "interproc.phase1.self_s",
    "interproc.phase2": "interproc.phase2.self_s",
    "interproc.persist.dump_summaries": "interproc.persist.dump_summaries_s",
    "interproc.persist.dump_cache": "interproc.persist.dump_cache_s",
    "interproc.persist.load_cache": "interproc.persist.load_cache_s",
    "interproc.results.to_json": "interproc.results.to_json_s",
    "interproc.incremental": "interproc.incremental.self_s",
    "interproc.demand": "interproc.demand.self_s",
}

#: The stages ``replay_cold`` spans: together they are what the
#: facade's ``analyze`` does before summary assembly.
REPLAY_STAGES = (
    "cfg.build", "cfg.callgraph", "dataflow.local", "interproc.savedregs",
    "psg.build", "psg.arena", "interproc.phase1", "interproc.phase2",
)

#: registry counter -> ledger line (count pass deltas).
_COUNTER_LINES = {
    "psg.nodes": "psg.build.nodes",
    "psg.flow_edges": "psg.build.edges",
    "psg.call_return_edges": "psg.build.edges",
    "solver.iterations{phase=phase1}": "interproc.phase1.iterations",
    "solver.iterations{phase=phase2}": "interproc.phase2.iterations",
    "solver.revisits{phase=phase1}": "interproc.phase1.revisits",
    "solver.revisits{phase=phase2}": "interproc.phase2.revisits",
    "store.hit": "interproc.store.hits",
    "store.miss": "interproc.store.misses",
    "store.write": "interproc.store.writes",
}

#: function -> ledger line counting calls into it (count pass).
_CALL_LINES = (
    (disassemble_image, "program.disasm.calls"),
    (build_cfg, "cfg.build.calls"),
    (build_psg, "psg.build.calls"),
    (build_partial_psg, "psg.build.calls"),
)


def calibrated_by_position(seconds_by_op: dict, kernel_of: dict) -> dict:
    """``{(name, op_id): seconds}`` -> ``{name: {position: calibrated
    seconds}}``: per position, the median over rounds of the ratio to
    the kernel that flanked the op."""
    pairs = defaultdict(lambda: defaultdict(list))
    for (name, op_id), seconds in seconds_by_op.items():
        if op_id in kernel_of:  # a failed op has no kernel reading
            position = op_id.split(":", 1)[1]
            pairs[name][position].append((seconds, kernel_of[op_id]))
    return {
        name: {position: calibrated_seconds(p) for position, p in by.items()}
        for name, by in pairs.items()
    }


def count_pass(script, inputs, scratch):
    """One bare round under ``cProfile`` + ``tracemalloc``: calls into
    each layer, registry counter deltas, heap peak and retention.
    Returns ``(harness, counts)``."""
    harness = Harness(inputs, scratch)
    harness.quiet_regions = False
    gc.collect()
    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    snapshot = REGISTRY.snapshot()
    regsets = construction_count()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        play_round(script, inputs, harness)
    finally:
        profiler.disable()
        retained, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    counts = defaultdict(float)
    for name, value in REGISTRY.delta_since(snapshot).items():
        if name in _COUNTER_LINES and isinstance(value, (int, float)):
            counts[_COUNTER_LINES[name]] += value
    counts["dataflow.regset.constructed"] = construction_count() - regsets
    codes = {function.__code__: line for function, line in _CALL_LINES}
    for entry in profiler.getstats():
        if entry.code in codes:
            counts[codes[entry.code]] += entry.callcount
    counts["perf.heap_peak_mb"] = (peak - baseline) / 1e6
    counts["perf.heap_retained_mb"] = (retained - baseline) / 1e6
    return harness, dict(counts)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def build_ledger(inputs, plain, traced, spans, counts) -> dict:
    """Every :data:`LEDGER` line for one workload (``spans`` is the
    tracer's self times, calibrated by position)."""
    values = {name: 0.0 for name, _unit, _better in LEDGER}

    for span, line in _SPAN_LINES.items():
        values[line] = sum(spans.get(span, {}).values())
    facade = spans.get("interproc.analysis", {})
    if facade:
        staged = sum(
            spans.get(span, {}).get(f"{position}.replay", 0.0)
            for span in REPLAY_STAGES for position in facade
        )
        values["interproc.analysis.residual_s"] = sum(facade.values()) - staged

    # Notes: clocks are calibrated like spans; counts are those of the
    # last round (every round's are identical).
    clocks = calibrated_by_position(
        {
            (name, op_id): value
            for op_id, notes in traced.notes.items()
            for name, value in notes.items() if name.endswith("_s")
        },
        traced.kernel_of,
    )
    notes = {name: sum(by.values()) for name, by in clocks.items()}
    last_round = f"{traced.round}:"
    for op_id, op_notes in traced.notes.items():
        if op_id.startswith(last_round):
            for name, value in op_notes.items():
                if not name.endswith("_s"):
                    notes[name] = notes.get(name, 0.0) + value
    for name, value in notes.items():
        if name in values:
            values[name] = value
    values["interproc.incremental.reused_share"] = _share(
        notes.get("interproc.incremental.reused", 0.0),
        notes.get("interproc.incremental.routines", 0.0),
    )
    solved = notes.get("interproc.demand.solved", 0.0)
    reused = notes.get("interproc.demand.reused", 0.0)
    values["interproc.demand.reused_share"] = _share(reused, solved + reused)
    publishes = traced.samples.get(("publish_s", "v1"))
    if publishes:
        # The same solve with the store off is the script's next op.
        values["interproc.store.publish_s"] = position_seconds(publishes)
        values["interproc.store.publish_overhead_s"] = (
            values["interproc.store.publish_s"]
            - position_seconds(traced.samples[("alt_op_s", "v1-off")])
        )

    values.update(counts)
    values["interproc.store.hit_share"] = _share(
        values["interproc.store.hits"],
        values["interproc.store.hits"] + values["interproc.store.misses"],
    )

    values["perf.inputs_gen_s"] = inputs.manifest["inputs_gen_s"]
    values.update(gauges(plain.samples))
    plain_total = sum(position_seconds(s) for s in plain.samples.values() if s)
    traced_total = sum(
        position_seconds(traced.samples[key])
        for key, samples in plain.samples.items()
        if samples and traced.samples.get(key)
    )
    values["perf.trace_overhead_share"] = _share(traced_total, plain_total) - 1.0
    return values


def cold_contrast(spans: dict) -> dict:
    """The gcc / call-mesh contrast ``cold-analyze`` exists for: each
    image's front-end and solve-phase shares of its facade analyze."""
    out = {}
    for position, analyze in spans.get("interproc.analysis", {}).items():
        def stage(*names):
            return sum(
                spans.get(name, {}).get(f"{position}.replay", 0.0)
                for name in names
            )
        out[position] = {
            "analyze_s": analyze,
            "replayed_s": stage(*REPLAY_STAGES),
            "front_end_share": _share(
                stage("cfg.build", "cfg.callgraph", "dataflow.local",
                      "interproc.savedregs"), analyze),
            "psg_share": _share(stage("psg.build", "psg.arena"), analyze),
            "phases_share": _share(
                stage("interproc.phase1", "interproc.phase2"), analyze),
        }
    return out


def run_traced(inputs, scratch, rounds, deadline=None, trace_out=None):
    """The traced child: ``(harness with the untraced samples, result
    block)`` — the block holds the ledger and, for ``cold-analyze``,
    the contrast shares."""
    script = W.SCRIPTS[inputs.workload]
    warm_up(script, inputs, scratch)
    plain = Harness(inputs, scratch)
    tracer = Tracer()
    traced = Harness(inputs, scratch, tracer)
    while plain.round < rounds and not out_of_time(
        deadline, plain.round, W.TRACED_MIN_ROUNDS
    ):
        play_round(script, inputs, plain)
        play_round(script, inputs, traced)
    counted, counts = count_pass(script, inputs, scratch)
    spans = calibrated_by_position(tracer.self_by_name(), traced.kernel_of)
    block = {
        "values": build_ledger(inputs, plain, traced, spans, counts),
        "contrast": cold_contrast(spans),
    }
    if trace_out:
        tracer.dump(trace_out, workload=inputs.workload, seed=inputs.seed)
    for other in (traced, counted):
        plain.attempted += other.attempted
        plain.failed += other.failed
        plain.failures += other.failures
    return plain, block
