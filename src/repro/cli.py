"""Command-line interface: ``spike-analyze``.

Subcommands:

* ``analyze <image>`` — run the interprocedural dataflow analysis on a
  SAX executable image and print per-routine summaries plus the §4
  measurements (sizes, stage times, memory); ``--jobs N`` solves on a
  sharded worker pool (bit-identical results), ``--incremental``
  warm-starts from (and refreshes) a ``SUM3`` cache sidecar, and
  ``--json`` emits one machine-readable stats object instead of text;
* ``disasm <image>`` — print a disassembly listing;
* ``generate <benchmark> -o <image>`` — write a synthetic benchmark
  image (see :mod:`repro.workloads`);
* ``optimize <image> -o <image>`` — run the Figure-1 optimization
  pipeline and write the rewritten image;
* ``query <image> <routine>`` — answer one routine's summary on
  demand, solving only its caller/callee cones; reuses and refreshes
  the same ``SUM3`` sidecar as ``analyze --incremental``, so repeated
  queries amortize toward zero solver work;
* ``report <image>`` — analyze with per-routine solver attribution on
  and print a convergence / hot-routine table;
* ``run <image>`` — execute an image in the interpreter.

Observability: ``analyze --trace FILE`` exports a Chrome trace-event
JSON of the run's spans (open it in https://ui.perfetto.dev),
``--stats`` prints the obs counter block for any analyze mode (cold,
parallel, or incremental), and ``--log-level`` / the ``REPRO_LOG``
environment variable turn on structured logging for the ``repro.*``
logger tree.

All analysis goes through :class:`repro.api.AnalysisSession`.  Exit
codes are distinct per failure class so scripts can tell them apart:

* 0 — success;
* 2 — usage error (bad flags or flag combinations, a malformed
  ``REPRO_JOBS`` value, or a query for an unknown routine);
* 3 — the input image could not be read or parsed;
* 4 — the analysis itself failed (:class:`AnalysisError`);
* 5 — the analysis succeeded but a by-product (the cache sidecar or
  the ``--trace`` file) could not be written; the run's output is
  still printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.api import (
    JOBS_ENV_VAR,
    AnalysisConfig,
    AnalysisError,
    AnalysisSession,
    JobsConfigError,
    UnknownRoutineError,
)
from repro.dataflow.regset import RegisterSet
from repro.obs import (
    REGISTRY,
    configure_logging,
    enable_tracing,
    get_tracer,
    render_counters,
)
from repro.interproc.persist import (
    SummaryFormatError,
    dump_cache,
    dump_summaries,
    image_fingerprint,
    load_cache,
    load_summaries,
)
from repro.program.disasm import load_program, render_listing
from repro.program.image import ImageFormatError
from repro.program.model import Program
from repro.program.rewrite import program_to_image
from repro.reporting.annotate import render_annotated_listing
from repro.reporting.dot import psg_to_dot
from repro.sim.interpreter import run_program
from repro.workloads.generator import GeneratorConfig, generate_image
from repro.workloads.shapes import ALL_SHAPES, shape_by_name

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_IMAGE = 3
EXIT_ANALYSIS = 4
EXIT_CACHE_IO = 5


def _load(path: str) -> Program:
    with open(path, "rb") as handle:
        return load_program(handle.read())


def _atomic_write_bytes(path: str, blob: bytes) -> None:
    """Write a by-product file atomically (tmp + ``os.replace``).

    A writer killed mid-dump leaves the previous file intact instead of
    a truncated sidecar that silently forces the next run cold (the
    same idiom as ``service/registry.py:_write_sidecar``).
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except OSError:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def _print_routine_summaries(result, names: List[str]) -> None:
    print()
    for name in names:
        summary = result.summaries[name]
        print(f"{name}:")
        print(f"  call-used:     {summary.call_used!r}")
        print(f"  call-defined:  {summary.call_defined!r}")
        print(f"  call-killed:   {summary.call_killed!r}")
        print(f"  live-at-entry: {summary.live_at_entry!r}")
        for block, mask in sorted(summary.exit_live_masks.items()):
            live = RegisterSet.from_mask(mask)
            print(f"  live-at-exit[block {block}]: {live!r}")


def _print_counters(session: AnalysisSession) -> None:
    counters = session.metrics().get("counters", {})
    if counters:
        print()
        print("counters:")
        print(render_counters(counters, indent="  "))


def _finish_trace(args: argparse.Namespace) -> int:
    """Export the collected spans to ``args.trace`` (no-op without it)."""
    if not getattr(args, "trace", None):
        return EXIT_OK
    tracer = get_tracer()
    try:
        count = tracer.export(args.trace)
    except OSError as error:
        print(
            f"could not write trace to {args.trace}: {error}",
            file=sys.stderr,
        )
        return EXIT_CACHE_IO
    # Keep --json stdout parseable: the note goes to stderr there.
    print(
        f"wrote trace to {args.trace} ({count} spans); "
        "open in https://ui.perfetto.dev",
        file=sys.stderr if getattr(args, "json", False) else sys.stdout,
    )
    return EXIT_OK


def _cmd_analyze_incremental(
    args: argparse.Namespace, session: AnalysisSession, image_bytes: bytes
) -> int:
    if args.annotate or args.dot:
        print(
            "--annotate/--dot need the whole-program PSG; "
            "drop --incremental to use them",
            file=sys.stderr,
        )
        return EXIT_USAGE
    cache_path = args.cache or args.image + ".sum2"
    cache = None
    cache_note = "cold (no cache file)"
    if os.path.exists(cache_path):
        try:
            with open(cache_path, "rb") as handle:
                cache = load_cache(handle.read())
            cache_note = f"warm ({cache_path})"
        except (SummaryFormatError, OSError) as error:
            cache_note = f"cold (unreadable cache: {error})"
    incremental = session.analyze_incremental(cache=cache, jobs=args.jobs)
    metrics = incremental.metrics
    program = session.program
    if args.json:
        # The schema-1 result payload; the daemon serves the same shape
        # (see repro.interproc.results).  "cache" is CLI-side context.
        payload = session.to_json()
        payload["cache"] = cache_note
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"routines:      {program.routine_count}")
        print(f"instructions:  {program.instruction_count}")
        print(f"cache:         {cache_note}")
        print(
            f"reanalyzed:    {metrics.phase2_solved} routines  "
            f"(reused {metrics.phase2_reused}, "
            f"{len(metrics.dirty_routines)} dirty)"
        )
        if args.stats:
            print()
            print(metrics.render())
            if incremental.parallel is not None:
                print()
                print(incremental.parallel.render())
            _print_counters(session)
    if args.routines:
        _print_routine_summaries(incremental.result, args.routines)
    if args.save_summaries:
        blob = dump_summaries(
            incremental.result, image_fingerprint(image_bytes)
        )
        try:
            _atomic_write_bytes(args.save_summaries, blob)
        except OSError as error:
            print(
                f"could not write summaries to {args.save_summaries}: "
                f"{error}",
                file=sys.stderr,
            )
            return EXIT_CACHE_IO
        print(
            f"wrote summaries to {args.save_summaries}",
            file=sys.stderr if args.json else sys.stdout,
        )
    try:
        _atomic_write_bytes(cache_path, dump_cache(incremental.cache))
    except OSError as error:
        print(
            f"could not write cache to {cache_path}: {error}",
            file=sys.stderr,
        )
        return EXIT_CACHE_IO
    print(
        f"wrote cache to {cache_path}",
        file=sys.stderr if args.json else sys.stdout,
    )
    # After the cache write so the cache.dump span lands in the trace.
    return _finish_trace(args)


def _analysis_config(
    labeling: Optional[str],
    store_dir: Optional[str] = None,
) -> Optional[AnalysisConfig]:
    """Map the ``--labeling`` / ``--store-dir`` choices to an analysis
    config (None = all defaults, so env-variable resolution applies)."""
    if labeling is None and store_dir is None:
        return None
    from repro.psg.build import PsgConfig

    if labeling is None:
        psg = PsgConfig()
    elif labeling == "per-edge":
        psg = PsgConfig(per_edge_labeling=True)
    else:
        psg = PsgConfig(labeling=labeling)
    store = None
    if store_dir is not None:
        from repro.interproc.store import SummaryStore

        store = SummaryStore(store_dir)
    return AnalysisConfig(psg=psg, store=store)


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.trace:
        enable_tracing()
    try:
        with open(args.image, "rb") as handle:
            image_bytes = handle.read()
        session = AnalysisSession.from_image_bytes(
            image_bytes,
            _analysis_config(args.labeling, args.store_dir),
        )
    except (OSError, ImageFormatError) as error:
        print(f"cannot load image {args.image}: {error}", file=sys.stderr)
        return EXIT_BAD_IMAGE
    try:
        if args.incremental:
            return _cmd_analyze_incremental(args, session, image_bytes)
        jobs = args.jobs
        if args.annotate or args.dot:
            if jobs is not None and jobs != 1:
                print(
                    "--annotate/--dot need the whole-program PSG; "
                    "use --jobs 1 with them",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            jobs = 1  # force serial even when REPRO_JOBS says otherwise
            if os.environ.get(JOBS_ENV_VAR):
                print(
                    f"note: --annotate/--dot force a serial solve; "
                    f"ignoring {JOBS_ENV_VAR}="
                    f"{os.environ[JOBS_ENV_VAR]!r}",
                    file=sys.stderr,
                )
        analysis = session.analyze(jobs=jobs)
    except JobsConfigError as error:
        print(str(error), file=sys.stderr)
        return EXIT_USAGE
    except AnalysisError as error:
        print(f"analysis failed: {error}", file=sys.stderr)
        return EXIT_ANALYSIS
    program = session.program
    if args.json:
        # One result shape for every engine: the session's schema-1
        # payload (the daemon serves the identical object).
        print(json.dumps(session.to_json(), indent=2, sort_keys=True))
    else:
        print(f"routines:      {program.routine_count}")
        print(f"instructions:  {program.instruction_count}")
        print(analysis.describe())
        if args.stats:
            _print_counters(session)
    if args.routines:
        _print_routine_summaries(analysis.result, args.routines)
    if args.annotate:
        print()
        print(render_annotated_listing(analysis, args.routines or None))
    if args.save_summaries:
        blob = dump_summaries(
            analysis.result, image_fingerprint(image_bytes)
        )
        try:
            _atomic_write_bytes(args.save_summaries, blob)
        except OSError as error:
            print(
                f"could not write summaries to {args.save_summaries}: "
                f"{error}",
                file=sys.stderr,
            )
            return EXIT_CACHE_IO
        # Keep --json stdout parseable, as with the trace note above.
        print(
            f"wrote summaries to {args.save_summaries}",
            file=sys.stderr if args.json else sys.stdout,
        )
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(psg_to_dot(analysis.psg, routine=args.dot_routine))
        print(f"wrote PSG dot to {args.dot}")
    return _finish_trace(args)


def _cmd_disasm(args: argparse.Namespace) -> int:
    try:
        program = _load(args.image)
    except (OSError, ImageFormatError) as error:
        print(f"cannot load image {args.image}: {error}", file=sys.stderr)
        return EXIT_BAD_IMAGE
    print(render_listing(program))
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    shape = shape_by_name(args.benchmark)
    if args.scale != 1.0:
        shape = shape.scaled(args.scale)
    image = generate_image(shape, GeneratorConfig(seed=args.seed))
    with open(args.output, "wb") as handle:
        handle.write(image.to_bytes())
    print(
        f"wrote {args.output}: {len(image.symbols)} routines, "
        f"{image.instruction_count} instructions"
    )
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    try:
        session = AnalysisSession.from_path(args.image)
    except (OSError, ImageFormatError) as error:
        print(f"cannot load image {args.image}: {error}", file=sys.stderr)
        return EXIT_BAD_IMAGE
    try:
        result = session.optimize(verify=args.verify)
    except AnalysisError as error:
        print(f"optimization failed: {error}", file=sys.stderr)
        return EXIT_ANALYSIS
    for report in result.reports:
        print(
            f"{report.name}: {report.routines_changed} routines, "
            f"{report.instructions_deleted} deleted, "
            f"{report.instructions_rewritten} rewritten"
        )
    print(f"instructions removed: {result.instructions_removed}")
    if args.verify:
        print(f"dynamic improvement: {result.dynamic_improvement:.1%}")
    with open(args.output, "wb") as handle:
        handle.write(program_to_image(result.optimized).to_bytes())
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_query(args: argparse.Namespace) -> int:
    if args.trace:
        enable_tracing()
    try:
        session = AnalysisSession.from_path(
            args.image,
            _analysis_config(args.labeling, args.store_dir),
        )
    except (OSError, ImageFormatError) as error:
        print(f"cannot load image {args.image}: {error}", file=sys.stderr)
        return EXIT_BAD_IMAGE
    cache_path = args.cache or args.image + ".sum2"
    cache = None
    cache_note = "cold (no cache file)"
    if os.path.exists(cache_path):
        try:
            with open(cache_path, "rb") as handle:
                cache = load_cache(handle.read())
            cache_note = f"warm ({cache_path})"
        except (SummaryFormatError, OSError) as error:
            cache_note = f"cold (unreadable cache: {error})"
    try:
        result = session.query(args.routine, cache=cache)
    except (JobsConfigError, UnknownRoutineError) as error:
        print(str(error), file=sys.stderr)
        return EXIT_USAGE
    except AnalysisError as error:
        print(f"query failed: {error}", file=sys.stderr)
        return EXIT_ANALYSIS
    summary = result.summary
    metrics = result.metrics
    if args.json:
        # Query results carry their rendered summary in the schema-1
        # payload itself ("summary"); nothing is rebuilt here.
        payload = session.to_json()
        payload["cache"] = cache_note
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"routine:       {summary.name}")
        print(f"cache:         {cache_note}")
        print(
            f"cones:         phase1 {metrics.phase1_cone_routines} / "
            f"phase2 {metrics.phase2_cone_routines} routines "
            f"(of {session.program.routine_count})"
        )
        print(
            f"reanalyzed:    {metrics.phase2_solved} routines  "
            f"(reused {metrics.phase2_reused}, "
            f"{len(metrics.dirty_routines)} dirty)"
        )
        _print_routine_summaries(
            result.cache.result, [args.routine]
        )
        if args.stats:
            print()
            print(metrics.render())
            _print_counters(session)
    try:
        _atomic_write_bytes(cache_path, dump_cache(result.cache))
    except OSError as error:
        print(
            f"could not write cache to {cache_path}: {error}",
            file=sys.stderr,
        )
        return EXIT_CACHE_IO
    print(
        f"wrote cache to {cache_path}",
        file=sys.stderr if args.json else sys.stdout,
    )
    return _finish_trace(args)


def _parse_labeled(rendered: str) -> dict:
    """Labels of a rendered counter key (``name{k=v,...}`` -> dict)."""
    if "{" not in rendered:
        return {}
    inner = rendered.split("{", 1)[1].rstrip("}")
    return dict(pair.split("=", 1) for pair in inner.split(","))


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        session = AnalysisSession.from_path(args.image)
    except (OSError, ImageFormatError) as error:
        print(f"cannot load image {args.image}: {error}", file=sys.stderr)
        return EXIT_BAD_IMAGE
    # Per-routine visit attribution is O(nodes) per solver pass, so the
    # registry gates it; this subcommand is the only consumer.
    REGISTRY.per_routine = True
    try:
        session.analyze(jobs=1)
    except AnalysisError as error:
        print(f"analysis failed: {error}", file=sys.stderr)
        return EXIT_ANALYSIS
    finally:
        REGISTRY.per_routine = False
    counters = session.metrics()["counters"]
    per_routine: dict = {}
    for rendered, value in counters.items():
        if not rendered.startswith("solver.routine_iterations{"):
            continue
        labels = _parse_labeled(rendered)
        entry = per_routine.setdefault(
            labels["routine"], {"phase1": 0, "phase2": 0}
        )
        entry[labels["phase"]] = entry.get(labels["phase"], 0) + value
    hot = sorted(
        (
            {
                "routine": routine,
                "phase1": visits["phase1"],
                "phase2": visits["phase2"],
                "total": visits["phase1"] + visits["phase2"],
            }
            for routine, visits in per_routine.items()
        ),
        key=lambda row: (-row["total"], row["routine"]),
    )[: args.top]
    if args.json:
        payload = {
            "routines": session.program.routine_count,
            "counters": counters,
            "hot_routines": hot,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK
    from repro.reporting.tables import format_table

    print(f"routines:          {session.program.routine_count}")
    print(
        f"psg nodes/edges:   "
        f"{counters.get('psg.nodes', 0)} / "
        f"{counters.get('psg.flow_edges', 0)} flow + "
        f"{counters.get('psg.call_return_edges', 0)} call/return"
    )
    print(
        f"solver iterations: "
        f"phase1 {counters.get('solver.iterations{phase=phase1}', 0)}, "
        f"phase2 {counters.get('solver.iterations{phase=phase2}', 0)}"
    )
    print(
        f"max queue depth:   "
        f"phase1 {counters.get('solver.max_queue_depth{phase=phase1}', 0)}, "
        f"phase2 {counters.get('solver.max_queue_depth{phase=phase2}', 0)}"
    )
    print()
    print(
        format_table(
            ["Routine", "Phase1 visits", "Phase2 visits", "Total"],
            [
                [row["routine"], row["phase1"], row["phase2"], row["total"]]
                for row in hot
            ],
            title=f"Hot routines by worklist visits (top {args.top})",
        )
    )
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        program = _load(args.image)
    except (OSError, ImageFormatError) as error:
        print(f"cannot load image {args.image}: {error}", file=sys.stderr)
        return EXIT_BAD_IMAGE
    result = run_program(program, max_steps=args.max_steps)
    for value in result.outputs:
        print(value)
    print(f"# steps={result.steps} exit={result.exit_value}")
    return EXIT_OK


def _cmd_summaries(args: argparse.Namespace) -> int:
    with open(args.sidecar, "rb") as handle:
        result = load_summaries(handle.read())
    for name in sorted(result.summaries):
        summary = result.summaries[name]
        print(f"{name}:")
        print(f"  call-used:     {summary.call_used!r}")
        print(f"  call-defined:  {summary.call_defined!r}")
        print(f"  call-killed:   {summary.call_killed!r}")
        print(f"  live-at-entry: {summary.live_at_entry!r}")
        print(f"  call sites:    {len(summary.call_sites)}")
    return EXIT_OK


def _cmd_benchmarks(_args: argparse.Namespace) -> int:
    for shape in ALL_SHAPES:
        print(
            f"{shape.name:<10} {shape.suite:<16} {shape.routines:>7} routines  "
            f"{shape.instructions:>9} instructions   {shape.description}"
        )
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the daemon pulls in http.server and the
    # registry, which no other subcommand needs.
    from repro.service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        cache_dir=args.cache_dir,
        max_bytes=args.max_bytes,
        jobs=args.jobs,
        trace_dir=args.trace_dir,
        trace_sample=args.trace_sample,
        store_dir=args.store_dir,
    )
    try:
        serve(config)
    except OSError as error:
        print(f"cannot serve: {error}", file=sys.stderr)
        return EXIT_ANALYSIS
    return EXIT_OK


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.interproc.store import STORE_ENV_VAR, SummaryStore

    root = args.store_dir or os.environ.get(STORE_ENV_VAR)
    if not root:
        print(
            "no store directory: pass --store-dir or set "
            f"{STORE_ENV_VAR}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    store = SummaryStore(root, max_bytes=args.max_bytes)
    if args.action == "stats":
        print(json.dumps(store.stats(), indent=2, sort_keys=True))
    else:
        print(json.dumps(store.gc(), indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spike-analyze",
        description=(
            "Interprocedural register dataflow analysis for SAX executables "
            "(reproduction of Goodwin, PLDI 1997)"
        ),
    )
    # Main parser only: a subparser default of None would overwrite a
    # value parsed here (argparse applies subparser defaults last).
    parser.add_argument(
        "--log-level", metavar="LEVEL", default=None,
        help=(
            "log verbosity for the repro.* loggers (debug, info, "
            "warning, ...); the REPRO_LOG environment variable is the "
            "fallback default"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze an executable image")
    analyze.add_argument("image")
    analyze.add_argument(
        "-j", "--jobs", type=int, default=None, metavar="N",
        help=(
            "solve on N worker processes (0 = one per CPU); results are "
            "bit-identical at any setting (default: REPRO_JOBS or 1)"
        ),
    )
    analyze.add_argument(
        "--json", action="store_true",
        help="print one machine-readable JSON stats object",
    )
    analyze.add_argument(
        "--labeling", choices=["batched", "per-target", "per-edge"],
        default=None, metavar="STRATEGY",
        help=(
            "flow-summary labeling strategy: batched (default; one "
            "sweep per routine labels every target), per-target (one solve "
            "per PSG target), or per-edge (the paper's literal Figure-6 "
            "formulation; slowest).  All three produce identical labels"
        ),
    )
    analyze.add_argument(
        "-r", "--routine", dest="routines", action="append", default=[],
        help="print the summary of this routine (repeatable)",
    )
    analyze.add_argument(
        "--annotate", action="store_true",
        help="print a paper-style listing with summaries inline",
    )
    analyze.add_argument(
        "--save-summaries", metavar="FILE",
        help="write a summary sidecar bound to the image's fingerprint",
    )
    analyze.add_argument(
        "--incremental", action="store_true",
        help=(
            "reuse and refresh a summary cache sidecar, re-solving only "
            "routines whose fingerprints changed (and their dependents)"
        ),
    )
    analyze.add_argument(
        "--cache", metavar="FILE", default=None,
        help="cache sidecar path for --incremental (default: IMAGE.sum2)",
    )
    analyze.add_argument(
        "--store-dir", metavar="DIR", default=None,
        help=(
            "cross-image content-addressed summary store: consult it "
            "before solving or building a CFG (with --incremental) and "
            "publish solved summaries and front-end records into it, "
            "keyed by routine content so linked variants warm each "
            "other (default: REPRO_SUMMARY_STORE)"
        ),
    )
    analyze.add_argument(
        "--stats", action="store_true",
        help=(
            "print the obs counter block (and, with --incremental, the "
            "incremental work metrics)"
        ),
    )
    analyze.add_argument(
        "--trace", metavar="FILE",
        help=(
            "record spans for the whole run (workers included) and "
            "write a Chrome trace-event JSON; open in "
            "https://ui.perfetto.dev"
        ),
    )
    analyze.add_argument(
        "--dot", metavar="FILE", help="write the PSG as a Graphviz digraph"
    )
    analyze.add_argument(
        "--dot-routine", metavar="NAME", default=None,
        help="restrict --dot to one routine",
    )
    analyze.set_defaults(func=_cmd_analyze)

    disasm = sub.add_parser("disasm", help="disassemble an image")
    disasm.add_argument("image")
    disasm.set_defaults(func=_cmd_disasm)

    generate = sub.add_parser("generate", help="generate a benchmark image")
    generate.add_argument("benchmark", help="benchmark name (see 'benchmarks')")
    generate.add_argument("-o", "--output", required=True)
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=_cmd_generate)

    optimize = sub.add_parser("optimize", help="optimize an image")
    optimize.add_argument("image")
    optimize.add_argument("-o", "--output", required=True)
    optimize.add_argument(
        "--verify", action="store_true",
        help="execute before/after and compare observable behaviour",
    )
    optimize.set_defaults(func=_cmd_optimize)

    query = sub.add_parser(
        "query",
        help="answer one routine's summary on demand (cone-scoped solve)",
    )
    query.add_argument("image")
    query.add_argument("routine", help="routine name to query")
    query.add_argument(
        "--cache", metavar="FILE", default=None,
        help=(
            "SUM3 cache sidecar to warm-start from and refresh "
            "(default: IMAGE.sum2; shared with analyze --incremental)"
        ),
    )
    query.add_argument(
        "--json", action="store_true",
        help="print one machine-readable JSON object (summary + stats)",
    )
    query.add_argument(
        "--labeling", choices=["batched", "per-target", "per-edge"],
        default=None, metavar="STRATEGY",
        help="flow-summary labeling strategy (see analyze --labeling)",
    )
    query.add_argument(
        "--store-dir", metavar="DIR", default=None,
        help=(
            "cross-image summary store to read summaries and front-end "
            "records through and publish into (see analyze --store-dir)"
        ),
    )
    query.add_argument(
        "--stats", action="store_true",
        help="print the query work metrics and obs counter block",
    )
    query.add_argument(
        "--trace", metavar="FILE",
        help="write a Chrome trace-event JSON of the query's spans",
    )
    query.set_defaults(func=_cmd_query)

    report = sub.add_parser(
        "report",
        help="print a convergence / hot-routine table for an image",
    )
    report.add_argument("image")
    report.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="number of routines to list (default: 10)",
    )
    report.add_argument(
        "--json", action="store_true",
        help="print the counters and hot-routine list as JSON",
    )
    report.set_defaults(func=_cmd_report)

    run = sub.add_parser("run", help="execute an image in the interpreter")
    run.add_argument("image")
    run.add_argument("--max-steps", type=int, default=5_000_000)
    run.set_defaults(func=_cmd_run)

    summaries = sub.add_parser(
        "summaries", help="dump a summary sidecar written by analyze"
    )
    summaries.add_argument("sidecar")
    summaries.set_defaults(func=_cmd_summaries)

    benchmarks = sub.add_parser("benchmarks", help="list known benchmarks")
    benchmarks.set_defaults(func=_cmd_benchmarks)

    serve = sub.add_parser(
        "serve",
        help="run the analysis daemon (POST images, get --json payloads)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="TCP bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8484, metavar="N",
        help="TCP port (default 8484; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve HTTP over this unix domain socket instead of TCP",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=(
            "persist per-tenant SUM3 cache sidecars under DIR so edit "
            "requests warm-start across daemon restarts"
        ),
    )
    serve.add_argument(
        "--max-bytes", type=int, default=256 * 1024 * 1024,
        metavar="N",
        help=(
            "retained-session byte budget; least-recently-used "
            "sessions are evicted beyond it (default 256 MiB)"
        ),
    )
    serve.add_argument(
        "-j", "--jobs", type=int, default=None, metavar="N",
        help="default worker count for solves (per-request jobs wins)",
    )
    serve.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help=(
            "sample per-request Perfetto traces to DIR/<run-id>.json "
            "(see --trace-sample; clients can always request a trace "
            "inline with the X-Repro-Trace: 1 header)"
        ),
    )
    serve.add_argument(
        "--trace-sample", type=int, default=10, metavar="N",
        help="with --trace-dir, capture 1 in N requests (default 10)",
    )
    serve.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help=(
            "process-wide cross-image summary store: tenants analyzing "
            "successive builds of shared libraries warm each other "
            "(see analyze --store-dir)"
        ),
    )
    serve.set_defaults(func=_cmd_serve)

    store = sub.add_parser(
        "store",
        help="inspect or garbage-collect a cross-image summary store",
    )
    store.add_argument(
        "action", choices=["gc", "stats"],
        help=(
            "gc: sweep stale temp files and evict least-recently-used "
            "records down to --max-bytes; stats: print per-grade "
            "record counts (triples, summaries, frontend) and byte totals"
        ),
    )
    store.add_argument(
        "--store-dir", metavar="DIR", default=None,
        help="store directory (default: REPRO_SUMMARY_STORE)",
    )
    store.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="byte budget for gc eviction (default: sweep temps only)",
    )
    store.set_defaults(func=_cmd_store)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level is not None:
        try:
            configure_logging(args.log_level)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
