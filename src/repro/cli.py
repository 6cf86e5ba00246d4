"""Command-line interface: ``spike-analyze``.

Subcommands:

* ``analyze <image>`` — run the interprocedural dataflow analysis on a
  SAX executable image and print per-routine summaries plus the §4
  measurements (sizes, stage times, memory); ``--incremental``
  warm-starts from (and refreshes) a ``SUM5`` cache sidecar, and
  ``--json`` emits one machine-readable stats object instead of text;
* ``disasm <image>`` — print a disassembly listing;
* ``generate <benchmark> -o <image>`` — write a synthetic benchmark
  image (see :mod:`repro.workloads`);
* ``optimize <image> -o <image>`` — run the Figure-1 optimization
  pipeline and write the rewritten image;
* ``query <image> <routine>`` — answer one routine's summary on
  demand, solving only its caller/callee cones; reuses and refreshes
  the same ``SUM5`` sidecar as ``analyze --incremental``, so repeated
  queries amortize toward zero solver work;
* ``report <image>`` — analyze with per-routine solver attribution on
  and print a convergence / hot-routine table;
* ``run <image>`` — execute an image in the interpreter.

Observability: ``analyze --trace FILE`` exports a Chrome trace-event
JSON of the run's spans (open it in https://ui.perfetto.dev),
``--stats`` prints the obs counter block for any analyze mode (cold
or incremental), and ``--log-level`` / the ``REPRO_LOG``
environment variable turn on structured logging for the ``repro.*``
logger tree.

All analysis goes through :class:`repro.api.AnalysisSession`.  Exit
codes are distinct per failure class so scripts can tell them apart:

* 0 — success;
* 2 — usage error (bad or removed flags, a bad flag combination, an
  empty ``--cache`` path, an unknown routine for ``query``, ``-r`` or
  ``--dot-routine``, or an unknown benchmark for ``generate``);
* 3 — the input image (or the ``summaries`` sidecar) could not be read
  or parsed;
* 4 — the analysis itself failed (:class:`AnalysisError`), or
  executing the program did (``run``, ``optimize --verify``: a fault,
  the step limit, or changed behaviour);
* 5 — an output file (the cache sidecar, ``--save-summaries``,
  ``--dot``, ``--trace``, or the image ``generate -o`` and
  ``optimize -o`` write) could not be written; the run's output is
  still printed;
* 141 — stdout was closed before the output was (a pipe into
  ``head``); the shells' code for a process SIGPIPE ended.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Tuple

from repro.api import (
    AnalysisConfig,
    AnalysisError,
    AnalysisSession,
    UnknownRoutineError,
)
from repro.cfg.cfg import CfgError
from repro.dataflow.regset import RegisterSet
from repro.obs import (
    REGISTRY,
    configure_logging,
    enable_tracing,
    get_tracer,
    render_counters,
)
from repro.interproc.persist import (
    SummaryCache,
    SummaryFormatError,
    atomic_write,
    dump_cache,
    dump_summaries,
    load_cache,
    load_summaries,
)
from repro.program.disasm import load_program, render_listing
from repro.program.image import ImageFormatError
from repro.program.model import Program
from repro.program.rewrite import program_to_image
from repro.reporting.annotate import render_annotated_listing
from repro.reporting.dot import psg_to_dot
from repro.sim.interpreter import ExecutionError, run_program
from repro.workloads.generator import GeneratorConfig, generate_image
from repro.workloads.shapes import ALL_SHAPES, shape_by_name

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_IMAGE = 3
EXIT_ANALYSIS = 4
EXIT_CACHE_IO = 5
EXIT_BROKEN_PIPE = 141


def _load(path: str) -> Program:
    with open(path, "rb") as handle:
        return load_program(handle.read())


def _fraction(value: str) -> float:
    """An argparse type: a number in (0, 1]."""
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from None
    if not 0 < number <= 1:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"must be in (0, 1], not {value}")
    return number


def _int_from(low: int, high: Optional[int] = None):
    """An argparse type: an integer no less than ``low`` and, when
    ``high`` is given, no greater than it."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from None
        if number < low or (high is not None and number > high):
            span = f"at least {low}" if high is None else f"from {low} to {high}"
            raise argparse.ArgumentTypeError(f"must be {span}, not {number}")
        return number

    return parse


class _Parser(argparse.ArgumentParser):
    """A usage error is one stderr line, like every other CLI error."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message} (usage: {self.prog} -h)\n")


def _file_path(value: str) -> str:
    """An argparse type: a path, which must not be empty."""
    if not value:
        raise argparse.ArgumentTypeError("the path must not be empty")
    return value


def _read_sidecar(path: str) -> Tuple[Optional[SummaryCache], str]:
    """The cache sidecar at ``path`` (``None`` when there is none or it
    does not load), and the note saying how the run starts."""
    if not os.path.exists(path):
        return None, "cold (no cache file)"
    try:
        with open(path, "rb") as handle:
            return load_cache(handle.read()), f"warm ({path})"
    except (SummaryFormatError, OSError) as error:
        return None, f"cold (unreadable cache: {error})"


def _write_file(path: str, blob: bytes, what: str, quiet: bool) -> int:
    """Write an output file atomically (a writer killed mid-dump
    leaves the previous file intact): EXIT_OK, or EXIT_CACHE_IO with
    the reason on stderr.  ``quiet`` (``--json``) keeps the note off
    stdout."""
    try:
        atomic_write(path, blob)
    except OSError as error:
        print(f"could not write {what} to {path}: {error}", file=sys.stderr)
        return EXIT_CACHE_IO
    print(f"wrote {what} to {path}", file=sys.stderr if quiet else sys.stdout)
    return EXIT_OK


def _unknown_routine(program: Program, names: List[str]) -> int:
    """EXIT_USAGE, with the first name ``program`` has no routine for on
    stderr (worded as ``query`` words it); EXIT_OK when it has all."""
    known = set(program.routine_names())
    for name in names:
        if name not in known:
            print(
                f"no routine named {name!r} in the program "
                f"({program.routine_count} routines)",
                file=sys.stderr,
            )
            return EXIT_USAGE
    return EXIT_OK


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
    args: argparse.Namespace, session: AnalysisSession
) -> int:
    if args.annotate or args.dot:
        print(
            "--annotate/--dot need the whole-program PSG; "
            "drop --incremental to use them",
            file=sys.stderr,
        )
        return EXIT_USAGE
    cache_path = args.cache or args.image + ".sum2"
    cache, cache_note = _read_sidecar(cache_path)
    incremental = session.analyze_incremental(cache=cache)
    try:
        # Read the bodies -r prints now, while a cold run can still
        # stand in for a sidecar one of them does not decode from.
        for name in args.routines or ():
            incremental.result.summaries.get(name)
    except SummaryFormatError as error:
        incremental = session.analyze_incremental()
        incremental.refused = f"unreadable cache: {error}"
    if incremental.refused:
        cache_note = f"cold ({incremental.refused})"
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
            _print_counters(session)
    if args.routines:
        _print_routine_summaries(incremental.result, args.routines)
    if args.save_summaries and _write_file(
        args.save_summaries,
        dump_summaries(incremental.result, session.image_fingerprint),
        "summaries", args.json,
    ):
        return EXIT_CACHE_IO
    if _write_file(cache_path, dump_cache(incremental.cache), "cache", args.json):
        return EXIT_CACHE_IO
    # After the cache write so the cache.dump span lands in the trace.
    return _finish_trace(args)


def _analysis_config(store_dir: Optional[str]) -> Optional[AnalysisConfig]:
    """Map ``--store-dir`` to an analysis config (None = all defaults,
    so env-variable resolution applies)."""
    if store_dir is None:
        return None
    from repro.interproc.store import SummaryStore

    return AnalysisConfig(store=SummaryStore(store_dir))


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.trace:
        enable_tracing()
    try:
        session = AnalysisSession.from_path(
            args.image, _analysis_config(args.store_dir)
        )
    except (OSError, ImageFormatError) as error:
        print(f"cannot load image {args.image}: {error}", file=sys.stderr)
        return EXIT_BAD_IMAGE
    named = list(args.routines or ())
    if args.dot_routine is not None:
        named.append(args.dot_routine)
    if _unknown_routine(session.program, named):
        return EXIT_USAGE
    try:
        if args.incremental:
            return _cmd_analyze_incremental(args, session)
        analysis = session.analyze()
    except AnalysisError as error:
        print(f"analysis failed: {error}", file=sys.stderr)
        return EXIT_ANALYSIS
    program = session.program
    if args.json:
        # One result shape for every kind of run: the session's schema-1
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
    if args.save_summaries and _write_file(
        args.save_summaries,
        dump_summaries(analysis.result, session.image_fingerprint),
        "summaries", args.json,
    ):
        return EXIT_CACHE_IO
    if args.dot and _write_file(
        args.dot,
        psg_to_dot(analysis.psg, routine=args.dot_routine).encode("utf-8"),
        "PSG dot", args.json,
    ):
        return EXIT_CACHE_IO
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
    try:
        shape = shape_by_name(args.benchmark)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return EXIT_USAGE
    if args.scale != 1.0:
        shape = shape.scaled(args.scale)
    image = generate_image(shape, GeneratorConfig(seed=args.seed))
    what = (
        f"image ({len(image.symbols)} routines, "
        f"{image.instruction_count} instructions)"
    )
    if _write_file(args.output, image.to_bytes(), what, False):
        return EXIT_CACHE_IO
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
    except ExecutionError as error:
        print(f"verification failed: {error}", file=sys.stderr)
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
    blob = program_to_image(result.optimized).to_bytes()
    if _write_file(args.output, blob, "optimized image", False):
        return EXIT_CACHE_IO
    return EXIT_OK


def _cmd_query(args: argparse.Namespace) -> int:
    if args.trace:
        enable_tracing()
    try:
        session = AnalysisSession.from_path(
            args.image, _analysis_config(args.store_dir)
        )
    except (OSError, ImageFormatError) as error:
        print(f"cannot load image {args.image}: {error}", file=sys.stderr)
        return EXIT_BAD_IMAGE
    cache_path = args.cache or args.image + ".sum2"
    cache, cache_note = _read_sidecar(cache_path)
    try:
        result = session.query(args.routine, cache=cache)
    except UnknownRoutineError as error:
        print(str(error), file=sys.stderr)
        return EXIT_USAGE
    except AnalysisError as error:
        print(f"query failed: {error}", file=sys.stderr)
        return EXIT_ANALYSIS
    if result.refused:
        cache_note = f"cold ({result.refused})"
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
    if _write_file(cache_path, dump_cache(result.cache), "cache", args.json):
        return EXIT_CACHE_IO
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
        session.analyze()
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
    try:
        result = run_program(program, max_steps=args.max_steps)
    except ExecutionError as error:
        print(f"execution failed: {error}", file=sys.stderr)
        return EXIT_ANALYSIS
    for value in result.outputs:
        print(value)
    print(f"# steps={result.steps} exit={result.exit_value}")
    return EXIT_OK


def _cmd_summaries(args: argparse.Namespace) -> int:
    try:
        with open(args.sidecar, "rb") as handle:
            result = load_summaries(handle.read())
    except (OSError, SummaryFormatError) as error:
        print(f"cannot load summaries {args.sidecar}: {error}", file=sys.stderr)
        return EXIT_BAD_IMAGE
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
    parser = _Parser(
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
        "--json", action="store_true",
        help="print one machine-readable JSON stats object",
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
        "--cache", metavar="FILE", default=None, type=_file_path,
        help="cache sidecar path for --incremental (default: IMAGE.sum2)",
    )
    analyze.add_argument(
        "--store-dir", metavar="DIR", default=None,
        help=(
            "cross-image summary store, a directory of cache-format "
            "packs: consult it before solving or building a CFG (with "
            "--incremental) and publish solved summaries and front-end "
            "records into it, so linked variants warm each other "
            "(default: REPRO_SUMMARY_STORE)"
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
            "record spans for the whole run and write a Chrome "
            "trace-event JSON; open in https://ui.perfetto.dev"
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
    generate.add_argument(
        "--scale", type=_fraction, default=1.0,
        help="fraction of the shape's routines to generate, in (0, 1]",
    )
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
        "--cache", metavar="FILE", default=None, type=_file_path,
        help=(
            "SUM5 cache sidecar to warm-start from and refresh "
            "(default: IMAGE.sum2; shared with analyze --incremental)"
        ),
    )
    query.add_argument(
        "--json", action="store_true",
        help="print one machine-readable JSON object (summary + stats)",
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
        "--top", type=_int_from(0), default=10, metavar="N",
        help="number of routines to list (default: 10)",
    )
    report.add_argument(
        "--json", action="store_true",
        help="print the counters and hot-routine list as JSON",
    )
    report.set_defaults(func=_cmd_report)

    run = sub.add_parser("run", help="execute an image in the interpreter")
    run.add_argument("image")
    run.add_argument("--max-steps", type=_int_from(1), default=5_000_000)
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
        "--port", type=_int_from(0, 65535), default=8484, metavar="N",
        help="TCP port (default 8484; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve HTTP over this unix domain socket instead of TCP",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=(
            "persist per-tenant SUM5 cache sidecars under DIR so edit "
            "requests warm-start across daemon restarts"
        ),
    )
    serve.add_argument(
        "--max-bytes", type=_int_from(0), default=256 * 1024 * 1024,
        metavar="N",
        help=(
            "retained-session byte budget; least-recently-used "
            "sessions are evicted beyond it (default 256 MiB)"
        ),
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
        "--trace-sample", type=_int_from(1), default=10, metavar="N",
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
            "gc: sweep stale temp files, evict least-recently-used "
            "packs down to --max-bytes and merge the rest; stats: print "
            "distinct row counts (triples, summaries), front-end records "
            "and byte totals"
        ),
    )
    store.add_argument(
        "--store-dir", metavar="DIR", default=None,
        help="store directory (default: REPRO_SUMMARY_STORE)",
    )
    store.add_argument(
        "--max-bytes", type=_int_from(0), default=None, metavar="N",
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
    try:
        return args.func(args)
    except CfgError as error:
        # Code no CFG can model makes the image as unusable as bytes
        # that do not parse.
        print(f"cannot analyze image {args.image}: {error}", file=sys.stderr)
        return EXIT_BAD_IMAGE
    except BrokenPipeError:
        # Whoever read stdout stopped (``| head``).  SIGPIPE stays
        # ignored, so that a client hanging up cannot kill ``serve``;
        # stdout goes to /dev/null so the interpreter's last flush
        # does not fail again.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
