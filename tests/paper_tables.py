"""The paper's §4 tables and figures, regenerated from one registry.

:data:`TABLES` holds a row function per §4 artifact, run on synthetic
stand-ins at fixed scales.  Structural cells (counts, modeled memory
bytes, dynamic instruction counts, their ratios) are pinned in
``tests/golden/paper_tables.json``; ``"seconds"`` cells are advisory.
:data:`CLAIMS` are the timed claims, each on the fastest of three runs.
``PYTHONPATH=src python -m tests.paper_tables`` rewrites the golden and
EXPERIMENTS.md's tables; with ``--check`` it compares the tables with
the golden and asserts the claims instead.
"""

import argparse
import dataclasses
import gc
import json
import math
import os
import platform
import re
import sys
import tempfile
import threading
import time
from functools import lru_cache
from pathlib import Path

from repro.api import AnalysisConfig, AnalysisSession
from repro.dataflow.regset import RegisterSet
from repro.interproc import dump_cache, load_cache
from repro.interproc.baseline import analyze_program_baseline
from repro.interproc.store import SummaryStore
from repro.program.model import program_statistics
from repro.program.rewrite import program_to_image
from repro.psg.build import PsgConfig, build_psg
from repro.reporting.tables import format_markdown_table
from repro.service import AnalysisDaemon, ServiceClient, ServiceConfig
from repro.sim.cost_model import cycle_improvement
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.mutate import editable_routines, first_editable_routine, perturb_routine
from repro.workloads.shapes import ALL_SHAPES, PC_APP_SHAPES, shape_by_name

ROOT = Path(__file__).resolve().parents[1]
GOLDEN, EXPERIMENTS = ROOT / "tests" / "golden" / "paper_tables.json", ROOT / "EXPERIMENTS.md"
#: One generated EXPERIMENTS.md block: (title, rendered table).
BLOCK = re.compile(r"<!-- paper-tables: (.+?) -->\n(.*?)<!-- /paper-tables -->", re.S)

#: Table-2 scales by suite, and the scales of Figure 1 and the ablations.
SCALES, FIG1_SCALE, ABLATION_SCALE = {"SPECint95": 0.25, "PC Applications": 0.04}, 0.1, 0.08
SWEEP = (0.05, 0.1, 0.2, 0.4)  # Figures 14 and 15: the gcc shape, scaled
HINTED = GeneratorConfig(seed=3, hinted_call_fraction=0.25)  # ablation C: 25 % hinted calls
NAMES = [shape.name for shape in ALL_SHAPES]  # Table-2 row order
PC_APPS = [shape.name for shape in PC_APP_SHAPES]
TABLES, CLAIMS = {}, {}


@lru_cache(maxsize=None)
def program(name, scale=0.0, hinted=False):
    """The stand-in for ``name``, at its Table-2 scale by default."""
    gc.freeze()  # what is alive already is no garbage this generation makes
    shape = shape_by_name(name)
    shape = shape.scaled(scale or SCALES[shape.suite])
    target = generate_program(shape, HINTED if hinted else GeneratorConfig(seed=0))
    assert target.routine_count == shape.routines, name
    return target


def timed(call, rounds=1):
    """(the last result, the fastest wall seconds of ``rounds`` calls).  What is alive before
    a call, which a CLI process would not hold, is frozen out of the collector (see measure)."""
    seconds = []
    for _ in range(rounds):
        gc.freeze()
        start = time.perf_counter()
        result = call()
        seconds.append(time.perf_counter() - start)
    return result, min(seconds)


def analyze(name, scale=0.0):
    return timed(AnalysisSession.from_program(program(name, scale)).analyze)[0]


analysis = lru_cache(maxsize=None)(analyze)


def table(title, keys):
    """Register ``row(key)`` for each of ``keys`` as the rows of ``title``."""
    return lambda row: TABLES.setdefault(title, (keys, row))[1]


def claim(text):
    """Register a timed claim: a check that asserts and returns what it measured."""
    return lambda check: CLAIMS.setdefault(text, check)


@table("Table 1", PC_APPS)
def table1(name):
    shape = shape_by_name(name)
    return {"PC App": name, "Description": shape.description, "Routines": shape.routines,
            "Instructions": shape.instructions, "Stand-in routines": program(name).routine_count}


@table("Table 2", NAMES)
def table2(name):
    shape, run, target = shape_by_name(name), analysis(name), program(name)
    return {"Benchmark": name, "Routines": target.routine_count,
            "Basic Blocks": run.basic_block_count, "Instructions": target.instruction_count,
            "Memory (bytes)": run.memory_bytes, "Paper s (full size)": shape.paper_time_seconds,
            "Paper MB (full size)": shape.paper_memory_mbytes,
            "seconds": {"Time (s)": run.metrics.total_seconds}}


@table("Table 3", NAMES)
def table3(name):
    shape, run, target = shape_by_name(name), analysis(name), program(name)
    stats, averages = program_statistics(target), run.psg.per_routine_averages()
    exits = sum(len(cfg.exits) for cfg in run.cfgs.values())
    return {"Benchmark": name, "Routines": target.routine_count,
            "Exits/Rtn": exits / target.routine_count, "Exits (paper)": shape.exits_per_routine,
            "Calls/Rtn": stats["calls_per_routine"], "Calls (paper)": shape.calls_per_routine,
            "Branches/Rtn": stats["branches_per_routine"],
            "Branches (paper)": shape.branches_per_routine,
            "PSG Nodes/Rtn": averages["psg_nodes_per_routine"],
            "Nodes (paper)": shape.paper_psg_nodes_per_routine,
            "PSG Edges/Rtn": averages["psg_edges_per_routine"],
            "Edges (paper)": shape.paper_psg_edges_per_routine,
            "Branch nodes": run.psg.branch_node_count}


@table("Table 4", NAMES)
def table4(name):
    shape, run = shape_by_name(name), analysis(name)
    without = build_psg(program(name), run.cfgs, config=PsgConfig(branch_nodes=False))
    edges = (run.psg.flow_edge_count, without.flow_edge_count)
    return {"Benchmark": name, "Edge Reduction %": 100.0 * (1.0 - edges[0] / max(1, edges[1])),
            "Reduction (paper %)": shape.paper_edge_reduction_pct,
            "Node Increase %": 100.0 * (run.psg.node_count / max(1, without.node_count) - 1.0),
            "Increase (paper %)": shape.paper_node_increase_pct, "Edges with": edges[0],
            "Edges without": edges[1], "Branch nodes": run.psg.branch_node_count}


@table("Table 5", NAMES)
def table5(name):
    shape, run = shape_by_name(name), analysis(name)
    nodes, edges = run.psg.node_count, run.psg.edge_count
    blocks, arcs = run.basic_block_count, run.cfg_arc_count
    return {"Benchmark": name, "PSG Nodes": nodes, "PSG Edges": edges, "Blocks": blocks,
            "CFG Arcs": arcs, "Nodes/Block": nodes / blocks,
            "Nodes/Block (paper)": shape.paper_nodes_per_block,
            "Edges/Arc": edges / arcs, "Edges/Arc (paper)": shape.paper_edges_per_arc}


# Figure 13 covers gcc and the eight PC applications, as in the paper.
@table("Figure 13", ["gcc"] + PC_APPS)
def figure13(name):
    metrics, share = analysis(name).metrics, analysis(name).metrics.fractions()
    return {"Benchmark": name, "seconds": {
        "CFG Build %": 100 * share["cfg_build"], "Init %": 100 * share["initialization"],
        "PSG Build %": 100 * share["psg_build"], "Phase 1 %": 100 * share["phase1"],
        "Phase 2 %": 100 * share["phase2"], "Total (s)": metrics.total_seconds}}


@table("Figure 14", SWEEP)
def figure14(scale):
    run, target = analysis("gcc", scale), program("gcc", scale)
    blocks, seconds = run.basic_block_count, run.metrics.total_seconds
    return {"Scale": scale, "Routines": target.routine_count, "Blocks": blocks,
            "Instructions": target.instruction_count,
            "seconds": {"Time (s)": seconds, "us/block": 1e6 * seconds / blocks}}


@table("Figure 15", SWEEP)
def figure15(scale):
    run, row = analysis("gcc", scale), structural([figure14(scale)])[0]
    return {**row, "Memory (bytes)": run.memory_bytes,
            "Bytes/Block": run.memory_bytes / run.basic_block_count}


@table("Figure 1", ["compress", "li", "go", "perl", "vortex", "maxeda"])
def figure1(name):
    target = program(name, FIG1_SCALE)
    result = AnalysisSession.from_program(target).optimize(verify=True)
    edits = {report.name: report.total_edits for report in result.reports}
    before, after = result.baseline_run, result.optimized_run
    return {"Benchmark": name, "Static removed": result.instructions_removed,
            "Static %": 100.0 * result.instructions_removed / target.instruction_count,
            "Dyn instr before": before.steps, "Dyn instr after": after.steps,
            "Dyn improvement %": 100.0 * result.dynamic_improvement,
            "Cycle improvement %": 100.0 * cycle_improvement(before, after),
            **{f"{kind} edits": edits.get(kind, 0) for kind in ("realloc", "spill", "dce")},
            "Behaviour preserved": result.behaviour_preserved()}


@table("PSG vs whole-program CFG", ["compress", "li", "go", "perl", "gcc", "maxeda", "vc"])
def psg_vs_cfg(name):
    psg, cfg = analysis(name), analyze_program_baseline(program(name))
    seconds = psg.metrics.seconds
    return {"Benchmark": name, "PSG memory (bytes)": psg.memory_bytes,
            "CFG memory (bytes)": cfg.memory_bytes,
            "Memory ratio": cfg.memory_bytes / psg.memory_bytes,
            "Summaries equal": psg.result.equal_summaries(cfg.result),
            "seconds": {
                "PSG phases (s)": seconds["phase1"] + seconds["phase2"],
                "CFG total (s)": cfg.elapsed_seconds, "PSG total (s)": psg.metrics.total_seconds}}


@table("Ablation B", ["li", "perl", "maxeda"])
def ablation_b(name):
    # An optimizable site keeps a caller-saved scratch register alive
    # across the call: the Figure-1(c)/(d) precondition.
    scratch, killed, sites = RegisterSet(["t3", "t8"]).mask, {}, {}
    for label in ("on", "off"):
        config = AnalysisConfig(callee_saved_filtering=label == "on")
        run = AnalysisSession.from_program(program(name, ABLATION_SCALE), config).analyze()
        sizes = [len(RegisterSet.from_mask(s.call_killed_mask)) for s in run.result]
        killed[f"avg |call-killed| ({label})"] = sum(sizes) / max(1, len(sizes))
        sites[f"optimizable sites ({label})"] = sum(
            site.killed_mask & scratch != scratch for s in run.result for site in s.call_sites)
    return {"Benchmark": name, **killed, **sites}


@table("Ablation C", ["go", "perl"])
def ablation_c(name):
    target = program(name, ABLATION_SCALE, hinted=True)
    hinted, blind = (AnalysisSession.from_program(variant).optimize(verify=True)
                     for variant in (target, dataclasses.replace(target, call_target_hints={})))
    return {"Benchmark": name, "hinted sites": len(target.call_target_hints),
            "instr removed (hints)": hinted.instructions_removed,
            "instr removed (no hints)": blind.instructions_removed,
            "dyn improvement % (hints)": 100 * hinted.dynamic_improvement,
            "dyn improvement % (no hints)": 100 * blind.dynamic_improvement,
            "Behaviour preserved": hinted.behaviour_preserved() and blind.behaviour_preserved()}


def measure():
    tables = {title: [row(key) for key in keys] for title, (keys, row) in TABLES.items()}
    gc.unfreeze()  # what timed() froze
    return tables


def structural(rows):
    return [{key: cell for key, cell in row.items() if key != "seconds"} for row in rows]


def slope(points):
    """The least-squares exponent k of y = c·x^k."""
    xs, ys = zip(*((math.log(x), math.log(y)) for x, y in points))
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs)


def render(rows, host):
    """One EXPERIMENTS.md block: ``rows``, seconds last, as a markdown table."""
    flat = [{**cells, **row.get("seconds", {})} for cells, row in zip(structural(rows), rows)]
    text = format_markdown_table([key.replace("|", "\\|") for key in flat[0]], [
        [("yes" if cell else "no") if isinstance(cell, bool) else cell for cell in row.values()]
        for row in flat])
    seconds = list(rows[0].get("seconds", ()))
    return text + (f"\n\n{', '.join(seconds)}: advisory, measured on {host}." if seconds else "")


def _faster(slow, fast, factor, names):
    slow_name, fast_name = names.split()
    measured = f"{slow_name} {slow:.3f} s, {fast_name} {fast:.4f} s"
    assert slow > factor * fast, measured
    return f"{slow / fast:.1f}x ({measured})"


@claim("a warm daemon POST is >= 5x faster than a cold one")
def service_claim():  # three tenants of one daemon each POST the gcc image twice
    image = program_to_image(program("gcc")).to_bytes()
    daemon = AnalysisDaemon(ServiceConfig(port=0))
    thread = threading.Thread(target=daemon.serve_forever)
    thread.start()
    try:
        clients = [ServiceClient.tcp(*daemon.server.server_address[:2], tenant=t) for t in "abc"]
        runs = [[timed(lambda: client.analyze(image)) for _ in "12"] for client in clients]
    finally:
        daemon.drain()
        thread.join(timeout=60)
    for (cold, _), (warm, _) in runs:
        assert not cold.warm and warm.warm and warm.payload == cold.payload
    return _faster(min(r[0][1] for r in runs), min(r[1][1] for r in runs), 5, "cold warm")


@claim("store variant 4 is >= 2x faster than variant 1")
def store_claim():
    # The gcc stand-in and three copies, each with one uncalled routine edited.
    base, calls = program("gcc"), analysis("gcc").call_graph
    uncalled = [name for name in editable_routines(base) if not calls.callers_of(name)]
    family = [base] + [perturb_routine(base, name) for name in uncalled[-3:]]

    def cold(target, store):
        return AnalysisSession.from_program(
            target, AnalysisConfig(store=store)).analyze_incremental()

    with tempfile.TemporaryDirectory() as tmp:
        shared = SummaryStore(os.path.join(tmp, "shared"))
        metrics = [cold(target, shared) for target in family][-1].metrics
        assert metrics.phase1_solved <= 1 and metrics.phase2_store_hits >= base.routine_count - 1
        last = timed(lambda: cold(family[-1], shared), 3)[1]
        first = timed(lambda: cold(base, SummaryStore(tempfile.mkdtemp(dir=tmp))), 3)[1]
    return _faster(first, last, 2, "variant-1 variant-4")


@claim("a warm query is >= 5x faster than the whole-program solve")
def demand_claim():
    target, routine = program("gcc"), first_editable_routine(program("gcc"))
    whole_s = timed(lambda: AnalysisSession.from_program(target).analyze(), 3)[1]
    session = AnalysisSession.from_program(target)
    caches = iter([load_cache(blob) for blob in [dump_cache(session.query(routine).cache)] * 3])
    warm, warm_s = timed(lambda: session.query(routine, cache=next(caches)), 3)
    assert warm.metrics.phase1_solved == warm.metrics.phase2_solved == 0
    return _faster(whole_s, warm_s, 5, "whole warm")


@claim("a clean warm incremental run is faster than a cold one")
def incremental_claim():
    measured = []
    for name in ("compress", "li", "perl", "vortex"):
        run = lambda cache=None: AnalysisSession.from_program(  # noqa: E731
            program(name)).analyze_incremental(cache=cache)
        cold, cold_s = timed(run, 3)
        caches = iter([load_cache(dump_cache(cold.cache)) for _ in range(3)])
        warm, warm_s = timed(lambda: run(next(caches)), 3)
        assert warm.metrics.phase1_solved == warm.metrics.phase2_solved == 0
        measured.append(f"{name} {_faster(cold_s, warm_s, 1, 'cold warm')}")
    return "; ".join(measured)


@claim("the Figure-14 time slope lies in [0.8, 1.3]")
def figure14_claim():
    k = slope((analysis("gcc", scale).basic_block_count, min(
        analyze("gcc", scale).metrics.total_seconds for _ in range(3))) for scale in SWEEP)
    assert 0.8 <= k <= 1.3, f"k = {k:.2f}"
    return f"k = {k:.2f}"


@claim("on every Figure-13 row, phase 1 + phase 2 < CFG build + PSG build")
def figure13_claim():
    shares = {}
    for name in TABLES["Figure 13"][0]:
        runs = [analyze(name).metrics.seconds for _ in range(3)]
        stage = {key: min(run[key] for run in runs) for key in runs[0]}
        shares[name] = round((stage["phase1"] + stage["phase2"])
                             / (stage["cfg_build"] + stage["psg_build"]), 2)
    assert max(shares.values()) < 1, shares
    return f"(phase 1 + phase 2) / (CFG + PSG build): {shares}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the golden and assert the timed claims")
    check, tables = parser.parse_args(argv).check, measure()
    if not check:
        host = f"{os.cpu_count()} CPUs, {platform.machine()}, Python {platform.python_version()}"
        GOLDEN.write_text(json.dumps({"host": host, "tables": tables}, indent=1) + "\n")
        EXPERIMENTS.write_text(BLOCK.sub(
            lambda block: f"<!-- paper-tables: {block[1]} -->\n"
            f"{render(tables[block[1]], host)}\n<!-- /paper-tables -->",
            EXPERIMENTS.read_text(encoding="utf-8")), encoding="utf-8")
        print(f"wrote {GOLDEN} and {EXPERIMENTS}")
        return 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["tables"]
    failed = [f"{title}: structural columns differ from {GOLDEN.name}" for title in TABLES
              if structural(tables[title]) != structural(golden.get(title, []))]
    for text, check in CLAIMS.items():
        try:
            print(f"ok   {text}: {check()}")
        except AssertionError as error:
            failed.append(f"{text}: {error}")
    for line in failed:
        print(f"FAIL {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
