#!/usr/bin/env python3
"""Analyze a large application: the paper's headline scenario.

Spike's reason to exist is analyzing *large* PC applications — the
paper's acad has 1.7 million instructions in 340 thousand basic blocks
and still analyzes in 12 seconds.  This example generates a scaled
stand-in of a large application (sqlservr by default — the benchmark
with the most dramatic branch-node impact), runs the analysis, and
reports everything §4 reports:

* program size (routines / blocks / instructions);
* PSG size vs CFG size (the Table-5 compactness ratios);
* the branch-node ablation for this input (Table 4);
* per-stage timing (Figure 13) and modeled memory (Table 2);
* a comparison against the whole-program-CFG baseline, including the
  check that both engines compute identical summaries.

Run with:  python examples/analyze_large_app.py [benchmark] [scale]
e.g.       python examples/analyze_large_app.py acad 0.02
"""

import sys

from repro import AnalysisSession, analyze_program_baseline
from repro.cfg.build import build_all_cfgs
from repro.psg.build import PsgConfig, build_psg
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.shapes import shape_by_name


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "sqlservr"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.05
    shape = shape_by_name(name).scaled(scale)
    print(f"generating {name} at scale {scale}: {shape.routines} routines, "
          f"~{shape.instructions} instructions ...")
    program = generate_program(shape, GeneratorConfig(seed=0))

    print("analyzing (PSG, two-phase) ...")
    analysis = AnalysisSession.from_program(program).analyze()

    blocks = analysis.basic_block_count
    arcs = analysis.cfg_arc_count
    psg = analysis.psg
    print()
    print(f"routines:        {program.routine_count:>10,}")
    print(f"instructions:    {program.instruction_count:>10,}")
    print(f"basic blocks:    {blocks:>10,}")
    print(f"cfg arcs:        {arcs:>10,}")
    print(f"psg nodes:       {psg.node_count:>10,}   "
          f"({psg.node_count / blocks:.2f} per block; paper avg ~0.7)")
    print(f"psg edges:       {psg.edge_count:>10,}   "
          f"({psg.edge_count / arcs:.2f} per arc; paper avg ~0.6)")
    print(f"memory model:    {analysis.memory_bytes / 1e6:>10.2f} MB")
    print()

    print("stage breakdown (Figure 13):")
    seconds_of = analysis.metrics.seconds
    for stage, fraction in analysis.metrics.fractions().items():
        seconds = seconds_of[stage]
        bar = "#" * int(40 * fraction)
        print(f"  {stage:<16} {seconds:7.3f}s  {fraction:6.1%}  {bar}")
    print(f"  {'total':<16} {analysis.metrics.total_seconds:7.3f}s")
    print()

    # Branch-node ablation on this input (Table 4).
    cfgs = build_all_cfgs(program)
    without = build_psg(program, cfgs, config=PsgConfig(branch_nodes=False))
    reduction = 100.0 * (1 - psg.flow_edge_count / max(1, without.flow_edge_count))
    print(f"branch nodes: {psg.branch_node_count} inserted, "
          f"flow edges {without.flow_edge_count:,} -> {psg.flow_edge_count:,} "
          f"({reduction:.1f}% reduction; paper reports "
          f"{shape_by_name(name).paper_edge_reduction_pct}% for {name})")
    print()

    print("whole-program-CFG baseline for comparison ...")
    baseline = analyze_program_baseline(program)
    print(f"  baseline time:   {baseline.elapsed_seconds:7.3f}s "
          f"(PSG total {analysis.metrics.total_seconds:.3f}s, "
          f"phases only {seconds_of['phase1'] + seconds_of['phase2']:.3f}s)")
    print(f"  baseline memory: {baseline.memory_bytes / 1e6:7.2f} MB "
          f"(PSG {analysis.memory_bytes / 1e6:.2f} MB)")
    agree = analysis.result.equal_summaries(baseline.result)
    print(f"  summaries identical: {agree}")
    assert agree


if __name__ == "__main__":
    main()
