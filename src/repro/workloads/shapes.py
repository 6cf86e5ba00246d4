"""Benchmark shape records, transcribed from the paper's §4 tables.

Each :class:`BenchmarkShape` holds two kinds of data:

* **generator inputs** — the structural statistics of the benchmark
  (routines, blocks, instructions, per-routine call/branch/exit
  densities, multiway-branch pressure), which the synthetic generator
  reproduces;
* **paper-reported results** (``paper_*`` fields) — the measurements
  Tables 2-5 report for that benchmark on the 466 MHz Alpha 21164, so
  the benchmark harness can print paper-vs-measured side by side.

``paper_edge_reduction_pct`` (Table 4) doubles as a generator input: it
controls how much multiway-branch-with-calls-in-loop structure the
synthetic program contains, since that structure is exactly what branch
nodes exist to collapse (§3.6).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple


@dataclass(frozen=True)
class BenchmarkShape:
    """Shape statistics and paper-reported results for one benchmark."""

    name: str
    suite: str
    description: str
    # --- generator inputs (Table 2 & 3 structure) ----------------------
    routines: int
    basic_blocks: int
    instructions: int
    exits_per_routine: float
    calls_per_routine: float
    branches_per_routine: float
    # --- paper-reported results (Tables 2-5) ---------------------------
    paper_time_seconds: float
    paper_memory_mbytes: float
    paper_psg_nodes_per_routine: float
    paper_psg_edges_per_routine: float
    paper_edge_reduction_pct: float
    paper_node_increase_pct: float
    paper_psg_nodes_k: float
    paper_psg_edges_k: float
    paper_cfg_arcs_k: float
    paper_nodes_per_block: float
    paper_edges_per_arc: float

    @property
    def blocks_per_routine(self) -> float:
        return self.basic_blocks / self.routines

    @property
    def instructions_per_block(self) -> float:
        return self.instructions / self.basic_blocks

    def scaled(self, fraction: float) -> "BenchmarkShape":
        """A proportionally smaller shape (at least 4 routines):
        ``fraction`` is in (0, 1].

        Scales the routine count while keeping every per-routine
        statistic, so per-routine tables are unaffected and whole-program
        tables scale linearly — exactly the regime Figures 14/15 probe.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], not {fraction}")
        routines = max(4, round(self.routines * fraction))
        actual = routines / self.routines
        return replace(
            self,
            routines=routines,
            basic_blocks=max(routines, round(self.basic_blocks * actual)),
            instructions=max(routines * 2, round(self.instructions * actual)),
        )


def _spec(name, description, routines, blocks, instr_k, exits, calls,
          branches, time_s, mem_mb, psg_n, psg_e, red, inc,
          nodes_k, edges_k, arcs_k, npb, epa) -> BenchmarkShape:
    return BenchmarkShape(
        name=name,
        suite="SPECint95",
        description=description,
        routines=routines,
        basic_blocks=blocks,
        instructions=round(instr_k * 1000),
        exits_per_routine=exits,
        calls_per_routine=calls,
        branches_per_routine=branches,
        paper_time_seconds=time_s,
        paper_memory_mbytes=mem_mb,
        paper_psg_nodes_per_routine=psg_n,
        paper_psg_edges_per_routine=psg_e,
        paper_edge_reduction_pct=red,
        paper_node_increase_pct=inc,
        paper_psg_nodes_k=nodes_k,
        paper_psg_edges_k=edges_k,
        paper_cfg_arcs_k=arcs_k,
        paper_nodes_per_block=npb,
        paper_edges_per_arc=epa,
    )


def _pc(name, description, routines, blocks, instr_k, exits, calls,
        branches, time_s, mem_mb, psg_n, psg_e, red, inc,
        nodes_k, edges_k, arcs_k, npb, epa) -> BenchmarkShape:
    shape = _spec(name, description, routines, blocks, instr_k, exits,
                  calls, branches, time_s, mem_mb, psg_n, psg_e, red, inc,
                  nodes_k, edges_k, arcs_k, npb, epa)
    return replace(shape, suite="PC Applications")


#: The SPEC95 integer benchmarks (Tables 2-5 of the paper).
SPEC95_SHAPES: Tuple[BenchmarkShape, ...] = (
    _spec("compress", "file compression", 122, 2546, 13.5, 1.81, 3.30,
          13.75, 0.05, 0.20, 9.47, 17.19, 35.4, 0.4, 1.16, 2.10, 4.20, 0.45, 0.50),
    _spec("gcc", "C compiler", 1878, 69588, 297.6, 1.62, 9.86,
          23.16, 1.90, 6.38, 22.45, 43.65, 48.5, 0.5, 42.16, 81.97, 125.91, 0.61, 0.65),
    _spec("go", "game player", 462, 12548, 71.4, 1.71, 4.92,
          17.99, 0.28, 0.88, 12.58, 22.03, 12.2, 0.2, 5.81, 10.18, 21.95, 0.46, 0.46),
    _spec("ijpeg", "image compression", 393, 6814, 42.8, 1.49, 3.92,
          10.55, 0.16, 0.56, 10.38, 16.16, 17.1, 0.2, 4.08, 6.35, 11.39, 0.60, 0.56),
    _spec("li", "lisp interpreter", 491, 6052, 29.4, 1.37, 3.49,
          7.18, 0.14, 0.56, 9.41, 10.72, 1.3, 0.4, 4.62, 5.27, 10.74, 0.76, 0.49),
    _spec("m88ksim", "CPU simulator", 383, 8205, 40.6, 1.75, 4.66,
          13.47, 0.16, 0.58, 12.14, 16.39, 1.2, 0.5, 4.65, 6.28, 14.02, 0.57, 0.45),
    _spec("perl", "perl interpreter", 487, 19468, 92.7, 1.47, 9.34,
          25.55, 0.42, 1.57, 21.27, 40.73, 73.6, 0.5, 10.36, 19.84, 33.72, 0.53, 0.59),
    _spec("vortex", "object database", 818, 21880, 110.0, 1.20, 8.97,
          15.00, 0.59, 2.85, 20.19, 50.11, 4.7, 0.2, 16.51, 40.99, 39.95, 0.75, 1.03),
)

#: The eight large PC applications (Table 1 + Tables 2-5).
PC_APP_SHAPES: Tuple[BenchmarkShape, ...] = (
    _pc("acad", "Autodesk AutoCad (mechanical CAD)", 31766, 339962, 1734.7,
        1.14, 5.02, 4.58, 12.04, 41.11, 12.18, 14.36, 1.8, 0.2,
        386.80, 456.07, 612.11, 1.14, 0.75),
    _pc("excel", "Microsoft Excel 5.0 (spreadsheet)", 12657, 301823, 1506.3,
        1.00, 8.42, 12.98, 8.95, 28.04, 18.88, 26.66, 4.1, 0.4,
        238.91, 337.48, 544.41, 0.80, 0.62),
    _pc("maxeda", "OrCad MaxEDA 6.0 (electronic CAD)", 2126, 84053, 418.6,
        1.12, 15.45, 20.25, 2.02, 8.14, 32.96, 46.33, 0.9, 0.3,
        70.08, 98.50, 151.55, 0.83, 0.65),
    _pc("sqlservr", "Microsoft Sqlservr 6.5 (database)", 3275, 123607, 754.9,
        1.30, 10.48, 22.60, 3.34, 10.17, 23.31, 38.94, 80.0, 0.2,
        76.33, 127.54, 211.74, 0.62, 0.60),
    _pc("texim", "Welcom Software Texim 2.0 (project manager)", 1821, 50955,
        302.0, 1.29, 11.24, 13.90, 1.34, 5.36, 24.91, 34.47, 3.6, 0.6,
        45.36, 62.77, 90.79, 0.89, 0.69),
    _pc("ustation", "Bentley Systems Microstation (mechanical CAD)", 12101,
        165929, 916.4, 1.35, 5.03, 6.86, 5.21, 16.61, 12.42, 15.76, 2.1, 0.2,
        150.27, 190.76, 294.47, 0.91, 0.65),
    _pc("vc", "Microsoft Visual C (compiler backend)", 2154, 82072, 493.7,
        1.10, 9.11, 24.47, 2.18, 6.18, 20.51, 36.58, 55.4, 0.8,
        44.17, 78.80, 146.34, 0.54, 0.54),
    _pc("winword", "Microsoft Word 6.0 (word processing)", 12252, 288799,
        1520.8, 1.01, 8.10, 13.02, 8.30, 25.42, 18.25, 24.64, 0.3, 0.3,
        223.56, 301.84, 508.20, 0.77, 0.59),
)

#: Every benchmark, SPEC first (the row order of Table 2).
ALL_SHAPES: Tuple[BenchmarkShape, ...] = SPEC95_SHAPES + PC_APP_SHAPES

_BY_NAME: Dict[str, BenchmarkShape] = {shape.name: shape for shape in ALL_SHAPES}


def shape_by_name(name: str) -> BenchmarkShape:
    """Look a benchmark shape up by its Table-2 name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {sorted(_BY_NAME)}"
        ) from None
