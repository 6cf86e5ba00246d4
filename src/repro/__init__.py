"""repro — Interprocedural Dataflow Analysis in an Executable Optimizer.

A from-scratch reproduction of David W. Goodwin's PLDI 1997 paper
describing Spike, Digital's post-link-time optimizer for Alpha/NT
executables.  The package implements:

* an Alpha-like ISA whose instructions are 32-bit words — one field
  table encodes, decodes and edits them, and code decodes to rows —
  and an executable image format with an assembler and a linker that
  emit words (:mod:`repro.isa`, :mod:`repro.program`);
* per-routine CFG construction with jump-table extraction and a call
  graph (:mod:`repro.cfg`);
* the **Program Summary Graph** and its flow-summary-edge labeling
  (:mod:`repro.psg`, :mod:`repro.dataflow`);
* the **two-phase interprocedural dataflow** computing call-used /
  call-defined / call-killed and live-at-entry / live-at-exit
  (:mod:`repro.interproc`), plus the whole-program-CFG baseline;
* the summary-driven **optimizations** of the paper's Figure 1 with a
  relocating binary rewriter (:mod:`repro.opt`,
  :mod:`repro.program.rewrite`);
* an **interpreter** used as correctness oracle and performance meter
  (:mod:`repro.sim`);
* synthetic **workloads** shaped like the paper's benchmarks
  (:mod:`repro.workloads`) and reporting helpers (:mod:`repro.reporting`).

Quickstart::

    from repro import AnalysisSession, assemble

    image = assemble('''
    .routine main export
        li   a0, 41
        bsr  ra, inc
        bis  zero, v0, a0
        output
        halt
    .routine inc
        addq a0, #1, v0
        ret  (ra)
    ''')
    session = AnalysisSession.from_image(image)
    analysis = session.analyze()
    print(session.summary("inc").call_used)         # {a0, ra}
    print(session.summary("inc").call_defined)      # {v0}
"""

from repro.api import AnalysisError, AnalysisSession
from repro.dataflow.regset import EMPTY_SET, UNIVERSE, RegisterSet
from repro.interproc.analysis import AnalysisConfig, InterproceduralAnalysis
from repro.interproc.baseline import analyze_program_baseline
from repro.interproc.summaries import (
    SummarySet,
    CallSiteSummary,
    RoutineSummary,
)
from repro.isa.calling_convention import NT_ALPHA, CallingConvention
from repro.isa.instructions import Opcode
from repro.isa.registers import Register
from repro.opt.pipeline import OptimizationResult
from repro.program.asm import Assembler, assemble
from repro.program.disasm import disassemble_image, load_program, render_listing
from repro.program.image import ExecutableImage
from repro.program.model import Program, Routine
from repro.program.rewrite import apply_edits, program_to_image
from repro.psg.build import PsgConfig, build_psg
from repro.psg.graph import ProgramSummaryGraph
from repro.sim.interpreter import ExecutionResult, run_program
from repro.workloads.generator import GeneratorConfig, generate_benchmark
from repro.workloads.shapes import ALL_SHAPES, BenchmarkShape, shape_by_name

__version__ = "1.0.0"

__all__ = [
    "ALL_SHAPES",
    "AnalysisConfig",
    "AnalysisError",
    "SummarySet",
    "AnalysisSession",
    "Assembler",
    "BenchmarkShape",
    "CallSiteSummary",
    "CallingConvention",
    "EMPTY_SET",
    "ExecutableImage",
    "ExecutionResult",
    "InterproceduralAnalysis",
    "NT_ALPHA",
    "Opcode",
    "OptimizationResult",
    "Program",
    "ProgramSummaryGraph",
    "PsgConfig",
    "Register",
    "RegisterSet",
    "Routine",
    "RoutineSummary",
    "UNIVERSE",
    "analyze_program_baseline",
    "apply_edits",
    "assemble",
    "build_psg",
    "disassemble_image",
    "generate_benchmark",
    "load_program",
    "program_to_image",
    "render_listing",
    "run_program",
    "shape_by_name",
    "__version__",
]
