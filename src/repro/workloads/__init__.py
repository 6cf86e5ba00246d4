"""Benchmark workloads.

The paper evaluates on the SPECint95 suite and eight large commercial
PC applications.  Those binaries are unavailable (and unredistributable),
so this package provides the documented substitution:

* :mod:`repro.workloads.shapes` — per-benchmark *shape records*
  carrying the statistics the paper itself publishes (Tables 2-5:
  routines, blocks, instructions, calls/branches/exits per routine,
  and the paper's measured results for comparison);
* :mod:`repro.workloads.generator` — a deterministic synthetic program
  generator that produces executable images matching a shape: same
  routine count, call density, branchiness, multiway-branch usage,
  calling-convention discipline (frames, save/restore), plus the
  spill and callee-saved patterns the Figure-1 optimizations target.

Because every structural result in §4 is a function of these shape
statistics, generating to the published shape reproduces the
experiments' inputs as faithfully as possible without the original
binaries (see DESIGN.md).
"""

from repro.workloads.shapes import (
    ALL_SHAPES,
    PC_APP_SHAPES,
    SPEC95_SHAPES,
    BenchmarkShape,
    shape_by_name,
)
from repro.workloads.generator import (
    GeneratorConfig,
    generate_benchmark,
    generate_image,
    generate_program,
)

__all__ = [
    "ALL_SHAPES",
    "BenchmarkShape",
    "GeneratorConfig",
    "PC_APP_SHAPES",
    "SPEC95_SHAPES",
    "generate_benchmark",
    "generate_image",
    "generate_program",
    "shape_by_name",
]
