"""Separate compilation at fleet scale: the cross-image summary store.

A build farm rarely analyzes one image in isolation — it analyzes a
*family* of linked variants: N applications against one shared library,
or successive builds where only the app changed.  The per-image SUM5
sidecar cannot help across images, but the store
(:mod:`repro.interproc.store`), a directory of the same packs, serves
any image's component whose recorded inputs equal its own, so
byte-identical library routines are solved once for the whole family.

This bench builds a gcc-shaped family with the real toolchain path
(:mod:`repro.program.linker`): one shared ``mathlib`` object module
sized from the paper's gcc shape, linked against K per-variant ``app``
modules that differ only in their own code.  Every variant is solved
cold, twice — without a store and against one shared store directory —
and the table shows the per-variant cold cost amortizing toward the
incremental floor (CFG build + fingerprinting) as the store warms.

Assertions: summaries are byte-identical with the store enabled,
disabled, and deliberately poisoned, cold and warm-incremental —
always.  The headline ≥2x on variant K vs variant 1 is
asserted under ``REPRO_BENCH_REQUIRE_SPEEDUP=1`` (the speedup is
algorithmic, not multicore, but the gate keeps noisy single-run CI
hosts from flaking the default run).
"""

import os
import random
import shutil
import time

import pytest

from benchmarks.conftest import SPEC_SCALE, record
from repro.api import AnalysisConfig, AnalysisSession
from repro.interproc import dump_cache, dump_summaries, load_cache
from repro.interproc.store import SummaryStore
from repro.program.disasm import disassemble_image
from repro.program.linker import ObjectModule, link_modules
from repro.workloads.shapes import shape_by_name

REQUIRE_SPEEDUP = os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP") == "1"

#: Linked variants in the family (variant 1 warms the store cold).
VARIANTS = 4

HEADERS = (
    "Variant",
    "Routines",
    "No store (s)",
    "With store (s)",
    "P1 hits",
    "P2 hits",
    "Solved",
    "Speedup vs v1",
)

_SCRATCH = ("t0", "t1", "t2", "t3", "t4", "t5", "a1", "a2")


def _emit_body(module, name, rng, filler, callees):
    """One library/app routine: prologue, looped and branched ALU
    filler, calls to already-emitted routines, epilogue."""
    module.routine(name)
    module.memory("lda", "sp", -16, "sp")
    module.memory("stq", "ra", 0, "sp")
    module.li("t0", rng.randrange(1, 1 << 15))
    for index in range(filler):
        dst = _SCRATCH[rng.randrange(len(_SCRATCH))]
        src = _SCRATCH[rng.randrange(len(_SCRATCH))]
        opcode = ("addq", "subq", "mulq", "bis")[index % 4]
        module.op(opcode, src, rng.randrange(1, 200), dst)
    # A short loop and a diamond give the routine real CFG structure
    # (straight-line code would undersell the PSG/solve stages).
    module.li("t6", 3)
    module.label(f"{name}_loop")
    module.op("subq", "t6", 1, "t6")
    module.op("addq", "t0", "t6", "t0")
    module.branch("bne", "t6", f"{name}_loop")
    module.branch("beq", "t0", f"{name}_zero")
    module.op("addq", "t0", 1, "v0")
    module.br(f"{name}_join")
    module.label(f"{name}_zero")
    module.op("bis", "zero", "t0", "v0")
    module.label(f"{name}_join")
    for callee in callees:
        module.op("bis", "zero", "v0", "a0")
        module.bsr(callee)
    module.op("addq", "v0", 1, "v0")
    module.memory("ldq", "ra", 0, "sp")
    module.memory("lda", "sp", 16, "sp")
    module.ret()


def _build_mathlib(shape):
    """The shared library module, sized from the gcc shape: all but a
    handful of the shape's routines, with the shape's call density."""
    rng = random.Random(0xC0FFEE)
    count = max(8, shape.routines - 4)
    filler = max(4, shape.instructions // shape.routines - 18)
    calls = max(1, min(7, round(shape.calls_per_routine / 1.5)))
    lib = ObjectModule("mathlib")
    names = [f"lib_{index:04d}" for index in range(count)]
    for index, name in enumerate(names):
        callees = (
            rng.sample(names[:index], min(index, calls)) if index else []
        )
        _emit_body(lib, name, rng, filler, callees)
    return lib, names


def _build_app(version, library_names):
    """One per-variant application module; only this module's code
    differs across the family."""
    rng = random.Random(0xA00 + version)
    app = ObjectModule("app")
    roots = library_names[-6:]
    for name in roots:
        app.extern(name)
    app.routine("main", exported=True)
    app.memory("lda", "sp", -16, "sp")
    app.memory("stq", "ra", 0, "sp")
    app.li("a0", 40 + version)  # the per-variant edit
    for index in range(8 + version):
        dst = _SCRATCH[(index + version) % len(_SCRATCH)]
        app.op("addq", "a0", rng.randrange(1, 99), dst)
    for name in roots:
        app.bsr(name)
    app.op("addq", "v0", version, "a0")
    app.output()
    app.memory("ldq", "ra", 0, "sp")
    app.memory("lda", "sp", 16, "sp")
    app.halt()
    return app


def _family():
    shape = shape_by_name("gcc").scaled(SPEC_SCALE)
    lib, names = _build_mathlib(shape)
    programs = []
    for version in range(1, VARIANTS + 1):
        image = link_modules(
            [_build_app(version, names), lib], entry="main"
        )
        programs.append(disassemble_image(image))
    return programs


def _cold(program, config):
    """A timed cold solve through the incremental engine (the path
    that consults the store)."""
    import gc

    session = AnalysisSession.from_program(program, config)
    # The retained per-variant results grow the heap; collect before
    # and pause the collector during the timed region so a
    # generational sweep cannot land inside one variant's solve and
    # skew the family curve.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        analysis = session.analyze_incremental()
        return analysis, time.perf_counter() - start
    finally:
        gc.enable()


def _poison(root):
    poisoned = 0
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in filenames:
            with open(os.path.join(dirpath, filename), "r+b") as handle:
                handle.truncate(7)
            poisoned += 1
    return poisoned


def test_store_amortizes_linked_variants(benchmark, tmp_path):
    programs = _family()
    root = str(tmp_path / "store")

    def measure():
        rows = []
        for version, program in enumerate(programs, start=1):
            baseline, base_seconds = _cold(
                program, AnalysisConfig(store="off")
            )
            stored, store_seconds = _cold(
                program, AnalysisConfig(store=SummaryStore(root))
            )
            # Byte-identity with the store enabled vs disabled, always.
            assert dump_summaries(stored.result) == dump_summaries(
                baseline.result
            ), stored.result.diff(baseline.result)
            rows.append(
                (version, program, baseline, base_seconds, stored,
                 store_seconds)
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    first_seconds = rows[0][5]
    last = rows[-1]
    for version, program, baseline, base_seconds, stored, store_seconds in rows:
        metrics = stored.metrics
        record(
            "Summary store: linked-variant family (gcc-shaped)",
            HEADERS,
            (
                f"v{version}",
                program.routine_count,
                round(base_seconds, 3),
                round(store_seconds, 3),
                metrics.phase1_store_hits,
                metrics.phase2_store_hits,
                metrics.phase1_solved,
                round(first_seconds / max(store_seconds, 1e-9), 2),
            ),
            note=(
                "One shared store directory; variant 1 publishes, later "
                "variants re-solve only their own app module.  Set "
                "REPRO_BENCH_REQUIRE_SPEEDUP=1 to assert >=2x on "
                f"variant {VARIANTS} vs variant 1."
            ),
        )

    # Later variants are store-served for the whole shared library.
    library_routines = rows[0][1].routine_count - 1
    for version, program, _baseline, _bs, stored, _ss in rows[1:]:
        assert stored.metrics.phase1_store_hits >= library_routines
        assert stored.metrics.phase2_store_hits >= library_routines
        assert stored.metrics.phase1_solved <= 1

    last_seconds = last[5]
    if REQUIRE_SPEEDUP:
        if first_seconds / max(last_seconds, 1e-9) < 2.0:
            # One retry absorbs a scheduler blip: the store is already
            # warm, so this is the same cold store-served solve.
            _, retry_seconds = _cold(
                last[1], AnalysisConfig(store=SummaryStore(root))
            )
            last_seconds = min(last_seconds, retry_seconds)
        speedup = first_seconds / max(last_seconds, 1e-9)
        assert speedup >= 2.0, (
            f"expected >=2x on variant {VARIANTS} vs variant 1 with a "
            f"warm store, measured {speedup:.2f}x "
            f"({first_seconds:.3f}s -> {last_seconds:.3f}s)"
        )


def test_store_byte_identity_poisoned_and_warm(tmp_path):
    programs = _family()
    program = programs[0]
    root = str(tmp_path / "store")
    store_config = AnalysisConfig(store=SummaryStore(root))
    off_config = AnalysisConfig(store="off")

    baseline = AnalysisSession.from_program(
        program, off_config
    ).analyze_incremental()
    expected = dump_summaries(baseline.result)

    # Cold publish, then a poisoned store must be a clean full miss.
    AnalysisSession.from_program(program, store_config).analyze_incremental()
    assert _poison(root) > 0
    poisoned = AnalysisSession.from_program(
        program, store_config
    ).analyze_incremental()
    assert poisoned.metrics.phase1_store_hits == 0
    assert dump_summaries(poisoned.result) == expected

    # Warm --incremental (SUM5 round-trip) with the store on.
    shutil.rmtree(root)
    cold = AnalysisSession.from_program(
        program, store_config
    ).analyze_incremental()
    warm = AnalysisSession.from_program(
        program, store_config
    ).analyze_incremental(cache=load_cache(dump_cache(cold.cache)))
    assert dump_summaries(warm.result) == expected
