#!/usr/bin/env python3
"""Separate compilation, linking, and why post-link optimization exists.

The paper's Figure 1 insists that "because the calling procedure and
the called procedure may be in separately compiled modules, these
optimizations are not available to a typical compiler."  This example
makes that story concrete:

1. Build two modules independently.  ``app`` spills ``t5`` around an
   external call because, at compile time, it must assume the callee
   kills every caller-saved register.  ``mathlib`` holds a value in
   callee-saved ``s0`` across a call for the symmetric reason.
2. Link them (``repro.program.linker``) into one executable image —
   this is the artifact Spike sees.
3. Run the interprocedural analysis on the *whole* program: the facts
   that were unknowable per-module now exist (the callee kills almost
   nothing).
4. Run the optimizer and watch the compile-time pessimism disappear,
   with behaviour verified by execution.
5. Link a *second* variant of the app against the byte-identical
   mathlib and analyze it through a shared summary store
   (:mod:`repro.interproc.store`): the library routines are never
   re-solved — their summaries are stored with the inputs they were
   solved from (own code, callees' results), so any image that links
   the same library bytes reuses them — and their
   CFGs are never rebuilt: the store also holds each routine body's
   front-end record (where its calls sit), keyed by its bytes.

Run with:  python examples/separate_compilation.py
"""

import tempfile

from repro import AnalysisSession, disassemble_image
from repro.api import AnalysisConfig
from repro.interproc.store import SummaryStore
from repro.program.linker import ObjectModule, link_modules


def build_app(version: int = 1) -> ObjectModule:
    app = ObjectModule("app")
    app.extern("scale")
    app.routine("main", exported=True)
    app.memory("lda", "sp", -32, "sp")
    app.memory("stq", "ra", 0, "sp")
    app.li("t5", 100 * version)
    # Compile-time pessimism: 'scale' lives in another module, so the
    # compiler spilled t5 around the call.
    app.memory("stq", "t5", 16, "sp")
    app.li("a0", 3 + version)
    app.bsr("scale")
    app.memory("ldq", "t5", 16, "sp")
    app.op("addq", "t5", "v0", "a0")
    app.output()
    app.memory("ldq", "ra", 0, "sp")
    app.memory("lda", "sp", 32, "sp")
    app.li("v0", 0)
    app.halt()
    return app


def build_mathlib() -> ObjectModule:
    lib = ObjectModule("mathlib")
    lib.extern("offset")  # calls back into another module
    lib.routine("scale")
    lib.memory("lda", "sp", -16, "sp")
    lib.memory("stq", "ra", 0, "sp")
    lib.memory("stq", "s0", 8, "sp")
    # Same pessimism on the library side: the value must survive the
    # external call, so the compiler parked it in callee-saved s0.
    lib.op("mulq", "a0", 3, "s0")
    lib.op("bis", "zero", "s0", "a0")
    lib.bsr("offset")
    lib.op("addq", "s0", "v0", "v0")
    lib.memory("ldq", "s0", 8, "sp")
    lib.memory("ldq", "ra", 0, "sp")
    lib.memory("lda", "sp", 16, "sp")
    lib.ret()
    return lib


def build_util() -> ObjectModule:
    util = ObjectModule("util")
    util.routine("offset")
    util.op("addq", "a0", 7, "v0")  # touches only a0/v0
    util.ret()
    return util


def main() -> None:
    image = link_modules([build_app(), build_mathlib(), build_util()],
                         entry="main")
    program = disassemble_image(image)
    print(f"linked image: {program.routine_count} routines from 3 modules, "
          f"{program.instruction_count} instructions")
    print()

    analysis = AnalysisSession.from_program(program).analyze()
    scale_site = analysis.summary("main").call_sites[0]
    offset_site = analysis.summary("scale").call_sites[0]
    print("facts that did not exist before linking:")
    print(f"  call to scale  kills only {scale_site.killed!r}")
    print(f"  call to offset kills only {offset_site.killed!r}")
    print()

    result = AnalysisSession.from_program(program).optimize(verify=True)
    print("optimizer reports:")
    for report in result.reports:
        print(f"  {report.name:<10} deleted {report.instructions_deleted:>2}  "
              f"rewritten {report.instructions_rewritten:>2}")
    before = result.baseline_run
    after = result.optimized_run
    print()
    print(f"outputs unchanged: {before.outputs} -> {after.outputs}")
    print(f"static:  {result.original.instruction_count} -> "
          f"{result.optimized.instruction_count} instructions")
    print(f"dynamic: {before.steps} -> {after.steps} "
          f"({result.dynamic_improvement:.0%} fewer executed)")
    assert result.behaviour_preserved()
    # The t5 spill is gone — and so is main's ra save/restore (main
    # ends in halt, so ra is dead after its only call).
    # A row is (control, use mask, def mask, displacement, opcode, ...).
    main_ops = [row[4].mnemonic for row in result.optimized.routine("main").rows]
    assert main_ops.count("stq") + main_ops.count("ldq") == 0
    from repro.isa.registers import Register

    s0 = 1 << Register.parse("s0").index
    for row in result.optimized.routine("scale").rows:
        assert not (row[1] | row[2]) & s0
    print()
    print("cross-module spill and save/restore eliminated — the paper's "
          "Figure 1, via a real link step.")

    # ------------------------------------------------------------------
    # Separate compilation at scale: a second linked variant
    # ------------------------------------------------------------------
    print()
    print("now link a second app variant against the same mathlib:")
    with tempfile.TemporaryDirectory() as store_dir:
        store = SummaryStore(store_dir)
        for version in (1, 2):
            image = link_modules(
                [build_app(version), build_mathlib(), build_util()],
                entry="main",
            )
            variant = disassemble_image(image)
            session = AnalysisSession.from_program(
                variant, AnalysisConfig(store=store)
            )
            analysis = session.analyze_incremental()
            metrics = analysis.metrics
            print(f"  variant {version}: "
                  f"solved {metrics.phase1_solved} routines, "
                  f"built {metrics.cfgs_built} CFGs, "
                  f"store hits phase1={metrics.phase1_store_hits} "
                  f"phase2={metrics.phase2_store_hits}")
        stats = store.stats()
        print(f"  store: {stats['packs']} packs holding "
              f"{stats['triples']} triples, "
              f"{stats['summaries']} summaries, "
              f"{stats['frontend']} front-end records, "
              f"{stats['bytes']} bytes")
        assert metrics.phase1_store_hits == 2  # scale and offset reused
        assert metrics.phase1_solved == 1      # only the edited app
        assert metrics.cfgs_built == 1         # ... and only its CFG
        assert stats["packs"] == 2             # one per publishing run
    print("the shared library was analyzed once for the whole family — "
          "summaries are reused wherever the inputs they were solved "
          "from recur, whatever the image.")


if __name__ == "__main__":
    main()
