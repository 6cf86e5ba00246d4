"""Seeded input generation and the independent output oracle.

Runs in the **generator child** (``run.py`` spawns it once per run):
builds one workload's image blobs from ``--seed``, writes them and a
``manifest.json`` into the run's scratch directory, and records the
digest every measured op must reproduce.

What the seed draws.  Program *size* is pinned — the gcc-shaped
program is always generated from the same shape at the same scale, and
the call-mesh and the family library always have the same call
structure — because re-rolling the size per seed would put the
generator's size lottery (a few percent of every time metric) inside
the regression bounds.  The seed draws the *traffic*: which routines
carry the byte-level perturbations that make each seed's images (and
summaries) distinct, which routines the edit trace rewrites, which
routines are queried, and the constants of the mesh and the family.

Expected outputs never come from the path under test.  For a pinned
seed (``expected.json``, seed 0) they are the committed digests, and a
generated image whose digest drifted from its pin is a hard error — a
changed generator, assembler or linker is a changed benchmark.  For
any other seed they come from
:func:`repro.interproc.baseline.analyze_program_baseline`, the
whole-program-CFG oracle that shares no solver code with the PSG
analysis.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from repro.cfg.build import build_all_cfgs
from repro.cfg.callgraph import build_call_graph
from repro.interproc.baseline import analyze_program_baseline
from repro.interproc.persist import crc64, dump_summaries
from repro.interproc.summaries import SummarySet
from repro.program.disasm import disassemble_image
from repro.program.linker import ObjectModule, link_modules
from repro.program.rewrite import program_to_image
from repro.workloads.generator import GeneratorConfig, generate_image
from repro.workloads.mutate import editable_routines, perturb_routine
from repro.workloads.shapes import shape_by_name

import workloads as W

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

_SCRATCH = ("t0", "t1", "t2", "t4", "t5", "t6", "a1", "a2")


class InputDrift(RuntimeError):
    """A generated image no longer matches its pinned digest."""


def digest(data: bytes) -> str:
    return format(crc64(data), "016x")


def stratified(rng, items, count):
    """``count`` picks, one from each of ``count`` equal contiguous
    strata of ``items``: every seed's draw covers the whole list
    instead of, say, six neighbours."""
    picks = []
    for index in range(count):
        low = index * len(items) // count
        high = max(low + 1, (index + 1) * len(items) // count)
        picks.append(items[rng.randrange(low, high)])
    return picks


def caller_cone_sizes(program):
    """``{routine: how many routines transitively call it (itself
    included)}`` — the size of the cone a change to it can reach."""
    cfgs = build_all_cfgs(program)
    condensation = build_call_graph(program, cfgs).condensation()
    size = {}
    for routine in program.routines:
        root = condensation.component_index(routine.name)
        size[routine.name] = len(condensation.routines_of(
            condensation.transitive_caller_components({root})
        ))
    return size


def by_caller_cone(program):
    """Routine names (the entry routine excluded) ordered by the size
    of their caller cone — the cone a demand query's phase 2 must
    cover."""
    size = caller_cone_sizes(program)
    return sorted(
        (name for name in size if name != program.entry),
        key=lambda name: (size[name], name),
    )


class Oracle:
    """``analyze_program_baseline`` — the whole-program-CFG analysis
    that shares no solver code with the PSG analysis — solved once per
    program object."""

    def __init__(self):
        self._solved = {}

    def result(self, program):
        if id(program) not in self._solved:
            # The program is kept so that its id stays its own.
            self._solved[id(program)] = (
                program, analyze_program_baseline(program).result
            )
        return self._solved[id(program)][1]


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------


def base_program(scale=W.GCC_SCALE):
    """The gcc-shaped program every seed starts from: always the same
    shape, scale and generator seed."""
    shape = shape_by_name(W.GCC_SHAPE).scaled(scale)
    return disassemble_image(generate_image(shape, GeneratorConfig(seed=0)))


def gcc_program(rng, scale=W.GCC_SCALE, perturbations=W.PERTURBATIONS):
    """The pinned gcc-shaped program with seeded perturbations."""
    program = base_program(scale)
    for name in stratified(rng, editable_routines(program), perturbations):
        program = perturb_routine(program, name)
    return program


def edit_trace(rng, program, oracle):
    """``edit-replay``'s trace: ``[(routine, program after the edit)]``.

    How far an edit travels is a lottery.  ``perturb_routine`` makes
    one instruction read another register; when no caller has that
    register live yet the fact climbs the whole caller cone, otherwise
    it stops at once — so on most seeds four random edits in five
    change no summary at all and one in eight changes seventy, on some
    seeds nearly every edit changes its whole cone, and ten seeds'
    ``op_s`` spread 8 % on the draw alone.  So the trace has a fixed
    profile, ``E - 1`` *local* edits and one *wide* one at a seeded
    position, and the seed only chooses which routines.

    An edit's class is the number of routines whose summaries the
    oracle says it changes (``W.EDIT_CLASSES``).  Candidates are tried
    in seeded order until one lands in the class wanted (the nearest
    miss after ``W.EDIT_TRIES``).  Local candidates are routines almost
    nobody calls, which cannot travel.  Wide candidates alternate
    between the two kinds of routine that produce wide edits: mid-cone
    routines (the whole cone changes, when the register is new to it)
    and deep leaves (about half the cone changes, when it is not).
    """
    cone = caller_cone_sizes(program)

    def shuffled(low, high):
        names = [n for n in editable_routines(program) if low <= cone[n] <= high]
        return rng.sample(names, len(names))

    wide_low, wide_high = W.EDIT_CLASSES["wide"]
    candidates = {
        "local": iter(shuffled(1, W.LOCAL_CONE)),
        "wide": (
            name for pair in zip(shuffled(wide_low, wide_high),
                                 shuffled(W.DEEP_CONE, len(cone)))
            for name in pair
        ),
    }
    classes = ["wide"] + ["local"] * (W.E - 1)
    rng.shuffle(classes)
    trace = []
    for wanted in classes:
        low, high = W.EDIT_CLASSES[wanted]
        before = oracle.result(program).summaries
        tried = []
        for name, _ in zip(candidates[wanted], range(W.EDIT_TRIES)):
            edited = perturb_routine(program, name)
            after = oracle.result(edited).summaries
            changed = sum(after[r] != before[r] for r in after)
            tried.append((max(low - changed, changed - high, 0), name, edited))
            if tried[-1][0] == 0:
                break
        _miss, name, program = min(tried, key=lambda t: t[0])
        trace.append((name, program))
    return trace


def _emit_routine(module, name, rng, filler, callees, entry=False):
    """Prologue, ALU filler, a short loop and a diamond (skipped when
    there is no filler: the mesh wants call structure, not CFG
    structure), the calls, epilogue."""
    module.routine(name, exported=entry)
    module.memory("lda", "sp", -16, "sp")
    module.memory("stq", "ra", 0, "sp")
    module.li("t0", rng.randrange(1, 1 << 15))
    for index in range(filler):
        module.op(
            ("addq", "subq", "xor", "and")[index % 4],
            _SCRATCH[index % len(_SCRATCH)],
            rng.randrange(1, 200),
            _SCRATCH[(index * 3 + 1) % len(_SCRATCH)],
        )
    if filler:
        module.li("t7", 3)
        module.label(f"{name}_loop")
        module.op("subq", "t7", 1, "t7")
        module.op("addq", "t0", "t7", "t0")
        module.branch("bne", "t7", f"{name}_loop")
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
    if entry:
        module.halt()
    else:
        module.ret()


def mesh_image(rng, routines=W.MESH_ROUTINES, ring=W.MESH_RING):
    """The call-mesh: tiny routines, ``MESH_CALLS`` calls each, and
    mutual-recursion rings of ``MESH_RING`` routines (large SCCs).

    Besides its ring successor a routine calls into its own ring and
    later ones only, so the rings stay separate SCCs and the first
    ring reaches all of them.  The call structure comes from a fixed
    stream; only the constants come from the seed.
    """
    structure = random.Random(0x3E5)
    names = [f"m{index:04d}" for index in range(routines)]
    module = ObjectModule("mesh")
    for index, name in enumerate(names):
        base = index - index % ring
        successor = names[base + (index + 1 - base) % min(ring, routines - base)]
        callees = [successor] + structure.sample(names[base:], W.MESH_CALLS - 1)
        _emit_routine(module, name, rng, 0, callees, entry=index == 0)
    return link_modules([module], entry=names[0])


def family_images(rng, scale=W.GCC_SCALE, variants=W.V):
    """``variants`` apps linked against one gcc-sized library; only
    the app module differs between them."""
    shape = shape_by_name(W.GCC_SHAPE).scaled(scale)
    structure = random.Random(0xC0FFEE)
    count = max(8, shape.routines - 4)
    filler = max(4, shape.instructions // shape.routines - 18)
    calls = max(1, min(7, round(shape.calls_per_routine / 1.5)))
    library = ObjectModule("lib")
    names = [f"lib_{index:04d}" for index in range(count)]
    for index, name in enumerate(names):
        callees = structure.sample(names[:index], min(index, calls))
        _emit_routine(library, name, rng, filler, callees)
    roots = names[-6:]
    images = []
    for version in range(1, variants + 1):
        app = ObjectModule("app")
        for name in roots:
            app.extern(name)
        app.routine("main", exported=True)
        app.memory("lda", "sp", -16, "sp")
        app.memory("stq", "ra", 0, "sp")
        app.li("a0", rng.randrange(1, 1 << 15))
        for index in range(8 + version):
            app.op("addq", "a0", rng.randrange(1, 99),
                   _SCRATCH[(index + version) % len(_SCRATCH)])
        for name in roots:
            app.bsr(name)
        app.op("addq", "v0", version, "a0")
        app.output()
        app.memory("ldq", "ra", 0, "sp")
        app.memory("lda", "sp", 16, "sp")
        app.halt()
        images.append(link_modules([app, library], entry="main"))
    return images


# ----------------------------------------------------------------------
# One workload's inputs
# ----------------------------------------------------------------------


def build(workload, seed, oracle, tiny=False):
    """``(blobs, programs, script)`` for one workload.

    ``blobs`` maps blob key -> image bytes; ``programs`` maps script
    position -> (decoded program, routine or None) for the oracle;
    ``script`` carries the seeded routine lists the scripts replay.
    ``tiny`` shrinks everything for ``--selftest``.
    """
    rng = random.Random(f"{workload}:{seed}")
    scale = 0.006 if tiny else W.GCC_SCALE
    blobs, programs, script = {}, {}, {}
    if workload == "cold-analyze":
        program = gcc_program(rng, scale)
        blobs["gcc"] = program_to_image(program).to_bytes()
        programs["gcc"] = (program, None)
        image = mesh_image(rng, 30 if tiny else W.MESH_ROUTINES,
                           10 if tiny else W.MESH_RING)
        blobs["mesh"] = image.to_bytes()
        programs["mesh"] = (disassemble_image(image), None)
    elif workload == "edit-replay":
        program = gcc_program(rng, scale)
        blobs["base"] = program_to_image(program).to_bytes()
        programs["prime"] = programs["clean"] = (program, None)
        if tiny:
            # A ten-routine program has no classes of edit to speak of.
            trace = []
            for name in stratified(rng, editable_routines(program), W.E):
                program = perturb_routine(program, name)
                trace.append((name, program))
        else:
            trace = edit_trace(rng, program, oracle)
        script["edits"] = [name for name, _program in trace]
        for index, (_name, program) in enumerate(trace, start=1):
            blobs[f"edit{index}"] = program_to_image(program).to_bytes()
            programs[f"edit{index}"] = (program, None)
    elif workload == "query-cone":
        program = gcc_program(rng, scale)
        blobs["base"] = program_to_image(program).to_bytes()
        # The session opens on the entry routine (phase 1 of all it
        # reaches, phase 2 of itself alone) and then drills down: one
        # routine from each stratum of growing caller cones, so every
        # warm query has new phase-2 work and every seed has the same
        # amount of it (0.3 % spread in calls made, against 8 % for a
        # uniform draw).
        script["queries"] = [program.entry] + stratified(
            rng, by_caller_cone(program), W.Q
        )
        for index, name in enumerate(script["queries"]):
            programs[f"q{index}"] = (program, name)
    elif workload == "family-store":
        for index, image in enumerate(family_images(rng, scale), start=1):
            blobs[f"v{index}"] = image.to_bytes()
            programs[f"v{index}"] = (disassemble_image(image), None)
        programs["v1-off"] = programs["v1"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return blobs, programs, script


def expected_outputs(programs, oracle):
    """Oracle digests per script position."""
    outputs = {}
    for position, (program, routine) in programs.items():
        result = oracle.result(program)
        if routine is not None:
            result = SummarySet(summaries={routine: result.summaries[routine]})
        outputs[position] = digest(dump_summaries(result))
    return outputs


def load_pins():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def generate(workload, seed, out_dir, tiny=False):
    """Write one workload's blobs + ``manifest.json`` into ``out_dir``
    and return the manifest."""
    started = time.process_time()
    oracle = Oracle()
    blobs, programs, script = build(workload, seed, oracle, tiny)
    images = {key: digest(blob) for key, blob in blobs.items()}
    pins = load_pins()
    pinned = not tiny and seed == pins["seed"]
    if pinned:
        if images != pins["images"][workload]:
            raise InputDrift(
                f"{workload}: generated image digests {images} differ from "
                f"the pins {pins['images'][workload]} in expected.json — the "
                "generator, assembler or linker changed, so this is a "
                "different benchmark; re-pin deliberately with "
                "`python3 perf/run.py --pin`"
            )
        outputs = pins["outputs"][workload]
    else:
        outputs = expected_outputs(programs, oracle)
    os.makedirs(out_dir, exist_ok=True)
    for key, blob in blobs.items():
        with open(os.path.join(out_dir, f"{key}.img"), "wb") as handle:
            handle.write(blob)
    manifest = {
        "workload": workload,
        "seed": seed,
        "tiny": tiny,
        "expected_from": "expected.json" if pinned else "baseline-oracle",
        "images": images,
        "sizes": {
            key: {
                "bytes": len(blob),
            }
            for key, blob in blobs.items()
        },
        "script": script,
        "expected": outputs,
        "inputs_gen_s": time.process_time() - started,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
    return manifest


def pin(seed=0):
    """Regenerate ``expected.json`` from the oracle (a deliberate act:
    it redefines the benchmark's inputs)."""
    pins = {"seed": seed, "images": {}, "outputs": {}}
    for workload in W.WORKLOADS:
        oracle = Oracle()
        blobs, programs, _script = build(workload, seed, oracle)
        pins["images"][workload] = {k: digest(b) for k, b in blobs.items()}
        pins["outputs"][workload] = expected_outputs(programs, oracle)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return pins


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json from the oracle")
    args = parser.parse_args(argv)
    if args.pin:
        pin(args.seed)
        print(f"pinned seed {args.seed} in {EXPECTED_PATH}")
        return 0
    if not (args.workload and args.out):
        parser.error("--workload and --out are required")
    try:
        generate(args.workload, args.seed, args.out, args.tiny)
    except InputDrift as error:
        print(f"perf/inputs.py: {error}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
