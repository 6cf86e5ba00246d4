"""Assembler goldens: the bytes the assembler and the linker write.

``tests/golden/images.json`` pins the SHA-256 of the image bytes
(:meth:`~repro.program.image.ExecutableImage.to_bytes`) of

* each shape of :data:`repro.workloads.shapes.ALL_SHAPES` generated at
  scale 0.01 with seed 7 (``generate_image``);
* the four Figure programs of :mod:`repro.workloads.micro`;
* every ``examples/`` program that assembles source or links modules;
* a two-module :func:`~repro.program.linker.link_modules` image with a
  cross-module call, data labels, a code-pointer table, a jump table
  and a call-target hint.

A change to *how* code is encoded must leave every digest unchanged.

To regenerate after an *intended* change to what the assembler writes::

    PYTHONPATH=src python -m tests.test_image_golden
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro.program.asm import assemble
from repro.program.linker import ObjectModule, link_modules
from repro.workloads import micro
from repro.workloads.generator import GeneratorConfig, generate_image
from repro.workloads.shapes import ALL_SHAPES, shape_by_name

GOLDEN = Path(__file__).parent / "golden" / "images.json"
EXAMPLES = Path(__file__).parent.parent / "examples"
SCALE = 0.01
SEED = 7


def _example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shape_image(name: str):
    shape = shape_by_name(name).scaled(SCALE)
    return generate_image(shape, GeneratorConfig(seed=SEED))


def _two_module_image():
    app = ObjectModule("app")
    app.extern("scale")
    app.extern("double")
    app.data_quads("table", [3, -1, 1 << 40])
    app.data_code_pointers("ops", ["double", "scale"])
    app.routine("main", exported=True)
    app.li("a0", 0x12345)
    app.li("t0", "@table")
    app.memory("ldq", "a1", 8, "t0")
    app.bsr("scale")
    app.li("pv", "&double")
    app.jsr("pv", hint_targets=["double", "scale"])
    app.op("bis", "zero", "v0", "a0")
    app.output()
    app.halt()
    lib = ObjectModule("lib")
    lib.data_quads("table", [7])
    lib.routine("scale", exported=True)
    lib.li("t1", "@table")
    lib.memory("ldq", "t2", 0, "t1")
    lib.op("mulq", "a0", "t2", "v0")
    lib.jump_table("cases", ["small", "big"])
    lib.op("cmplt", "a0", 100, "t3")
    lib.op("sll", "t3", 3, "t3")
    lib.li("t4", "cases")
    lib.op("addq", "t4", "t3", "t4")
    lib.memory("ldq", "t4", 0, "t4")
    lib.jmp("t4", table="cases")
    lib.label("small")
    lib.op("addq", "v0", 1, "v0")
    lib.br("done")
    lib.label("big")
    lib.branch("bne", "v0", "done")
    lib.label("done")
    lib.ret()
    lib.routine("double")
    lib.op("addq", "a0", "a0", "v0")
    lib.ret()
    return link_modules([app, lib], entry="main")


def _images() -> dict:
    """Image name -> a function that builds the image."""
    images = {
        f"shape:{shape.name}": (lambda name=shape.name: _shape_image(name))
        for shape in ALL_SHAPES
    }
    for figure in ("FIGURE1", "FIGURE2", "FIGURE4", "FIGURE12"):
        source = getattr(micro, f"{figure}_SOURCE")
        entry = "P1" if figure == "FIGURE2" else None
        images[f"micro:{figure.lower()}"] = (
            lambda source=source, entry=entry: assemble(source, entry=entry)
        )
    images["example:quickstart"] = lambda: assemble(_example("quickstart").SOURCE)
    images["example:optimize_binary"] = lambda: assemble(
        _example("optimize_binary").SOURCE
    )
    images["example:virtual_dispatch"] = (
        lambda: _example("virtual_dispatch").build_program()
    )
    for version in (1, 2):
        images[f"example:separate_compilation:v{version}"] = (
            lambda version=version: _separate_compilation(version)
        )
    images["link:two_modules"] = _two_module_image
    return images


def _separate_compilation(version: int):
    example = _example("separate_compilation")
    return link_modules(
        [example.build_app(version), example.build_mathlib(), example.build_util()],
        entry="main",
    )


def _digest(name: str) -> str:
    return hashlib.sha256(_images()[name]().to_bytes()).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_image():
    assert sorted(_golden()) == sorted(_images())


@pytest.mark.parametrize("name", sorted(_images()))
def test_image_bytes_match(name):
    assert _digest(name) == _golden()[name]


if __name__ == "__main__":
    records = {name: _digest(name) for name in sorted(_images())}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(records)} images)")
