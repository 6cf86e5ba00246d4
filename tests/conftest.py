"""Shared fixtures: canonical programs used across the test suite."""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

import pytest

from repro.program.asm import assemble
from repro.program.disasm import disassemble_image
from repro.program.model import Program
from repro.workloads.generator import GeneratorConfig, generate_benchmark
from repro.workloads.micro import figure2_program, figure4_program


@pytest.fixture(autouse=True)
def _isolated_summary_store(tmp_path, monkeypatch):
    """Repoint REPRO_SUMMARY_STORE at a fresh per-test directory.

    The CI tier-1 variant runs the whole suite with a shared summary
    store enabled.  Tests assert exact solve counts, so each test gets
    its own empty store — the store code paths still run everywhere,
    but no test can warm another.  A no-op when the variable is unset.
    """
    if os.environ.get("REPRO_SUMMARY_STORE"):
        monkeypatch.setenv("REPRO_SUMMARY_STORE", str(tmp_path / "sumstore"))


def _load_tool(name: str):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def hostile_symbol_tables():
    """``image bytes -> {name: bytes}``: the three symbol-table
    corruptions of ``tools/hostile_image_smoke.py`` (the images CI
    feeds the CLI), for the in-process surfaces."""
    hostile_images = _load_tool("hostile_image_smoke").hostile_images

    def derive(blob: bytes):
        return {
            name: hostile
            for name, hostile in hostile_images(blob).items()
            if name.startswith("symbol-")
        }

    return derive


#: A two-routine program exercising calls, liveness and OUTPUT.
QUICK_SOURCE = """
.routine main export
    lda  sp, -16(sp)
    stq  ra, 0(sp)
    li   a0, 5
    bsr  ra, helper
    bis  zero, v0, a0
    output
    ldq  ra, 0(sp)
    lda  sp, 16(sp)
    halt
.routine helper
    addq a0, #1, v0
    ret  (ra)
"""


@pytest.fixture(scope="session")
def quick_program() -> Program:
    return disassemble_image(assemble(QUICK_SOURCE))


@pytest.fixture(scope="session", name="figure2_program")
def figure2_program_fixture() -> Program:
    """The paper's Figure 2 / 9 / 11 worked example (repro.workloads.micro)."""
    return figure2_program()


@pytest.fixture(scope="session", name="figure4_program")
def figure4_program_fixture() -> Program:
    """The paper's Figure 4(a) example (repro.workloads.micro)."""
    return figure4_program()


@pytest.fixture(scope="session")
def small_benchmark() -> Program:
    """A small but structurally rich generated program."""
    program, _shape = generate_benchmark(
        "compress", scale=0.2, config=GeneratorConfig(seed=7)
    )
    return program


@pytest.fixture(scope="session")
def switchy_benchmark() -> Program:
    """A generated program heavy in multiway branches (sqlservr-shaped)."""
    program, _shape = generate_benchmark(
        "sqlservr", scale=0.02, config=GeneratorConfig(seed=11)
    )
    return program
