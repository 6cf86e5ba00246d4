"""The front end's one walk per routine, held to what it replaced.

* ``build_cfg``'s rows equal, field by field, the rows of the CFG the
  block-record carver builds (``tests/cfg_oracle.py``), and the block
  records rebuilt from them equal the carver's blocks.
* The PSG built from the rows equals, edge for edge and in order, the
  one the per-target region labeler builds from the carver's CFGs
  (``tests/label_oracle.py``), and the §3.4 masks equal the block-slice
  matcher's — over every Table-2 shape, three seeds, branch nodes and
  callee-saved filtering on and off.
* Hostile code raises the same exception, with the same message,
  through the cold, warm and query paths, and the CLI maps
  it to exit 3 (exit 4 for a boundary-free loop), an image whose
  jump-table entry points into an instruction too.
* An analysis and its reports build each routine's rows once.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import struct

import pytest

from repro.api import AnalysisConfig, AnalysisSession
from repro.cfg.build import build_cfg
from repro.cli import main
from repro.dataflow.regset import mask_of
from repro.isa.calling_convention import NT_ALPHA
from repro.obs.metrics import REGISTRY
from repro.program.asm import assemble
from repro.program.model import Program
from repro.program.rewrite import program_to_image
from repro.psg.build import PsgConfig, build_psg
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.shapes import ALL_SHAPES, shape_by_name
from tests.cfg_oracle import carve, oracle_cfg, oracle_saved_mask
from tests.hostile_code import BASE_SOURCE, HOSTILE, base
from tests.label_oracle import labeling
from tests.records import blocks_of

STORE_OFF = AnalysisConfig(store="off")
SHAPES = [shape.name for shape in ALL_SHAPES]


@functools.lru_cache(maxsize=None)
def _program(shape: str, seed: int) -> Program:
    """About a dozen routines of a Table-2 shape."""
    scaled = shape_by_name(shape)
    return generate_program(
        scaled.scaled(12 / scaled.routines), GeneratorConfig(seed=seed)
    )


@functools.lru_cache(maxsize=None)
def _carved(shape: str, seed: int):
    program = _program(shape, seed)
    return {routine.name: carve(program, routine) for routine in program}


# ----------------------------------------------------------------------
# Rows vs the block-object carver
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", SHAPES)
def test_rows_equal_the_oracle_cfg(shape, seed):
    program = _program(shape, seed)
    carved = _carved(shape, seed)
    for routine in program:
        oracle = oracle_cfg(program, routine)
        cfg = build_cfg(program, routine)
        assert cfg.starts == oracle.starts
        assert cfg.successors == oracle.successors
        assert cfg.terminators == oracle.terminators
        assert cfg.exits == oracle.exits
        assert cfg.call_sites == oracle.call_sites
        assert cfg.recorded_sites == oracle.recorded_sites
        assert cfg.ubd == oracle.ubd
        assert cfg.defs == oracle.defs
        assert cfg.saved == oracle.saved
        assert cfg.arc_count == oracle.arc_count
        assert cfg == oracle
        assert blocks_of(cfg) == carved[routine.name].blocks


@pytest.mark.parametrize("filtering", [True, False], ids=["filtered", "unfiltered"])
@pytest.mark.parametrize("branch_nodes", [True, False], ids=["branch", "nobranch"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", SHAPES)
def test_row_psg_equals_the_oracle_labeler(shape, seed, branch_nodes, filtering):
    program = _program(shape, seed)
    config = AnalysisConfig(
        psg=PsgConfig(branch_nodes=branch_nodes),
        callee_saved_filtering=filtering,
        store="off",
    )
    analysis = AnalysisSession.from_program(program, config).analyze()
    cfgs = {routine.name: oracle_cfg(program, routine) for routine in program}
    with labeling("per-target"):
        oracle = build_psg(program, cfgs, config=config.psg)
    assert _nodes(analysis.psg) == _nodes(oracle)
    assert _edges(analysis.psg) == _edges(oracle)
    keep = mask_of(NT_ALPHA.callee_saved) if filtering else 0
    assert analysis.saved_restored == {
        name: oracle_saved_mask(carved, keep)
        for name, carved in _carved(shape, seed).items()
    }


def _nodes(psg):
    return list(zip(psg.node_kind, psg.node_routine, psg.node_block))


def _edges(psg):
    """The ``(src, dst, label)`` rows of the edge table, in order."""
    arena = psg.arena
    return [
        (src, dst, arena.labels[label])
        for src, dst, label in zip(arena.edge_src, arena.edge_dst, arena.edge_label)
    ]


# ----------------------------------------------------------------------
# Hostile code (tests/hostile_code.py): one exception, one message,
# every path
# ----------------------------------------------------------------------


def _raised(run):
    with pytest.raises(Exception) as caught:
        run()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_code_raises_the_same_error_on_every_path(case):
    edit, kind, fragment = HOSTILE[case]
    valid = base()
    hostile = edit(valid)
    prime = AnalysisSession.from_program(valid, STORE_OFF).analyze_incremental()
    cache = prime.cache

    def session():
        return AnalysisSession.from_program(hostile, STORE_OFF)

    paths = {
        "cold": lambda: session().analyze(),
        "warm": lambda: session().analyze_incremental(cache=cache),
        "query": lambda: session().query("main"),
    }
    raised = {path: _raised(run) for path, run in paths.items()}
    assert raised["cold"][0] is kind and fragment in raised["cold"][1]
    assert set(raised.values()) == {raised["cold"]}, raised


@pytest.mark.parametrize(
    "case,code",
    [
        ("branch-outside", 3),
        ("call-at-last", 3),
        ("falls-off", 3),
        ("bsr-to-non-entry", 3),
        ("boundary-free-loop", 4),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["analyze", "--incremental"], ["query", "main"]],
    ids=["cold", "incremental", "query"],
)
def test_cli_exit_code_on_hostile_code(case, code, argv, tmp_path, capsys):
    edit, _kind, fragment = HOSTILE[case]
    image = tmp_path / "hostile.sax"
    image.write_bytes(program_to_image(edit(base())).to_bytes())
    command = [argv[0], str(image), *argv[1:]]
    assert main(command) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and fragment in err[0]


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["analyze", "--incremental"], ["query", "main"]],
    ids=["cold", "incremental", "query"],
)
def test_cli_exit_code_on_an_unaligned_jump_table_entry(argv, tmp_path, capsys):
    # Bytes, not ``program_to_image``: relinking would move the entry.
    image = assemble(BASE_SOURCE)
    (table,) = image.jump_tables
    at = table.table_address - image.data_base
    (first,) = struct.unpack_from("<Q", image.data, at)
    data = bytearray(image.data)
    struct.pack_into("<Q", data, at, first + 2)
    path = tmp_path / "hostile.sax"
    path.write_bytes(dataclasses.replace(image, data=bytes(data)).to_bytes())
    assert main([argv[0], str(path), *argv[1:]]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].endswith(f"targets {first + 2:#x}, outside the routine")


# ----------------------------------------------------------------------
# An analysis and its reports build each routine's rows once
# ----------------------------------------------------------------------


def test_cold_analysis_and_its_reports_build_no_cfg(small_benchmark):
    before = REGISTRY.snapshot()
    session = AnalysisSession.from_program(small_benchmark, STORE_OFF)
    analysis = session.analyze()
    analysis.describe()
    assert analysis.basic_block_count > analysis.program.routine_count
    assert analysis.cfg_arc_count > analysis.basic_block_count
    session.to_json(include_summaries=True)
    session.metrics()
    delta = REGISTRY.delta_since(before)
    assert delta["frontend.rows"] == small_benchmark.routine_count


def test_cli_stats_build_no_cfg(tmp_path, capsys):
    program = _program("gcc", 0)
    image = tmp_path / "prog.sax"
    image.write_bytes(program_to_image(program).to_bytes())
    assert main(["analyze", str(image), "--stats"]) == 0
    stats = capsys.readouterr().out
    assert re.search(rf"^  frontend\.rows +{program.routine_count}$", stats, re.M)
    assert main(["analyze", str(image), "--json"]) == 0
    counters = json.loads(capsys.readouterr().out)["counters"]
    assert counters["frontend.rows"] == program.routine_count
