"""The one call-site resolver: a walk's sites and a record's sites go
through :func:`repro.cfg.build.resolve_call_sites` alike.

Fed each routine's front-end record, the resolver must give exactly
the ``call_sites`` of :func:`build_cfg` — equal plain rows, and equal to
the per-site reference classifier kept in ``tests/cfg_oracle.py`` —
over every routine of the 16 generated shapes and the hand-built
programs (a hinted indirect call, an unknown call, a constant-fed
``jsr``).  Where a ``bsr`` or a hint names a non-entry it must raise the
:class:`CfgError` text the walk raises; where a record cannot be
describing the routine it must say so (``None``), so the front end
walks instead (``TestMalformedRecords`` in
``tests/test_frontend_records.py`` checks that fallback end to end).
"""

import dataclasses

import pytest

from repro.cfg.build import build_cfg, resolve_call_sites
from repro.cfg.cfg import CallSite, RecordedSite
from repro.interproc.frontend import build_frontend
from repro.program.asm import Assembler
from repro.program.disasm import disassemble_image
from repro.program.model import Routine
from repro.workloads.generator import GeneratorConfig, generate_image
from repro.workloads.shapes import ALL_SHAPES
from tests.cfg_oracle import classify_call
from tests.test_frontend_records import _error_of, _program, _with_routines
from tests.test_hints import _dispatch_program


def _shape_program(shape):
    return disassemble_image(
        generate_image(shape.scaled(0.01), GeneratorConfig(seed=7))
    )


def _assert_resolver_matches_walk(program):
    """Every routine: record sites -> the walk's call sites; returns
    the sites seen."""
    records = build_frontend(program).records
    seen = []
    for routine in program:
        cfg = build_cfg(program, routine)
        sites = records[routine.name].sites
        resolved = resolve_call_sites(program, routine, sites)
        assert resolved == cfg.call_sites
        assert all(type(site) is CallSite for site in resolved)
        assert resolved == [classify_call(program, routine, s) for s in sites]
        seen += resolved
    return seen


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda shape: shape.name)
def test_record_sites_resolve_to_the_walks_sites(shape):
    _assert_resolver_matches_walk(_shape_program(shape))


def test_generated_shapes_cover_every_kind_of_site():
    sites = [
        site
        for shape in ALL_SHAPES
        for site in _assert_resolver_matches_walk(_shape_program(shape))
    ]
    assert any(not site.indirect for site in sites)
    assert any(site.indirect and site.callee for site in sites)
    assert any(len(site.targets) > 1 for site in sites)
    assert any(site.is_unknown for site in sites)


def test_hinted_indirect_call():
    program = _dispatch_program()
    sites = _assert_resolver_matches_walk(program)
    hinted = [site for site in sites if len(site.targets) > 1]
    assert [site.targets for site in hinted] == [("alpha", "beta")]
    assert hinted[0].indirect and hinted[0].callee is None
    assert not hinted[0].is_unknown


def test_a_hint_wins_over_the_registers_constant():
    asm = Assembler()
    asm.routine("main", exported=True)
    asm.li("pv", "&alpha")
    asm.jsr("pv", hint_targets=["beta", "alpha"])
    asm.halt()
    for name in ("alpha", "beta"):
        asm.routine(name)
        asm.ret()
    program = disassemble_image(asm.build())
    record = build_frontend(program).records["main"]
    assert record.sites[0].constant == program.routine("alpha").address
    sites = _assert_resolver_matches_walk(program)
    assert [site.targets for site in sites] == [("beta", "alpha")]


def test_unknown_and_constant_fed_calls():
    program = _program("dispatch")
    sites = _assert_resolver_matches_walk(program)
    assert [(site.targets, site.indirect) for site in sites] == [
        (("alpha",), False), ((), True), (("beta",), True),
    ]
    assert sites[1].is_unknown and sites[1].callee is None
    assert sites[2].callee == "beta"


def _moved(program, names):
    """``names`` move away without their callers being relinked."""
    return _with_routines(
        program,
        (
            Routine(r.name, r.address + 0x400, r.code, r.exported)
            if r.name in names else r
            for r in program.routines
        ),
    )


@pytest.mark.parametrize("caller, moved", [("main", ("h",)), ("h", ("g",))])
def test_bsr_to_a_non_entry_raises_the_walks_error(caller, moved):
    program = _program("escapes")
    record = build_frontend(program).records[caller]
    broken = _moved(program, moved)
    routine = broken.routine(caller)
    walked = _error_of(lambda: build_cfg(broken, routine))
    assert "bsr" in walked and "not a routine entry" in walked
    assert _error_of(
        lambda: resolve_call_sites(broken, routine, record.sites)
    ) == walked


def test_hint_to_a_non_entry_raises_the_walks_error():
    program = _dispatch_program()
    record = build_frontend(program).records["main"]
    address = sorted(program.call_target_hints)[0]
    broken = dataclasses.replace(
        program,
        call_target_hints={
            **program.call_target_hints,
            address: (program.routine("alpha").address + 4,),
        },
    )
    routine = broken.routine("main")
    walked = _error_of(lambda: build_cfg(broken, routine))
    assert "call-target hint" in walked
    assert _error_of(
        lambda: resolve_call_sites(broken, routine, record.sites)
    ) == walked


def _stale_sites(program):
    """Each stale-record kind of ``tests/test_frontend_records.py``:
    sites a well-formed record may hold that do not fit the routine."""
    main = program.routine("main")
    sites = build_frontend(program).records["main"].sites
    last = len(program.routine("h").rows) - 1
    return {
        "index-out-of-range": ("main", (RecordedSite(0, 10_000, False),)),
        "not-on-a-call": ("main", (RecordedSite(0, 0, False),)),
        "wrong-kind": (
            "main",
            tuple(
                RecordedSite(s.block, s.instruction_index, not s.indirect)
                for s in sites
            ),
        ),
        "last-instruction": ("h", (RecordedSite(0, last, False),)),
        "one-bad-after-a-bsr-to-a-non-entry": (
            "main", (*sites, RecordedSite(9, len(main.rows) - 1, False)),
        ),
    }


@pytest.mark.parametrize(
    "kind",
    [
        "index-out-of-range", "not-on-a-call", "wrong-kind",
        "last-instruction", "one-bad-after-a-bsr-to-a-non-entry",
    ],
)
def test_stale_sites_are_no_answer(kind):
    program = _program("escapes")
    name, sites = _stale_sites(program)[kind]
    # Every site is checked before any resolves: a site that would
    # raise does not hide a later one that cannot be this routine's.
    broken = _moved(program, ("g", "h"))
    assert resolve_call_sites(broken, broken.routine(name), sites) is None
