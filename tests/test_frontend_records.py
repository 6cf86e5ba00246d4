"""The record-driven front end must be indistinguishable from the cold one.

A warm run derives its call graph, condensation and fingerprints from
the previous run's front-end records instead of from CFGs
(:mod:`repro.interproc.frontend`).  These tests pin that down:

* **property** — for every Table-2 shape (plus two hand-built programs
  that take routine addresses) and every kind of edit that can change a
  front-end fact under fixed or changed code bytes, a front end built
  from the *other* program's records equals one built from scratch, and
  the warm run's sidecar is byte-identical to a cold run's (both
  directions of every edit, so "hint removed" also tests "hint added");
* **errors** — a ``bsr`` or a hint that names a non-entry raises the
  same :class:`CfgError` whether the site came from a CFG or a record;
* **robustness** — a record that parses but does not fit its routine is
  a plain miss;
* **structure** — on the gcc shape a warm-clean run builds no CFG and a
  one-routine edit builds no more CFGs than it re-solves routines;
* one session holds one front end across ``query`` /
  ``analyze_incremental`` / ``analyze``.
"""

import dataclasses
import random
import zlib

import pytest

from repro.api import AnalysisConfig, AnalysisSession
from repro.cfg.build import LazyCfgs, build_all_cfgs
from repro.cfg.callgraph import build_call_graph
from repro.cfg.cfg import CfgError, FrontendRecord, RecordedSite
from repro.interproc.frontend import (
    build_frontend,
    routine_fingerprint,
    shape_key,
)
from repro.interproc.persist import dump_cache, dump_summaries, load_cache
from repro.isa.encoding import (
    INSTRUCTION_SIZE,
    code_words,
    encode,
    replace_fields,
    words_code,
)
from repro.isa.instructions import ControlKind, Opcode
from repro.obs.metrics import REGISTRY
from repro.program.asm import assemble
from repro.program.disasm import disassemble_image
from repro.program.model import Program, Routine
from repro.program.rewrite import apply_edits, program_to_image
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.mutate import (
    editable_routines,
    first_editable_routine,
    perturb_routine,
)
from repro.workloads.shapes import ALL_SHAPES, shape_by_name
from tests.decoded import rows_of

STORE_OFF = AnalysisConfig(store="off")


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------

#: ``main`` stores ``f``'s address (it escapes), calls ``g`` through a
#: materialized constant and ``h`` directly; ``h`` calls ``g`` directly.
_ESCAPES = """
.routine main
    li   t0, &f
    stq  t0, 0(sp)
    li   pv, &g
    jsr  ra, (pv)
    bsr  ra, h
    halt
.routine f
    addq a0, #1, v0
    ret  (ra)
.routine g
    addq a1, a2, v0
    ret  (ra)
.routine h
    addq a0, a1, t0
    bsr  ra, g
    ret  (ra)
"""

#: A jump table, a hinted indirect call and an unknown indirect call.
_DISPATCH = """
.data vt: 0
.routine main
    and  a0, #1, t1
    beq  t1, other
    bsr  ra, alpha
    br   done
other:
    li   t3, @vt
    ldq  pv, 0(t3)
    jsr  ra, (pv)
done:
    li   pv, &beta
    jsr  ra, (pv)
    halt
.routine alpha
    addq a0, a1, v0
    ret  (ra)
.routine beta
    addq a1, a2, v0
    ret  (ra)
"""

_HAND_BUILT = {"escapes": _ESCAPES, "dispatch": _DISPATCH}
PROGRAMS = [shape.name for shape in ALL_SHAPES] + sorted(_HAND_BUILT)

_programs = {}


def _program(name: str) -> Program:
    """About a dozen routines of each Table-2 shape (seeded), or one of
    the hand-built programs."""
    if name not in _programs:
        if name in _HAND_BUILT:
            program = disassemble_image(assemble(_HAND_BUILT[name]))
        else:
            shape = shape_by_name(name)
            program = generate_program(
                shape.scaled(12 / shape.routines), GeneratorConfig(seed=3)
            )
        _programs[name] = program
    return _programs[name]


def _rng(*parts) -> random.Random:
    return random.Random(zlib.crc32(repr(parts).encode()))


# ----------------------------------------------------------------------
# Edits: Program -> Program, or None when the program offers no victim
# ----------------------------------------------------------------------


def _with_routines(program: Program, routines, **changes) -> Program:
    return dataclasses.replace(program, routines=list(routines), **changes)


def _indirect_sites(program: Program):
    """The address of every ``jsr``."""
    return [
        routine.address_of(index)
        for routine in program
        for index, instruction in enumerate(rows_of(routine.code))
        if instruction.control == ControlKind.CALL_INDIRECT
    ]


def _other_entries(program: Program, rng, count=2):
    names = [name for name in program.routine_names() if name != program.entry]
    return tuple(
        program.routine(name).address
        for name in rng.sample(names, min(count, len(names)))
    )


def edit_perturbed(program, rng):
    names = editable_routines(program)
    return perturb_routine(program, rng.choice(names)) if names else None


def edit_table_retargeted(program, rng):
    tables = [
        (address, targets)
        for address, targets in sorted(program.jump_targets.items())
        if len(set(targets)) > 1
    ]
    if not tables:
        return None
    address, targets = rng.choice(tables)
    return dataclasses.replace(
        program,
        jump_targets={
            **program.jump_targets, address: (targets[-1],) * len(targets)
        },
    )


def edit_table_splits_a_block(program, rng):
    """Point a table entry into the middle of a block: the code bytes
    stay, but a leader appears and every later block is renumbered."""
    cfgs = build_all_cfgs(program)
    for address, targets in sorted(program.jump_targets.items()):
        routine = program.routine_containing(address)
        cfg = cfgs[routine.name]
        for block in range(cfg.block_count):
            start, stop = cfg.bounds(block)
            if stop - start > 1:
                inside = routine.address_of(start + 1)
                return dataclasses.replace(
                    program,
                    jump_targets={
                        **program.jump_targets,
                        address: (inside,) + targets[1:],
                    },
                )
    return None


def edit_hint_removed(program, rng):
    if not program.call_target_hints:
        return None
    hints = dict(program.call_target_hints)
    del hints[rng.choice(sorted(hints))]
    return dataclasses.replace(program, call_target_hints=hints)


def edit_hint_retargeted(program, rng):
    if not program.call_target_hints:
        return None
    hints = dict(program.call_target_hints)
    address = rng.choice(sorted(hints))
    replacement = tuple(
        target for target in _other_entries(program, rng, 3)
        if target not in hints[address]
    )[:1]
    if not replacement:
        return None
    hints[address] = replacement
    return dataclasses.replace(program, call_target_hints=hints)


def edit_hint_added(program, rng):
    unhinted = [
        address for address in _indirect_sites(program)
        if address not in program.call_target_hints
    ]
    if not unhinted:
        return None
    hints = dict(program.call_target_hints)
    hints[rng.choice(unhinted)] = _other_entries(program, rng)
    return dataclasses.replace(program, call_target_hints=hints)


def edit_export_flipped(program, rng):
    victim = rng.choice(
        [name for name in program.routine_names() if name != program.entry]
    )
    return _with_routines(
        program,
        (
            Routine(r.name, r.address, r.code, not r.exported)
            if r.name == victim else r
            for r in program.routines
        ),
    )


def edit_routine_inserted(program, rng):
    end = max(routine.end for routine in program.routines)
    fresh = Routine(
        "zz_inserted",
        end + 4 * INSTRUCTION_SIZE,
        words_code([
            encode(Opcode.ADDQ, ra=16, rb=17, rc=0),
            encode(Opcode.RET, ra=31, rb=26),
        ]),
        exported=rng.random() < 0.5,
    )
    return _with_routines(program, [*program.routines, fresh])


def edit_routine_renamed(program, rng):
    victim = rng.choice(
        [name for name in program.routine_names() if name != program.entry]
    )
    return _with_routines(
        program,
        (
            Routine(r.name + "_renamed", r.address, r.code, r.exported)
            if r.name == victim else r
            for r in program.routines
        ),
    )


def edit_routines_shifted(program, rng):
    """Delete one fall-through instruction through the rewriter: every
    later routine moves, with calls, tables, hints and materialized
    addresses relinked."""
    names = editable_routines(program)
    if not names:
        return None
    victim = program.routine(rng.choice(names))
    index = next(
        index for index, instruction in enumerate(rows_of(victim.code))
        if instruction.opcode in (Opcode.ADDQ, Opcode.SUBQ, Opcode.AND, Opcode.XOR)
        and instruction.control == ControlKind.FALLTHROUGH
    )
    return apply_edits(program, {victim.name: {index: None}})


def _moved_away(program: Program, name: str) -> Program:
    """``name`` re-homed past the end of the text: direct calls to and
    from it, its tables and the hints naming it follow; materialized
    constants do not, so an unhinted ``jsr`` (or an escaping address)
    that named its old entry now names nothing."""
    victim = program.routine(name)
    old = victim.address
    new = max(routine.end for routine in program.routines) + 64
    words = (new - old) // INSTRUCTION_SIZE

    def fix(routine):
        body = code_words(routine.code)
        for index, row in enumerate(rows_of(routine.code)):
            if row.control == ControlKind.CALL_DIRECT:
                target = routine.address_of(index) + INSTRUCTION_SIZE * (
                    1 + row.displacement
                )
                if routine is victim and target != old:
                    body[index] = replace_fields(
                        body[index], displacement=row.displacement - words
                    )
                elif routine is not victim and target == old:
                    body[index] = replace_fields(
                        body[index], displacement=row.displacement + words
                    )
        address = new if routine is victim else routine.address
        return Routine(routine.name, address, words_code(body), routine.exported)

    def rehome(address):
        return address + new - old if victim.contains(address) else address

    return _with_routines(
        program,
        (fix(routine) for routine in program.routines),
        jump_targets={
            rehome(address): tuple(rehome(target) for target in targets)
            for address, targets in program.jump_targets.items()
        },
        jump_table_locations={
            rehome(address): location
            for address, location in program.jump_table_locations.items()
        },
        call_target_hints={
            rehome(address): tuple(rehome(target) for target in targets)
            for address, targets in program.call_target_hints.items()
        },
    )


def edit_constant_target_moved(program, rng):
    """The constant of an unhinted ``jsr`` stops naming a routine entry
    (and, in the other direction, starts to)."""
    cfgs = build_all_cfgs(program)
    named = sorted(
        {
            site.targets[0]
            for cfg in cfgs.values()
            for site, recorded in zip(cfg.call_sites, cfg.recorded_sites)
            if site.indirect
            and site.targets
            and recorded.constant is not None
            and cfg.routine.address_of(site.instruction_index)
            not in program.call_target_hints
        }
        - {program.entry}
    )
    return _moved_away(program, rng.choice(named)) if named else None


def edit_escaping_address_moved(program, rng):
    """An address-taken routine moves away from the escaping constant."""
    taken = sorted(build_call_graph(program).address_taken - {program.entry})
    return _moved_away(program, rng.choice(taken)) if taken else None


EDITS = [
    edit_perturbed,
    edit_table_retargeted,
    edit_table_splits_a_block,
    edit_hint_removed,
    edit_hint_retargeted,
    edit_hint_added,
    edit_export_flipped,
    edit_routine_inserted,
    edit_routine_renamed,
    edit_routines_shifted,
    edit_constant_target_moved,
    edit_escaping_address_moved,
]


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------


def _facts(frontend):
    graph = frontend.call_graph
    condensation = frontend.condensation
    return {
        "sites": {name: list(sites) for name, sites in graph.sites.items()},
        "callers": graph.callers,
        "unknown_sites": graph.unknown_sites,
        "address_taken": graph.address_taken,
        "externally_callable": graph.externally_callable,
        "components": condensation.components,
        "callee_components": condensation.callee_components,
        "caller_components": condensation.caller_components,
        "fingerprints": frontend.fingerprints,
        "records": frontend.records,
        "block_counts": frontend.block_counts,
    }


_cold = {}


def _cold_run(key, program):
    """One cold incremental run per distinct program of this module."""
    if key not in _cold:
        session = AnalysisSession.from_program(program, STORE_OFF)
        _cold[key] = session.analyze_incremental()
    return _cold[key]


def _assert_record_driven_equals_cold(source_run, target, target_run):
    """Records (and summaries) of ``source_run`` applied to ``target``."""
    cache = load_cache(dump_cache(source_run.cache))
    cold = target_run.frontend
    warm = build_frontend(target, cache.frontend_records)
    assert _facts(warm) == _facts(cold)
    assert warm.cfgs_built <= cold.cfgs_built
    # Every fingerprint equals the CFG-derived one.
    for name, fingerprint in warm.fingerprints.items():
        assert fingerprint == routine_fingerprint(
            target.routine(name), cold.cfgs[name]
        )
    session = AnalysisSession.from_program(target, STORE_OFF)
    rerun = session.analyze_incremental(cache=cache)
    assert dump_summaries(rerun.result) == dump_summaries(target_run.result)
    assert dump_cache(rerun.cache) == dump_cache(target_run.cache)
    assert rerun.metrics.cfgs_built <= max(
        rerun.metrics.phase1_solved, rerun.metrics.phase2_solved
    ) + sum(
        1 for name in target.routine_names()
        if rerun.frontend.records[name].shape_key not in cache.frontend_records
    )


@pytest.mark.parametrize("edit", EDITS, ids=lambda edit: edit.__name__[5:])
@pytest.mark.parametrize("name", PROGRAMS)
def test_record_driven_frontend_equals_cold(name, edit):
    base = _program(name)
    edited = edit(base, _rng(name, edit.__name__))
    if edited is None:
        pytest.skip(f"{name} offers nothing to {edit.__name__}")
    base_run = _cold_run(name, base)
    edited_run = _cold_run((name, edit.__name__), edited)
    _assert_record_driven_equals_cold(base_run, edited, edited_run)
    _assert_record_driven_equals_cold(edited_run, base, base_run)


def test_every_edit_finds_a_victim_somewhere():
    for edit in EDITS:
        assert any(
            edit(_program(name), _rng(name, edit.__name__)) is not None
            for name in PROGRAMS
        ), edit.__name__


@pytest.mark.parametrize("name", PROGRAMS)
def test_unchanged_program_builds_no_cfg(name):
    program = _program(name)
    run = _cold_run(name, program)
    before = REGISTRY.snapshot()
    warm = build_frontend(program, run.cache.frontend_records)
    delta = REGISTRY.delta_since(before)
    assert warm.cfgs_built == 0
    assert delta["frontend.rows"] == 0
    assert delta["frontend.record.hit"] == program.routine_count
    assert delta["frontend.record.stale"] == 0
    assert delta["frontend.record.miss"] == 0
    assert _facts(warm) == _facts(run.frontend)
    # Asking for one CFG builds exactly that one.
    first = program.routine_names()[0]
    assert warm.cfgs[first].routine.name == first
    assert warm.cfgs_built == 1
    delta = REGISTRY.delta_since(before)
    assert delta["frontend.rows"] == 1


# ----------------------------------------------------------------------
# The lazy mapping
# ----------------------------------------------------------------------


class TestLazyCfgs:
    def test_is_a_full_mapping_that_builds_on_access(self, quick_program):
        import pickle

        cfgs = LazyCfgs(quick_program)
        names = quick_program.routine_names()
        assert list(cfgs) == names and len(cfgs) == len(names)
        assert names[0] in cfgs and "nope" not in cfgs
        assert cfgs.get("nope") is None
        with pytest.raises(KeyError):
            cfgs["nope"]
        assert cfgs.built == {}  # nothing above built a CFG
        first = cfgs[names[0]]
        assert cfgs[names[0]] is first and list(cfgs.built) == [names[0]]
        assert {name: cfg.block_count for name, cfg in cfgs.items()} == {
            name: cfg.block_count
            for name, cfg in build_all_cfgs(quick_program).items()
        }
        copy = pickle.loads(pickle.dumps(cfgs))
        assert list(copy.built) == list(cfgs.built)
        assert copy[names[-1]].block_count == cfgs[names[-1]].block_count

    def test_call_graph_queries_never_force_a_cfg(self, small_benchmark):
        records = _by_key(build_frontend(small_benchmark).records)
        frontend = build_frontend(small_benchmark, records)
        graph = frontend.call_graph
        for name in small_benchmark.routine_names():
            graph.callees_of(name)
            graph.call_sites_of(name)
            graph.callers_of(name)
        graph.reverse_topological_order()
        frontend.condensation, frontend.fingerprints, frontend.block_counts
        assert frontend.cfgs_built == 0


# ----------------------------------------------------------------------
# Errors and malformed records
# ----------------------------------------------------------------------


def _by_key(records):
    """Records by routine (:attr:`Frontend.records`) as a pack files
    them: by shape key."""
    return {record.shape_key: record for record in records.values()}


def _error_of(build):
    with pytest.raises(CfgError) as excinfo:
        build()
    return str(excinfo.value)


class TestSameErrors:
    def test_bsr_naming_a_non_entry(self):
        program = _program("escapes")
        records = _by_key(build_frontend(program).records)
        # ``g`` moves away without its callers being relinked.
        broken = _with_routines(
            program,
            (
                Routine(r.name, r.address + 0x400, r.code, r.exported)
                if r.name == "g" else r
                for r in program.routines
            ),
        )
        cold = _error_of(lambda: build_frontend(broken))
        assert "bsr" in cold and "not a routine entry" in cold
        assert _error_of(lambda: build_frontend(broken, records)) == cold

    def test_hint_naming_a_non_entry(self):
        program = _program("compress")
        records = _by_key(build_frontend(program).records)
        address = sorted(program.call_target_hints)[0]
        broken = dataclasses.replace(
            program,
            call_target_hints={
                **program.call_target_hints,
                address: (program.routine(program.entry).address + 4,),
            },
        )
        cold = _error_of(lambda: build_frontend(broken))
        assert "call-target hint" in cold
        assert _error_of(lambda: build_frontend(broken, records)) == cold

    def test_first_error_in_program_order_wins(self):
        program = _program("escapes")
        records = _by_key(build_frontend(program).records)
        # Both ``main``'s and ``h``'s bsr now miss; ``main`` comes first.
        broken = _with_routines(
            program,
            (
                Routine(r.name, r.address + 0x400, r.code, r.exported)
                if r.name in ("g", "h") else r
                for r in program.routines
            ),
        )
        cold = _error_of(lambda: build_frontend(broken))
        assert cold.startswith("'main'")
        assert _error_of(lambda: build_frontend(broken, records)) == cold


class TestMalformedRecords:
    """A record is untrusted input: one that parses but does not fit
    the routine it names is a miss, never an exception and never a
    different call graph."""

    def _tampered(self, program, name, **changes):
        records = dict(build_frontend(program).records)
        records[name] = FrontendRecord(**{**records[name]._asdict(), **changes})
        return _by_key(records)

    def _assert_plain_miss(self, program, records, name):
        cold = build_frontend(program)
        before = REGISTRY.snapshot()
        warm = build_frontend(program, records)
        delta = REGISTRY.delta_since(before)
        assert _facts(warm) == _facts(cold)
        assert list(warm.cfgs.built) == [name]
        assert delta["frontend.record.stale"] == 1
        assert delta["frontend.record.hit"] == program.routine_count - 1

    def test_site_index_out_of_range(self):
        program = _program("escapes")
        key = shape_key(program.routine("main"))
        records = self._tampered(
            program, "main",
            sites=(RecordedSite(0, 10_000, False),), block_count=10_001,
        )
        assert records[key].block_count == 10_001
        self._assert_plain_miss(program, records, "main")

    def test_site_not_on_a_call(self):
        program = _program("escapes")
        records = self._tampered(
            program, "main", sites=(RecordedSite(0, 0, False),),
        )
        self._assert_plain_miss(program, records, "main")

    def test_site_of_the_wrong_kind(self):
        program = _program("escapes")
        sites = build_frontend(program).records["main"].sites
        flipped = tuple(
            RecordedSite(s.block, s.instruction_index, not s.indirect)
            for s in sites
        )
        records = self._tampered(program, "main", sites=flipped)
        self._assert_plain_miss(program, records, "main")

    def test_site_on_the_last_instruction(self):
        program = _program("escapes")
        last = len(program.routine("h")) - 1
        records = self._tampered(
            program, "h", sites=(RecordedSite(0, last, False),),
        )
        self._assert_plain_miss(program, records, "h")

    @pytest.mark.parametrize(
        "fields",
        [
            dict(block_count=0, sites=()),
            dict(block_count=2, sites=(RecordedSite(1, 5, False),)),
            dict(block_count=3, sites=(RecordedSite(2, 1, False),)),
            dict(
                block_count=9,
                sites=(RecordedSite(3, 5, False), RecordedSite(3, 7, False)),
            ),
            dict(
                block_count=9,
                sites=(RecordedSite(1, 7, False), RecordedSite(2, 6, False)),
            ),
            dict(block_count=9, sites=(RecordedSite(1, 7, False, 64),)),
        ],
    )
    def test_impossible_records_cannot_be_constructed(self, fields):
        with pytest.raises(ValueError):
            FrontendRecord(shape_key=1, escape_candidates=(), **fields)


# ----------------------------------------------------------------------
# Structural gate on the benchmark's program
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def gcc_tenth():
    program = generate_program(
        shape_by_name("gcc").scaled(0.1), GeneratorConfig(seed=0)
    )
    blob = program_to_image(program).to_bytes()
    session = AnalysisSession.from_image_bytes(blob, STORE_OFF)
    prime = session.analyze_incremental()
    return session.program, dump_cache(prime.cache), prime


class TestGccStructuralGate:
    def test_cold_builds_every_cfg_once(self, gcc_tenth):
        program, _sidecar, prime = gcc_tenth
        assert prime.metrics.cfgs_built == program.routine_count

    def test_warm_clean_builds_no_cfg(self, gcc_tenth):
        program, sidecar, prime = gcc_tenth
        blob = program_to_image(program).to_bytes()
        before = REGISTRY.snapshot()
        session = AnalysisSession.from_image_bytes(blob, STORE_OFF)
        warm = session.analyze_incremental(cache=load_cache(sidecar))
        assert REGISTRY.delta_since(before)["frontend.rows"] == 0
        assert warm.metrics.cfgs_built == 0
        assert warm.metrics.phase1_solved == warm.metrics.phase2_solved == 0
        assert dump_cache(warm.cache) == sidecar

    def test_warm_clean_decodes_each_word_of_the_image_once(self, gcc_tenth):
        # Counts, not a stopwatch: nobody re-decodes through
        # ``Routine.code``, compiled code repeats itself enough for the
        # per-call distinct-word dict to pay, and ``decode_row`` cuts
        # only each form: the branch and memory words that differ in
        # their displacements alone share one.
        program, sidecar, _prime = gcc_tenth
        image = program_to_image(program)
        before = REGISTRY.snapshot()
        session = AnalysisSession.from_image_bytes(image.to_bytes(), STORE_OFF)
        session.analyze_incremental(cache=load_cache(sidecar))
        delta = REGISTRY.delta_since(before)
        assert delta["program.decode.words"] == image.instruction_count
        assert 0 < delta["program.decode.distinct"] <= 0.1 * image.instruction_count
        assert delta["program.decode.forms"] == 95
        assert delta["program.decode.forms"] < 0.1 * delta["program.decode.distinct"]

    def test_local_edit_builds_no_more_cfgs_than_it_solves(self, gcc_tenth):
        program, sidecar, _prime = gcc_tenth
        # The least-called editable routine: a local edit.
        graph = build_call_graph(program)
        victim = min(
            editable_routines(program),
            key=lambda name: len(graph.callers_of(name)),
        )
        edited = program_to_image(perturb_routine(program, victim)).to_bytes()
        before = REGISTRY.snapshot()
        session = AnalysisSession.from_image_bytes(edited, STORE_OFF)
        warm = session.analyze_incremental(cache=load_cache(sidecar))
        solved = max(warm.metrics.phase1_solved, warm.metrics.phase2_solved)
        assert warm.metrics.dirty_routines == [victim]
        assert 1 <= warm.metrics.cfgs_built <= solved < program.routine_count
        delta = REGISTRY.delta_since(before)
        assert delta["frontend.rows"] == warm.metrics.cfgs_built
        cold = AnalysisSession.from_image_bytes(edited, STORE_OFF).analyze()
        assert dump_summaries(warm.result) == dump_summaries(cold.result)


# ----------------------------------------------------------------------
# One front end per session
# ----------------------------------------------------------------------


class TestSessionFrontend:
    def test_query_then_incremental_then_analyze_share_it(self, small_benchmark):
        session = AnalysisSession.from_program(small_benchmark, STORE_OFF)
        name = small_benchmark.routine_names()[-1]
        queried = session.query(name)
        assert queried.metrics.cfgs_built == small_benchmark.routine_count
        before = REGISTRY.snapshot()
        incremental = session.analyze_incremental()
        assert incremental.frontend is queried.frontend
        assert incremental.metrics.cfgs_built == 0
        full = session.analyze()
        assert full.frontend is queried.frontend
        again = session.query(name)
        assert again.frontend is queried.frontend
        assert again.metrics.cfgs_built == 0
        assert REGISTRY.delta_since(before)["frontend.rows"] == 0
        assert dump_summaries(incremental.result) == dump_summaries(full.result)
        assert again.summary == full.result.summaries[name]

    def test_warm_incremental_then_analyze_builds_only_the_rest(
        self, small_benchmark
    ):
        prime = AnalysisSession.from_program(
            small_benchmark, STORE_OFF
        ).analyze_incremental()
        session = AnalysisSession.from_program(small_benchmark, STORE_OFF)
        warm = session.analyze_incremental(cache=prime.cache)
        assert warm.metrics.cfgs_built == 0
        before = REGISTRY.snapshot()
        full = session.analyze()
        assert full.frontend is warm.frontend
        delta = REGISTRY.delta_since(before)
        assert delta["frontend.rows"] == small_benchmark.routine_count
        assert dump_summaries(full.result) == dump_summaries(prime.result)
