"""The front-end product every solver path starts from.

Cold, incremental and demand-driven solves all need
the same per-program facts before any dataflow runs: the call graph,
its SCC condensation, every routine's content fingerprint — and the
CFGs (:class:`repro.cfg.cfg.ControlFlowGraph`, flat block rows) of the
routines that will actually be solved.  :class:`Frontend` is that bundle, built once
per program and handed around; the derived facts are computed on first
use and kept, so a session answering many queries (or a run that both
publishes to the store and refreshes a sidecar) fingerprints its
routines exactly once.

**Front-end records.**  Everything but the CFGs themselves can be had
without walking a routine, given what the previous run learned about
each routine's *shape*: where its calls sit, which constant feeds each
indirect one, how many blocks it has, which constants it lets escape
(:class:`repro.cfg.cfg.FrontendRecord`).  All of that is a function of
the routine's code bytes and its jump tables' routine-relative targets,
so a 64-bit hash of exactly those bytes (:func:`shape_key`) says
whether a record still applies.  Every pack
(:mod:`repro.interproc.persist`) files records by shape key.
:func:`build_frontend` takes the records of the previous run (they ride
in the :class:`~repro.interproc.persist.SummaryCache`), re-resolves the
sites of every routine whose key they hold against *this* image's
symbol and hint tables, and walks only the rest on the spot; ``cfgs``
is a :class:`~repro.cfg.build.LazyCfgs`, so a matched routine is walked
if and when a solver asks for its CFG.  A cold run is the case where no
record matched.  Because a record depends on nothing but those bytes it
is as good in any other image that links the same routine body, so
:func:`build_frontend` asks the cross-image store
(:mod:`repro.interproc.store`) about the routines the previous run's
records do not cover.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional
from typing import Sequence, Set, Tuple

from repro.cfg.build import LazyCfgs
from repro.cfg.callgraph import CallGraph, Condensation, build_call_graph
from repro.cfg.cfg import (
    CallSite,
    ControlFlowGraph,
    FrontendRecord,
    TerminatorKind,
)
from repro.interproc.persist import crc64
from repro.isa.encoding import INSTRUCTION_SIZE
from repro.isa.instructions import ControlKind
from repro.obs.metrics import REGISTRY
from repro.program.model import Program, Routine
from repro.psg.build import PsgFragment

if TYPE_CHECKING:  # store.py imports this module
    from repro.interproc.store import StoreView

_JUMP_HEADER = struct.Struct("<BII")
_SITE_HEADER = struct.Struct("<BIIB")

#: One routine's jump tables in instruction order: ``(byte offset of
#: the jmp within the routine, target byte offsets within the routine)``.
JumpTables = Sequence[Tuple[int, Tuple[int, ...]]]


def jump_tables(program: Program) -> Dict[str, List[Tuple[int, Tuple[int, ...]]]]:
    """Every recovered jump table, grouped by owning routine and made
    routine-relative (so a routine that merely moved keeps its tables)."""
    tables: Dict[str, List[Tuple[int, Tuple[int, ...]]]] = {}
    for address, targets in sorted(program.jump_targets.items()):
        routine = program.routine_containing(address)
        if routine is not None:
            base = routine.address
            tables.setdefault(routine.name, []).append(
                (address - base, tuple(target - base for target in targets))
            )
    return tables


def shape_key(routine: Routine, tables: JumpTables = ()) -> int:
    """The 64-bit hash a :class:`FrontendRecord` is valid under: the
    routine's code bytes and its jump tables, nothing else."""
    parts = [routine.code]
    for offset, targets in tables:
        parts.append(struct.pack(f"<qI{len(targets)}q", offset, len(targets), *targets))
    return crc64(b"".join(parts))


def _multiway_tables(
    routine: Routine, tables: JumpTables
) -> Iterator[Tuple[int, Sequence[int]]]:
    """``(jmp instruction index, distinct target instruction indices in
    table order)`` of each table a CFG would turn into a MULTIWAY
    block."""
    rows = routine.rows
    for offset, targets in tables:
        index, misaligned = divmod(offset, INSTRUCTION_SIZE)
        if misaligned or rows[index][0] is not ControlKind.INDIRECT_JUMP:
            continue
        yield index, list(
            dict.fromkeys(target // INSTRUCTION_SIZE for target in targets)
        )


def _fingerprint(routine: Routine, multiway, sites: Sequence[CallSite]) -> int:
    parts: List[bytes] = [
        routine.code, b"\x01" if routine.exported else b"\x00"
    ]
    for index, starts in multiway:
        parts.append(_JUMP_HEADER.pack(1, index, len(starts)))
        parts.append(struct.pack(f"<{len(starts)}I", *starts))
    for block, index, targets, indirect in sites:
        parts.append(_SITE_HEADER.pack(2, block, index, indirect))
        parts += map(_target_bytes, targets)
    return crc64(b"".join(parts))


@lru_cache(maxsize=4096)
def _target_bytes(name: str) -> bytes:
    """A call target as a fingerprint hashes it (names recur per site)."""
    return name.encode("utf-8") + b"\x00"


def routine_fingerprint(routine: Routine, cfg: ControlFlowGraph) -> int:
    """The 64-bit content fingerprint that scopes a cached summary.

    Covers everything the routine's own analysis inputs are a function
    of:

    * its code bytes — the image's own text slice for a routine lifted
      by the disassembler, the encoded instructions otherwise (the two
      are the same bytes);
    * the exported flag (it feeds the §3.4/§3.5 externally-callable
      treatment);
    * each jump table's targets, as instruction indices within the
      routine — table entries live in the data section, so they can
      change while the code bytes do not, and being routine-relative
      they do not change when the routine merely moves;
    * the resolved target list of each call site (targets come from
      image hint tables and from the names of the routines at the
      called addresses, so they too can change under fixed code bytes).

    :attr:`Frontend.fingerprints` computes the same value from the
    program's jump tables and the call graph's site tables, without
    walking the routine.
    """
    starts = cfg.starts
    # A successor block starts exactly at a table target, and the CFG
    # keeps the distinct targets in table order.
    multiway = [
        (cfg.bounds(block)[1] - 1, [starts[index] for index in successors])
        for block, (terminator, successors) in enumerate(
            zip(cfg.terminators, cfg.successors)
        )
        if terminator == TerminatorKind.MULTIWAY
    ]
    return _fingerprint(routine, multiway, cfg.call_sites)


@dataclass
class Frontend:
    """One program's call graph and (lazily built) CFGs, plus the facts
    derived on first use: the SCC condensation, the routine
    fingerprints, and the front-end records that let the next run skip
    most walks.  Immutable once built (as the program is), except that
    ``cfgs`` fills in as solves ask for it and empties again as a run
    labels each routine: the incremental engine, and a serial run that
    built the front end itself
    (:func:`repro.interproc.analysis._analyze_program`), release a CFG's
    rows once its routine is labeled.  The engine keeps what the
    session's later runs read instead (``fragments``, ``arcs``), so a
    session walks each routine at most once whichever runs follow."""

    program: Program
    cfgs: LazyCfgs
    call_graph: CallGraph
    #: :func:`jump_tables` of the program.
    tables: Mapping[str, JumpTables]
    #: The records — the previous run's, or the store's — that
    #: applied, by routine (the routines whose call sites did not take
    #: a CFG to find).
    reused: Mapping[str, FrontendRecord]
    #: The labeled PSG fragment of each routine whose rows the
    #: incremental engine released, by the configuration it was labeled
    #: under (:func:`repro.interproc.store.config_digest`) and name:
    #: later runs under that configuration append it instead of walking
    #: and labeling the routine again (:meth:`labeled`).
    fragments: Dict[int, Dict[str, PsgFragment]] = field(default_factory=dict)
    #: The same routines' intraprocedural arc counts: what a
    #: whole-program run counts of a CFG besides its blocks (in
    #: ``records``) and call sites (in ``call_graph``).
    arcs: Dict[str, int] = field(default_factory=dict)

    @cached_property
    def condensation(self) -> Condensation:
        return self.call_graph.condensation()

    @cached_property
    def outside_callees(self) -> Dict[str, Tuple[Optional[str], ...]]:
        """Every routine's call targets, in
        :meth:`~repro.cfg.callgraph.CallGraph.callees_of` order, each
        ``None`` that lies in the routine's own component."""
        component_of = self.condensation.component_of
        callees_of = self.call_graph.callees_of
        return {
            name: tuple([
                None if component_of[callee] == component_of[name] else callee
                for callee in callees_of(name)
            ])
            for name in component_of
        }

    @cached_property
    def fingerprints(self) -> Dict[str, int]:
        """:func:`routine_fingerprint` of every routine, by name."""
        sites = self.call_graph.sites
        tables = self.tables
        return {
            routine.name: _fingerprint(
                routine,
                _multiway_tables(routine, tables.get(routine.name, ())),
                sites[routine.name],
            )
            for routine in self.program
        }

    @cached_property
    def records(self) -> Dict[str, FrontendRecord]:
        """Every routine's front-end record under its current shape
        key: the reused one, else derived from the routine's CFG (which
        exists already: that is how its call sites were found)."""
        records: Dict[str, FrontendRecord] = {}
        for routine in self.program:
            name = routine.name
            record = self.reused.get(name)
            if record is None:
                cfg = self.cfgs[name]
                record = FrontendRecord(
                    shape_key=shape_key(routine, self.tables.get(name, ())),
                    block_count=cfg.block_count,
                    sites=tuple(cfg.recorded_sites),
                    escape_candidates=self.call_graph.escape_candidates[name],
                )
            records[name] = record
        return records

    @cached_property
    def records_by_key(self) -> Dict[int, FrontendRecord]:
        """:attr:`records` by shape key, as a cache files them."""
        return {record.shape_key: record for record in self.records.values()}

    @property
    def block_counts(self) -> Dict[str, int]:
        """Every routine's basic-block count (no walk needed)."""
        return {
            name: record.block_count for name, record in self.records.items()
        }

    def labeled(self, context: int) -> Dict[str, PsgFragment]:
        """The fragments labeled under the configuration of digest
        ``context``, by routine name (a run adds to it)."""
        return self.fragments.setdefault(context, {})

    @property
    def cfgs_built(self) -> int:
        """How many routine walks ``cfgs`` has made so far (a routine
        whose rows were released and asked for again counts twice)."""
        return self.cfgs.walks


def build_frontend(
    program: Program,
    records: Optional[Mapping[int, FrontendRecord]] = None,
    store: Optional["StoreView"] = None,
) -> Frontend:
    """The call graph of ``program`` and as few walks as it takes.

    ``records`` are front-end records by shape key (a previous run's,
    of any program: each applies to every routine whose body has its
    key); ``store`` is the run's
    :class:`~repro.interproc.store.StoreView`, asked, by shape key,
    about each routine ``records`` do not cover (another image may
    have linked the same body).  Every routine covered by none of them
    is walked now, in program order.
    """
    tables = jump_tables(program)
    matched: Dict[str, FrontendRecord] = {}
    adopted: Set[str] = set()
    missing = 0
    if records or store is not None:
        for routine in program:
            name = routine.name
            key = shape_key(routine, tables.get(name, ()))
            record = records.get(key) if records else None
            if record is None:
                missing += 1
                if store is not None:
                    record = store.frontend_record(key)
                    if record is not None:
                        adopted.add(name)
            if record is not None:
                matched[name] = record
        if store is not None:
            if adopted:
                REGISTRY.inc("store.frontend.hit", len(adopted))
            if missing > len(adopted):
                REGISTRY.inc("store.frontend.miss", missing - len(adopted))
    else:
        missing = program.routine_count  # nothing to ask: nothing to hash
    walked = LazyCfgs(program)
    call_graph = build_call_graph(program, walked, matched)
    # Whoever is still unwalked had its sites taken from its record.
    reused = {
        name: record
        for name, record in matched.items()
        if name not in walked.built
    }
    # hit + miss + stale partition the routines by what ``records``
    # did for them; ``adopted`` says how many of the last two the store
    # covered instead.
    adopted.intersection_update(reused)
    hits = len(reused) - len(adopted)
    REGISTRY.inc("frontend.record.hit", hits)
    REGISTRY.inc("frontend.record.miss", missing)
    REGISTRY.inc("frontend.record.stale", len(walked) - hits - missing)
    REGISTRY.inc("frontend.record.adopted", len(adopted))
    return Frontend(program, walked, call_graph, tables, reused)
