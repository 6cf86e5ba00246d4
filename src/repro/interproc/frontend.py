"""The front-end product every solver path starts from.

Cold, incremental, sharded-parallel and demand-driven solves all need
the same per-program facts before any dataflow runs: the call graph,
its SCC condensation, every routine's content fingerprint — and the
CFGs of the routines that will actually be solved.  :class:`Frontend`
is that bundle, built once per program and handed around; the derived
facts are computed on first use and kept, so a session answering many
queries (or a run that both publishes to the store and refreshes a
sidecar) fingerprints its routines exactly once.

**Front-end records.**  Everything but the CFGs themselves can be had
without building a block, given what the previous run learned about
each routine's *shape*: where its calls sit, which constant feeds each
indirect one, how many blocks it has, which constants it lets escape
(:class:`repro.cfg.cfg.FrontendRecord`).  All of that is a function of
the routine's code bytes and its jump tables' routine-relative targets,
so a 64-bit hash of exactly those bytes (:func:`shape_key`) says
whether a record still applies.  :func:`build_frontend` takes the
records of the previous run (they ride in the
:class:`~repro.interproc.persist.SummaryCache`), re-resolves the sites
of every routine whose key matches against *this* image's symbol and
hint tables, and builds a CFG on the spot only for the rest; ``cfgs``
is a :class:`~repro.cfg.build.LazyCfgs`, so a matched routine gets its
CFG if and when a solver asks for it.  A cold run is the case where no
record matched.  Because a record depends on nothing but those bytes it
is as good in any other image that links the same routine body, so the
cross-image store (:mod:`repro.interproc.store`) files records by shape
key and :func:`build_frontend` asks it about the routines the previous
run's records do not cover.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
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
    parts = [routine.code_bytes()]
    for offset, targets in tables:
        parts.append(struct.pack(f"<qI{len(targets)}q", offset, len(targets), *targets))
    return crc64(b"".join(parts))


def _multiway_tables(
    routine: Routine, tables: JumpTables
) -> Iterator[Tuple[int, Sequence[int]]]:
    """``(jmp instruction index, distinct target instruction indices in
    table order)`` of each table a CFG would turn into a MULTIWAY
    block."""
    instructions = routine.instructions
    for offset, targets in tables:
        index, misaligned = divmod(offset, INSTRUCTION_SIZE)
        if misaligned or (
            instructions[index].control != ControlKind.INDIRECT_JUMP
        ):
            continue
        yield index, list(
            dict.fromkeys(target // INSTRUCTION_SIZE for target in targets)
        )


def _fingerprint(routine: Routine, multiway, sites: Sequence[CallSite]) -> int:
    parts: List[bytes] = [
        routine.code_bytes(), b"\x01" if routine.exported else b"\x00"
    ]
    for index, starts in multiway:
        parts.append(_JUMP_HEADER.pack(1, index, len(starts)))
        parts.append(struct.pack(f"<{len(starts)}I", *starts))
    for site in sites:
        parts.append(
            _SITE_HEADER.pack(
                2, site.block, site.instruction_index, int(site.indirect)
            )
        )
        for target in site.targets:
            parts.append(target.encode("utf-8") + b"\x00")
    return crc64(b"".join(parts))


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
    program's jump tables and the call graph's site tables, without the
    CFG.
    """
    blocks = cfg.blocks
    # A successor block starts exactly at a table target, and the CFG
    # keeps the distinct targets in table order.
    multiway = [
        (block.terminator_index, [blocks[index].start for index in block.successors])
        for block in blocks
        if block.terminator == TerminatorKind.MULTIWAY
    ]
    return _fingerprint(routine, multiway, cfg.call_sites)


@dataclass
class Frontend:
    """One program's call graph and (lazily built) CFGs, plus the facts
    derived on first use: the SCC condensation, the routine
    fingerprints, and the front-end records that let the next run skip
    most CFGs.  Immutable once built (as the program is), except that
    ``cfgs`` fills in as routines are asked for."""

    program: Program
    cfgs: LazyCfgs
    call_graph: CallGraph
    #: :func:`jump_tables` of the program.
    tables: Mapping[str, JumpTables]
    #: The records — the previous run's, or the store's — that
    #: applied, by routine (the routines whose call sites did not take
    #: a CFG to find).
    reused: Mapping[str, FrontendRecord]

    @cached_property
    def condensation(self) -> Condensation:
        return self.call_graph.condensation()

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

    @property
    def block_counts(self) -> Dict[str, int]:
        """Every routine's basic-block count (no CFG needed)."""
        return {
            name: record.block_count for name, record in self.records.items()
        }

    @property
    def cfgs_built(self) -> int:
        """How many of the program's CFGs exist so far."""
        return len(self.cfgs.built)


def build_frontend(
    program: Program,
    records: Optional[Mapping[str, FrontendRecord]] = None,
    cfgs: Optional[Dict[str, ControlFlowGraph]] = None,
    store: Optional["StoreView"] = None,
) -> Frontend:
    """The call graph of ``program`` and as few CFGs as it takes.

    ``records`` are a previous run's front-end records (any program's:
    each is used only if its shape key matches the same-named routine
    here); ``cfgs`` are CFGs somebody already built (the parallel cold
    front end); ``store`` is the run's
    :class:`~repro.interproc.store.StoreView`, asked, by shape key,
    about each routine ``records`` does not cover (another image may
    have linked the same body).  Every routine covered by none of them
    gets its CFG built now, in program order.
    """
    tables = jump_tables(program)
    matched: Dict[str, FrontendRecord] = {}
    adopted: Set[str] = set()
    missing = 0
    for routine in program:
        name = routine.name
        record = records.get(name) if records else None
        if record is None:
            missing += 1
            if store is None:
                continue  # nobody to ask: nothing to hash for
        key = shape_key(routine, tables.get(name, ()))
        if record is not None and record.shape_key == key:
            matched[name] = record
        elif store is not None:
            record = store.load_frontend(key)
            if record is not None:
                matched[name] = record
                adopted.add(name)
    lazy = LazyCfgs(program, cfgs)
    call_graph = build_call_graph(program, lazy, matched)
    # Whoever still has no CFG had its sites taken from its record.
    reused = {
        name: record
        for name, record in matched.items()
        if name not in lazy.built
    }
    # hit + miss + stale partition the routines by what ``records``
    # did for them; ``adopted`` says how many of the last two the store
    # covered instead.
    adopted.intersection_update(reused)
    hits = len(reused) - len(adopted)
    REGISTRY.inc("frontend.record.hit", hits)
    REGISTRY.inc("frontend.record.miss", missing)
    REGISTRY.inc("frontend.record.stale", len(lazy) - hits - missing)
    REGISTRY.inc("frontend.record.adopted", len(adopted))
    return Frontend(program, lazy, call_graph, tables, reused)
