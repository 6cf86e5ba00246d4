"""The front-end product every solver path starts from.

Cold, incremental, sharded-parallel and demand-driven solves all need
the same per-program facts before any dataflow runs: the per-routine
CFGs, the call graph over them, its SCC condensation, and — whenever a
cache or the cross-image store is involved — every routine's content
fingerprint.  :class:`Frontend` is that bundle, built once per program
and handed around; the two derived facts are computed on first use and
kept, so a session answering many queries (or a run that both
publishes to the store and refreshes a sidecar) fingerprints its
routines exactly once.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List

from repro.cfg.build import build_all_cfgs
from repro.cfg.callgraph import CallGraph, Condensation, build_call_graph
from repro.cfg.cfg import ControlFlowGraph, TerminatorKind
from repro.interproc.persist import crc64
from repro.isa.encoding import encode_stream
from repro.program.model import Program, Routine

_JUMP_HEADER = struct.Struct("<BII")
_SITE_HEADER = struct.Struct("<BIIB")


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
    """
    code = routine.code
    if code is None:
        code = encode_stream(routine.instructions)
    parts: List[bytes] = [code, b"\x01" if routine.exported else b"\x00"]
    blocks = cfg.blocks
    for block in blocks:
        if block.terminator == TerminatorKind.MULTIWAY:
            # A successor block starts exactly at a table target, and
            # the CFG keeps the distinct targets in table order.
            starts = [blocks[index].start for index in block.successors]
            parts.append(
                _JUMP_HEADER.pack(1, block.terminator_index, len(starts))
            )
            parts.append(struct.pack(f"<{len(starts)}I", *starts))
    for site in cfg.call_sites:
        parts.append(
            _SITE_HEADER.pack(
                2, site.block, site.instruction_index, int(site.indirect)
            )
        )
        for target in site.targets:
            parts.append(target.encode("utf-8") + b"\x00")
    return crc64(b"".join(parts))


@dataclass
class Frontend:
    """One program's CFGs and call graph, plus the facts derived from
    them on first use: the SCC condensation and the routine
    fingerprints.  Immutable once built (as the program is)."""

    program: Program
    cfgs: Dict[str, ControlFlowGraph]
    call_graph: CallGraph

    @cached_property
    def condensation(self) -> Condensation:
        return self.call_graph.condensation()

    @cached_property
    def fingerprints(self) -> Dict[str, int]:
        """:func:`routine_fingerprint` of every routine, by name."""
        return {
            name: routine_fingerprint(self.program.routine(name), cfg)
            for name, cfg in self.cfgs.items()
        }


def build_frontend(program: Program) -> Frontend:
    """Build every CFG and the call graph of ``program``."""
    cfgs = build_all_cfgs(program)
    return Frontend(program, cfgs, build_call_graph(program, cfgs))
