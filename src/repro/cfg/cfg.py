"""Per-routine control-flow graph data structures.

Following the paper, a basic block is ended by a branch **or by a call
instruction**; the instruction after a call starts a new block (the
call's *return point*).  Each block therefore has one of the terminator
kinds below, and the arcs out of a ``CALL`` block lead to its return
point, while the arcs out of a ``MULTIWAY`` block lead to the extracted
jump-table targets.

Exits are typed (:class:`ExitKind`): ``RETURN`` exits return to callers
and participate in phase-2 liveness; ``HALT`` exits terminate the
program (nothing is live after them); ``UNKNOWN_JUMP`` exits leave the
routine through an indirect jump whose targets could not be recovered,
so *all* registers must be assumed live (§3.5).
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from itertools import chain
from typing import List, NamedTuple, Optional, Tuple

from repro.program.model import Routine


class CfgError(ValueError):
    """Raised when a routine's control flow cannot be modeled."""


class TerminatorKind(enum.Enum):
    """Why a basic block ends."""

    FALLTHROUGH = "fallthrough"      # next instruction is a leader
    COND_BRANCH = "cond_branch"
    UNCOND_BRANCH = "uncond_branch"
    MULTIWAY = "multiway"            # indirect jump with a recovered table
    UNKNOWN_JUMP = "unknown_jump"    # indirect jump, targets unknown
    CALL = "call"                    # BSR/JSR; successor is the return point
    RETURN = "return"                # RET
    HALT = "halt"                    # CALL_PAL HALT


class ExitKind(enum.Enum):
    """How control leaves the routine at an exit block."""

    RETURN = "return"
    HALT = "halt"
    UNKNOWN_JUMP = "unknown_jump"


class CallSite(NamedTuple):
    """A call instruction ending a basic block: one plain row.

    ``targets`` lists every routine the call can reach:

    * one name — a direct call or a resolved indirect call;
    * several names — an indirect call covered by a linker-provided
      target-set hint (§3.5's suggested improvement: e.g. the
      implementations behind a virtual dispatch);
    * empty — an unknown target, analyzed under the calling-standard
      assumptions of §3.5.
    """

    block: int
    instruction_index: int
    targets: Tuple[str, ...]
    indirect: bool

    @property
    def callee(self) -> Optional[str]:
        """The unique target, when there is exactly one."""
        return self.targets[0] if len(self.targets) == 1 else None

    @property
    def is_unknown(self) -> bool:
        return not self.targets


class RecordedSite(NamedTuple):
    """The part of a call site that the routine's own shape decides.

    Where the call sits and, for an indirect call, the constant its
    target register provably holds at the call (``None`` when the
    block-local backward walk finds none).  Which routines the call
    reaches is *not* here: that depends on the image's symbol and hint
    tables and is re-derived by :func:`repro.cfg.build.resolve_call_sites`.
    """

    block: int
    instruction_index: int
    indirect: bool
    constant: Optional[int] = None


class _RecordFields(NamedTuple):
    shape_key: int
    block_count: int
    #: Call sites in block (= instruction) order.
    sites: Tuple[RecordedSite, ...]
    #: Sorted constants whose escape :func:`repro.cfg.callgraph.
    #: find_address_taken` would report if they named a routine entry.
    escape_candidates: Tuple[int, ...]


class FrontendRecord(_RecordFields):
    """What a warm run needs to know about a routine without its CFG.

    Everything here is a pure function of the routine's code bytes and
    its routine-relative jump-table targets, which is exactly what
    ``shape_key`` hashes (:func:`repro.interproc.frontend.shape_keys`):
    while the key matches, the call sites can be re-resolved against
    the current image and the escape candidates re-tested against its
    routine entries without building a block.  Records ride in the
    incremental sidecar, so they are untrusted input; construction
    rejects every shape no CFG could have produced (``ValueError``).
    """

    __slots__ = ()

    def __new__(
        cls,
        shape_key: int,
        block_count: int,
        sites: Tuple[RecordedSite, ...],
        escape_candidates: Tuple[int, ...],
    ) -> "FrontendRecord":
        if block_count < 1:
            raise ValueError("front-end record with no blocks")
        block = index = -1
        for site_block, site_index, indirect, constant in sites:
            # A call ends its block, so sites ascend in both
            # coordinates and block b ends no earlier than index b.
            if (
                site_block <= block
                or site_index <= index
                or site_index < site_block
            ):
                raise ValueError("front-end record sites out of order")
            if constant is not None and not indirect:
                raise ValueError("front-end record: constant on a direct call")
            block, index = site_block, site_index
        # The block after the last call (its return point) must exist.
        if block + 1 >= block_count:
            raise ValueError("front-end record site outside its blocks")
        return tuple.__new__(
            cls, (shape_key, block_count, sites, escape_candidates)
        )


#: A tuple, not a set: an enum's hash is a Python call.
_EXIT_TERMINATORS = (
    TerminatorKind.RETURN, TerminatorKind.HALT, TerminatorKind.UNKNOWN_JUMP
)


@dataclass
class ControlFlowGraph:
    """The CFG of one routine, held as flat per-block rows.

    Block ``b`` covers instructions ``starts[b]`` up to the next start
    (the routine's end for the last block); block 0 is the entry
    (routines have a single entry).  ``successors``, ``terminators``,
    ``ubd`` and ``defs`` are indexed by block: successor block tuples,
    why the block ends, and its used-before-defined and defined register
    masks (the paper's UBD and DEF sets).  ``call_sites`` lists the
    blocks ended by calls and ``recorded_sites`` the image-independent
    half of each (what a front-end record keeps); ``exits`` lists the
    exit blocks with their kinds.  ``saved`` is every register the
    routine stores to a stack slot in its entry block and reloads from
    that slot on every RETURN exit — the §3.4 candidates before the
    calling convention narrows them to its callee-saved registers.

    The rows are everything the PSG build, the call graph, the §3.4
    filter, the optimizer's passes, the reports and the whole-CFG
    baseline read, and what :func:`repro.cfg.build.build_cfg` writes in
    its one walk over the routine.
    """

    routine: Routine
    starts: List[int]
    successors: List[Tuple[int, ...]]
    terminators: List[TerminatorKind]
    ubd: List[int]
    defs: List[int]
    call_sites: List[CallSite]
    recorded_sites: List[RecordedSite]
    exits: List[Tuple[int, ExitKind]]
    saved: int

    @property
    def name(self) -> str:
        return self.routine.name

    @property
    def entry_index(self) -> int:
        """Index of the entry block (always 0)."""
        return 0

    @property
    def block_count(self) -> int:
        return len(self.starts)

    @property
    def arc_count(self) -> int:
        """Number of intraprocedural arcs."""
        return sum(map(len, self.successors))

    def bounds(self, block_index: int) -> Tuple[int, int]:
        """``(start, stop)`` instruction indices of block ``block_index``."""
        starts = self.starts
        if block_index + 1 < len(starts):
            return starts[block_index], starts[block_index + 1]
        return starts[block_index], len(self.routine.rows)

    def return_exits(self) -> List[int]:
        """Indices of blocks that exit via RET."""
        return [index for index, kind in self.exits if kind == ExitKind.RETURN]

    def check(self) -> None:
        """Verify the structural invariants on the rows; raise
        :class:`CfgError`: non-empty blocks covering the routine, every
        row one entry per block, successors in range, exits — every
        block a terminator ends the routine at, each once — without
        successors."""
        starts, successors = self.starts, self.successors
        blocks = len(starts)
        if not blocks or starts[0] != 0:
            raise CfgError("blocks do not start at the routine entry")
        if not all(map(operator.lt, starts, starts[1:])):
            raise CfgError("a block is empty")
        if starts[-1] >= len(self.routine.rows):
            raise CfgError("blocks do not cover the routine")
        rows = (successors, self.terminators, self.ubd, self.defs)
        if any(len(row) != blocks for row in rows):
            raise CfgError("a per-block row does not have one entry per block")
        arcs = list(chain.from_iterable(successors))
        if arcs and (min(arcs) < 0 or max(arcs) >= blocks):
            raise CfgError("an arc leaves the routine's blocks")
        exits = {index for index, _kind in self.exits}
        if len(exits) != len(self.exits) or len(exits) != sum(
            map(self.terminators.count, _EXIT_TERMINATORS)
        ):
            raise CfgError("the exit list does not name each exit block once")
        for index in exits:
            if self.terminators[index] not in _EXIT_TERMINATORS:
                raise CfgError(f"exit list names non-exit block {index}")
            if successors[index]:
                raise CfgError(f"exit block {index} has successors")
