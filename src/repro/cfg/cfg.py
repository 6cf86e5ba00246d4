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
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.isa.instructions import Instruction
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


@dataclass(frozen=True)
class CallSite:
    """A call instruction ending a basic block.

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
    tables and is re-derived by :func:`repro.cfg.build.classify_call`.
    """

    block: int
    instruction_index: int
    indirect: bool
    constant: Optional[int] = None


@dataclass(frozen=True)
class FrontendRecord:
    """What a warm run needs to know about a routine without its CFG.

    Everything here is a pure function of the routine's code bytes and
    its routine-relative jump-table targets, which is exactly what
    ``shape_key`` hashes (:func:`repro.interproc.frontend.shape_keys`):
    while the key matches, the call sites can be re-resolved against
    the current image and the escape candidates re-tested against its
    routine entries without building a block.  Records ride in the
    incremental sidecar, so they are untrusted input; construction
    rejects every shape no CFG could have produced.
    """

    shape_key: int
    block_count: int
    #: Call sites in block (= instruction) order.
    sites: Tuple[RecordedSite, ...]
    #: Sorted constants whose escape :func:`repro.cfg.callgraph.
    #: find_address_taken` would report if they named a routine entry.
    escape_candidates: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.block_count < 1:
            raise ValueError("front-end record with no blocks")
        block = index = -1
        for site in self.sites:
            # A call ends its block, so sites ascend in both
            # coordinates and block b ends no earlier than index b.
            if (
                site.block <= block
                or site.instruction_index <= index
                or site.instruction_index < site.block
            ):
                raise ValueError("front-end record sites out of order")
            if site.constant is not None and not site.indirect:
                raise ValueError("front-end record: constant on a direct call")
            block, index = site.block, site.instruction_index
        # The block after the last call (its return point) must exist.
        if block + 1 >= self.block_count:
            raise ValueError("front-end record site outside its blocks")


@dataclass
class BasicBlock:
    """A basic block of a routine's CFG.

    ``start``/``stop`` index into the routine's instruction list;
    ``instructions`` is the corresponding slice.  ``successors`` and
    ``predecessors`` hold block indices within the same CFG.
    """

    index: int
    start: int
    stop: int
    instructions: List[Instruction]
    terminator: TerminatorKind
    successors: List[int] = field(default_factory=list)
    predecessors: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def terminator_index(self) -> int:
        """Routine-relative index of the block's last instruction."""
        return self.stop - 1

    @property
    def is_exit(self) -> bool:
        return self.terminator in (
            TerminatorKind.RETURN,
            TerminatorKind.HALT,
            TerminatorKind.UNKNOWN_JUMP,
        )

    @property
    def ends_with_call(self) -> bool:
        return self.terminator == TerminatorKind.CALL

    @property
    def is_multiway(self) -> bool:
        return self.terminator == TerminatorKind.MULTIWAY


@dataclass
class ControlFlowGraph:
    """The CFG of one routine.

    Blocks are stored in instruction order; block 0 is the routine
    entry (routines have a single entry).  ``call_sites`` lists the
    blocks ended by calls; ``exits`` lists the exit blocks with their
    kinds.  ``recorded_sites`` parallels ``call_sites`` with the
    image-independent half of each site (what a front-end record keeps).
    """

    routine: Routine
    blocks: List[BasicBlock]
    call_sites: List[CallSite]
    exits: List[Tuple[int, ExitKind]]
    recorded_sites: List[RecordedSite] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._call_site_by_block: Dict[int, CallSite] = {
            site.block: site for site in self.call_sites
        }
        self._exit_kind_by_block: Dict[int, ExitKind] = dict(self.exits)

    @property
    def entry_index(self) -> int:
        """Index of the entry block (always 0)."""
        return 0

    @property
    def entry_block(self) -> BasicBlock:
        return self.blocks[0]

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def arc_count(self) -> int:
        """Number of intraprocedural arcs."""
        return sum(len(block.successors) for block in self.blocks)

    def block_of_instruction(self, instruction_index: int) -> BasicBlock:
        """The block containing routine instruction ``instruction_index``."""
        low, high = 0, len(self.blocks) - 1
        while low <= high:
            mid = (low + high) // 2
            block = self.blocks[mid]
            if instruction_index < block.start:
                high = mid - 1
            elif instruction_index >= block.stop:
                low = mid + 1
            else:
                return block
        raise CfgError(
            f"{self.routine.name!r}: instruction index {instruction_index} "
            f"is outside every block"
        )

    def call_site_of(self, block_index: int) -> Optional[CallSite]:
        """The call site ending block ``block_index``, if any."""
        return self._call_site_by_block.get(block_index)

    def exit_kind_of(self, block_index: int) -> Optional[ExitKind]:
        """The exit kind of block ``block_index``, if it is an exit."""
        return self._exit_kind_by_block.get(block_index)

    def return_exits(self) -> List[int]:
        """Indices of blocks that exit via RET."""
        return [index for index, kind in self.exits if kind == ExitKind.RETURN]

    def successors_of(self, block_index: int) -> Sequence[int]:
        return self.blocks[block_index].successors

    def predecessors_of(self, block_index: int) -> Sequence[int]:
        return self.blocks[block_index].predecessors

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    # ------------------------------------------------------------------
    # Consistency checking (used by tests and the property suite)
    # ------------------------------------------------------------------

    def check(self) -> None:
        """Verify structural invariants; raise :class:`CfgError`."""
        expected_start = 0
        for index, block in enumerate(self.blocks):
            if block.index != index:
                raise CfgError(f"block {index} has mismatched index {block.index}")
            if block.start != expected_start:
                raise CfgError(f"block {index} does not start where block "
                               f"{index - 1} stopped")
            if block.stop <= block.start:
                raise CfgError(f"block {index} is empty")
            expected_start = block.stop
            for successor in block.successors:
                if not 0 <= successor < len(self.blocks):
                    raise CfgError(f"block {index} has bad successor {successor}")
                if index not in self.blocks[successor].predecessors:
                    raise CfgError(
                        f"arc {index}->{successor} missing reverse predecessor"
                    )
            if block.is_exit and block.successors:
                raise CfgError(f"exit block {index} has successors")
        if expected_start != len(self.routine.instructions):
            raise CfgError("blocks do not cover the routine")
        for block_index, _kind in self.exits:
            if not self.blocks[block_index].is_exit:
                raise CfgError(f"exit list names non-exit block {block_index}")
