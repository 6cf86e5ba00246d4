"""Per-basic-block local dataflow sets.

The paper's "Initialization" stage "consists mainly of the time spent
generating the DEF and UBD sets for each basic block" (§4):

* ``DEF[B]`` — registers defined (written) somewhere in block ``B``;
* ``UBD[B]`` — registers used before being defined in ``B`` (the
  registers whose incoming values the block reads).

Both are single masks computed in one forward pass over the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.isa.instructions import Instruction
from repro.dataflow.regset import RegisterSet
from repro.cfg.cfg import BasicBlock, ControlFlowGraph


@dataclass(frozen=True)
class LocalSets:
    """DEF and UBD masks for one basic block."""

    def_mask: int
    ubd_mask: int

    @property
    def defs(self) -> RegisterSet:
        """Registers defined in the block."""
        return RegisterSet.from_mask(self.def_mask)

    @property
    def used_before_defined(self) -> RegisterSet:
        """Registers read before any write in the block."""
        return RegisterSet.from_mask(self.ubd_mask)


def local_sets_of_instructions(instructions: Iterable[Instruction]) -> LocalSets:
    """Compute DEF/UBD over an instruction sequence."""
    def_mask = 0
    ubd_mask = 0
    for instruction in instructions:
        ubd_mask |= instruction.use_mask & ~def_mask
        def_mask |= instruction.def_mask
    return LocalSets(def_mask=def_mask, ubd_mask=ubd_mask)


def compute_local_sets(cfg: ControlFlowGraph) -> List[LocalSets]:
    """DEF/UBD for every block of ``cfg``, indexed by block index."""
    return [local_sets_of_instructions(block.instructions) for block in cfg.blocks]


def compute_program_local_sets(
    cfgs: Dict[str, ControlFlowGraph]
) -> Dict[str, List[LocalSets]]:
    """DEF/UBD for every block of every routine."""
    return {name: compute_local_sets(cfg) for name, cfg in cfgs.items()}
