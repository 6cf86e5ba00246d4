"""Per-basic-block local dataflow sets.

The paper's "Initialization" stage "consists mainly of the time spent
generating the DEF and UBD sets for each basic block" (§4):

* ``DEF[B]`` — registers defined (written) somewhere in block ``B``;
* ``UBD[B]`` — registers used before being defined in ``B`` (the
  registers whose incoming values the block reads).

Both are single masks, computed for every block by the front end's one
walk per routine (:func:`repro.cfg.build.build_cfg`, the CFG's
``ubd``/``defs`` rows); :func:`compute_local_sets` hands those rows out
as per-block :class:`LocalSets`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dataflow.regset import RegisterSet
from repro.cfg.cfg import ControlFlowGraph


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


def compute_local_sets(cfg: ControlFlowGraph) -> List[LocalSets]:
    """DEF/UBD for every block of ``cfg``, indexed by block index."""
    return [
        LocalSets(def_mask=defs, ubd_mask=ubd) for defs, ubd in zip(cfg.defs, cfg.ubd)
    ]

