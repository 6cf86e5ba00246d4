"""Per-block and per-edge records rebuilt from the CFG and PSG rows, for
the oracles and tests that read a graph one record at a time."""

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

from repro.cfg.cfg import TerminatorKind
from repro.dataflow.equations import SummaryTriple


@dataclass
class Block:
    """A basic block: instructions ``start`` to ``stop`` of its routine."""
    index: int
    start: int
    stop: int
    terminator: TerminatorKind
    successors: List[int]
    predecessors: List[int] = field(default_factory=list)


def blocks_of(cfg) -> List[Block]:
    """The CFG's rows as :class:`Block` records, predecessors wired."""
    stops = cfg.starts[1:] + [len(cfg.routine.rows)]
    rows = zip(cfg.starts, stops, cfg.terminators, cfg.successors)
    blocks = [Block(i, *row[:3], list(row[3])) for i, row in enumerate(rows)]
    for block in blocks:
        for successor in block.successors:
            blocks[successor].predecessors.append(block.index)
    return blocks


Edge = NamedTuple("Edge", [("src", int), ("dst", int), ("label", SummaryTriple)])


def flow_edges_of(psg) -> List[Edge]:
    """The PSG's edge table as :class:`Edge` records, in edge order."""
    arena, labels = psg.arena, [SummaryTriple(*key) for key in psg.arena.labels]
    rows = zip(arena.edge_src, arena.edge_dst, arena.edge_label)
    return [Edge(src, dst, labels[label]) for src, dst, label in rows]


class CallReturn(NamedTuple):
    """One call-return edge: an entry of the PSG's ``cr_*`` columns."""
    src: int
    dst: int
    callees: Tuple[str, ...]
    label: SummaryTriple

    @property
    def callee(self) -> Optional[str]:
        return self.callees[0] if len(self.callees) == 1 else None

    @property
    def is_unknown(self) -> bool:
        return not self.callees


def call_return_edges_of(psg) -> List[CallReturn]:
    """The PSG's call-return columns as :class:`CallReturn` records, in
    edge order, with the labels they hold now."""
    columns = (psg.cr_call, psg.cr_return, psg.cr_targets, psg.cr_label)
    return list(map(CallReturn, *columns))
