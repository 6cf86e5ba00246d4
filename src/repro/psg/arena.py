"""The flat arena: how a PSG's edges are stored and what the solver reads.

:class:`~repro.psg.build.PsgAssembly` appends every flow-summary edge
once, into two coordinated representations that live here:

**The edge table** — ``edge_src``/``edge_dst``/``edge_label``, three
parallel ``array('i')`` in global edge order (grouped by routine, by
target within a routine, sources in order within a target), the last
indexing ``labels``, the build's interned ``(MAY-USE, MAY-DEF,
MUST-DEF)`` mask triples.  Twelve bytes an edge; the counting surface,
``check()`` and the DOT export read it.

**The iteration rows** — the same edges regrouped per source node for
the CPython interpreter.  The union half of each transfer factors
algebraically — ``⋁ (label ∨ state[dst])`` equals ``(⋁ label) ∨ ⋁
state[dst]`` — so the label contribution is folded to one int per node
(``defs_static``/``uses_static``) and the per-edge tuples carry only
what cannot factor: ``flow_view[n] = ((dst, MUST-DEF, ~MUST-DEF),
...)`` — MUST-DEF for the intersection half, its complement so the
MAY-USE passes kill without a unary op per visit.  (One tuple an edge:
a row per pass was a second tuple per edge, the largest single cost of
the layout, and the phases time the same either way.)  A solver visit
then unpacks each edge with one ``FOR_ITER`` + ``UNPACK_SEQUENCE`` and
two or three indexed loads, and the ints are boxed once at build time
— once per distinct label — instead of on every access.  Rows keep
global edge order per source: the order decides the solvers' visit
counts.  (Packing MAY-DEF and complemented MUST-DEF into
one 128-bit accumulator was tried and measured *slower*: every
intermediate exceeds CPython's fast small-int path, so the saved loads
were repaid in big-int allocations.)

The call-return side is filled once every entry node is known:

* ``cr_dst[n]`` — the call-return successor of a call node (−1
  elsewhere), ``cr_nodes`` the call nodes themselves;
* ``cr_callees[n]`` — the entry nodes of a resolved call's possible
  callees (``cr_single[n]`` is the entry when there is exactly one,
  else −1); an empty row with a successor present is an unknown call,
  whose fixed §3.5 label triple sits in ``cr_unknown[n]``;
* ``dep1_view``/``dep2_view`` — who must be revisited when a node
  changes: flow sources in global edge order, then the call node of a
  return node, then (phase 1 only) every call site composing an entry
  node's summary.  The two differ only at entry nodes that have
  callers and share the row tuple everywhere else;
* ``ret_view[n]`` — per return node, the RETURN-kind exit nodes of
  every possible callee (the Figure-11 dashed copy arcs).

Everything here is immutable topology or construction-time labels;
per-solve state (the mask vectors, the frozen set, phase-1 call-return
relabeling) stays with the solve.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.dataflow.equations import Triple


@dataclass(slots=True, eq=False)
class PsgArena:
    """One PSG's edge table and solver rows (module doc); filled by
    :class:`~repro.psg.build.PsgAssembly`."""

    edge_src: array
    edge_dst: array
    edge_label: array
    labels: List[Triple]
    flow_view: List[Tuple[Tuple[int, int, int], ...]]
    defs_static: List[int]
    uses_static: List[int]
    cr_dst: List[int]
    cr_single: List[int]
    cr_nodes: List[int]
    cr_callees: List[Tuple[int, ...]]
    cr_unknown: Dict[int, Triple]
    dep1_view: List[Tuple[int, ...]]
    dep2_view: List[Tuple[int, ...]]
    ret_view: List[Tuple[int, ...]]


# Read only by the frozen stage replay in perf/workloads.py;
# re-pointing that replay deletes it.
def get_arena(psg) -> PsgArena:
    """The arena the build made for ``psg``."""
    return psg.arena
