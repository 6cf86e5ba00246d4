"""Phase-1 verified against brute-force path enumeration.

For small random *acyclic* single-routine PSGs we can compute the
entry-node sets directly from their definition: compose each edge
label along every entry→exit path, then combine across paths (MAY by
union, MUST by intersection).  The worklist engine must agree exactly.

Composition of two consecutive path segments (A then B):

    MAY-USE  = A.may_use  ∪ (B.may_use − A.must_def)
    MAY-DEF  = A.may_def  ∪ B.may_def
    MUST-DEF = A.must_def ∪ B.must_def
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfg.cfg import ExitKind
from repro.dataflow.equations import SummaryTriple
from repro.interproc.phase1 import run_phase1
from repro.psg.build import PsgAssembly
from repro.psg.graph import RoutinePSG
from repro.psg.nodes import NodeKind, PSGNode

_REGS = 6  # small universe keeps enumeration readable
_MASK = (1 << _REGS) - 1


def compose(a: SummaryTriple, b: SummaryTriple) -> SummaryTriple:
    return SummaryTriple(
        may_use=a.may_use | (b.may_use & ~a.must_def),
        may_def=a.may_def | b.may_def,
        must_def=a.must_def | b.must_def,
    )


def build_random_dag(rng: random.Random):
    """A random layered DAG: entry -> (branch layer) -> exits.

    Uses only entry, branch and exit nodes (no calls), which keeps the
    path semantics exact while still exercising joins, fan-out and the
    ∩ meet.
    """
    assembly = PsgAssembly()
    nodes = assembly.nodes
    edges = []

    def node(kind, **extra):
        n = PSGNode(id=len(nodes), kind=kind, routine="f", block=len(nodes),
                    **extra)
        nodes.append(n)
        return n.id

    def triple():
        may_def = rng.getrandbits(_REGS)
        must_def = may_def & rng.getrandbits(_REGS)
        return (rng.getrandbits(_REGS), may_def, must_def)

    entry = node(NodeKind.ENTRY)
    layers = [[entry]]
    for _ in range(rng.randrange(0, 3)):
        layer = [node(NodeKind.BRANCH) for _ in range(rng.randrange(1, 3))]
        layers.append(layer)
    exits = [
        node(NodeKind.EXIT, exit_kind=ExitKind.RETURN)
        for _ in range(rng.randrange(1, 3))
    ]
    layers.append(exits)

    # Every node connects to >=1 node of the next layer.
    for above, below in zip(layers, layers[1:]):
        for src in above:
            targets = rng.sample(below, rng.randrange(1, len(below) + 1))
            for dst in targets:
                edges.append((src, dst, triple()))
        for dst in below:  # ensure reachability of every node
            if not any(edge[1] == dst for edge in edges):
                edges.append((rng.choice(above), dst, triple()))

    assembly.routines["f"] = RoutinePSG(
        routine="f",
        entry_node=entry,
        exit_nodes=[(x, ExitKind.RETURN) for x in exits],
        call_pairs=[],
        branch_nodes=[n.id for n in nodes if n.kind == NodeKind.BRANCH],
        flow_edge_indices=assembly.add_flow_edges(edges),
    )
    return assembly.finish(partial=False), entry, set(exits)


def enumerate_paths(psg, entry, exits):
    """Every entry→exit label composition, by DFS (the graph is a DAG)."""
    out_edges = {}
    for edge in psg.flow_edges:
        out_edges.setdefault(edge.src, []).append(edge)
    results = []

    def walk(node, acc):
        if node in exits:
            results.append(acc)
            return
        for edge in out_edges.get(node, []):
            walk(edge.dst, compose(acc, edge.label))

    for edge in out_edges.get(entry, []):
        walk(edge.dst, edge.label)
    return results


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_phase1_equals_path_enumeration(seed):
    rng = random.Random(seed)
    psg, entry, exits = build_random_dag(rng)
    paths = enumerate_paths(psg, entry, exits)
    assert paths, "every generated DAG must have a path"

    expected_mu = 0
    expected_md = 0
    expected_xd = _MASK
    for path in paths:
        expected_mu |= path.may_use
        expected_md |= path.may_def
        expected_xd &= path.must_def

    result = run_phase1(psg, {}, 0, list(range(len(psg.nodes))))
    assert result.may_use[entry] & _MASK == expected_mu
    assert result.may_def[entry] & _MASK == expected_md
    assert result.must_def[entry] & _MASK == expected_xd
