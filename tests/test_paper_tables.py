"""The paper's §4 tables: each table of :mod:`tests.paper_tables` must
equal ``tests/golden/paper_tables.json`` in its structural columns (run
``python -m tests.paper_tables`` after an *intended* change), hold the
claims in :data:`BANDS`, and be rendered in EXPERIMENTS.md as the golden.
"""

import json

import pytest

from tests import paper_tables
from tests.paper_tables import TABLES, structural

GOLDEN = json.loads(paper_tables.GOLDEN.read_text(encoding="utf-8"))

#: Per-row bands on the paper's claims.  Table 3: PSG nodes = entries +
#: exits + 2·calls + branch nodes.  Table 4: the paper's four call-outs
#: cut flow edges by ≥ 20 %, and as k+m − k·m = 1 − (k−1)(m−1) ≤ 1, no
#: branch node (k sources, m targets) adds more than one net edge.
BANDS = {
    "Table 2": lambda row: row["Memory (bytes)"] > 0 and row["seconds"]["Time (s)"] > 0,
    "Table 3": lambda row: round(row["PSG Nodes/Rtn"] * row["Routines"]) == (
        row["Routines"] + round(row["Exits/Rtn"] * row["Routines"])
        + 2 * round(row["Calls/Rtn"] * row["Routines"]) + row["Branch nodes"]),
    "Table 4": lambda row: (
        (row["Edge Reduction %"] >= 20.0
         or row["Benchmark"] not in ("gcc", "perl", "sqlservr", "vc"))
        and row["Edges with"] <= row["Edges without"] + row["Branch nodes"]
        and row["Node Increase %"] >= 0),
    "Table 5": lambda row: row["Nodes/Block"] < 1 and row["Edges/Arc"] < 1,
    "Figure 1": lambda row: row["Behaviour preserved"] and row["Dyn improvement %"] > 1.0,
    "PSG vs whole-program CFG": lambda row: (
        row["Summaries equal"] and row["CFG memory (bytes)"] > row["PSG memory (bytes)"]),
    "Ablation B": lambda row: (
        row["avg |call-killed| (on)"] <= row["avg |call-killed| (off)"]
        and row["optimizable sites (on)"] >= row["optimizable sites (off)"]),
    "Ablation C": lambda row: (
        row["Behaviour preserved"]
        and row["instr removed (hints)"] >= row["instr removed (no hints)"]),
}


@pytest.fixture(scope="module")
def tables():
    yield paper_tables.measure()
    paper_tables.program.cache_clear()  # the rest of the suite need not
    paper_tables.analysis.cache_clear()  # carry these programs and analyses


@pytest.mark.parametrize("title", list(TABLES))
def test_structural_columns_match_golden(tables, title):
    assert structural(tables[title]) == structural(GOLDEN["tables"][title])


@pytest.mark.parametrize("title", list(BANDS))
def test_every_row_holds_the_papers_claim(tables, title):
    assert [row["Benchmark"] for row in tables[title] if not BANDS[title](row)] == []


def test_figure15_memory_grows_linearly(tables):
    k = paper_tables.slope((row["Blocks"], row["Memory (bytes)"]) for row in tables["Figure 15"])
    assert 0.95 <= k <= 1.05


def test_experiments_tables_are_the_golden_rendered():
    blocks = dict(paper_tables.BLOCK.findall(paper_tables.EXPERIMENTS.read_text(encoding="utf-8")))
    assert list(GOLDEN["tables"]) == list(TABLES) and sorted(blocks) == sorted(TABLES)
    for title, body in blocks.items():
        assert body == paper_tables.render(GOLDEN["tables"][title], GOLDEN["host"]) + "\n", title
