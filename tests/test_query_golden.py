"""Query-session golden: one session's drill-down of 12 demand queries.

``tests/golden/query_session.json`` pins, for a gcc-shaped image at
scale 0.1 (generator seed 0, store off), a session that queries the
entry routine and then one routine from each of 11 equal strata of the
routines ordered by caller-cone size, smallest cone first.  Per query
it records the SHA-256 of the answer's ``SUM1`` bytes
(``dump_summaries(result.result)``) and the query's own ledger
counters: ``engine.{reused,solved,regions,sccs_solved}`` and
``solver.iterations`` per phase, ``cache.{hit,stale,miss}``,
``cache.fragment.*`` and ``query.*``.

Each query's answer is byte-identical to an exhaustive solve; the
counters say how much of its cone the session re-validated, reused and
solved.  How a warm query finds its work may change; none of these may.

To regenerate after an *intended* change to any of them::

    PYTHONPATH=src python -m tests.test_query_golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import AnalysisConfig, AnalysisSession
from repro.interproc.persist import dump_summaries
from repro.workloads.generator import GeneratorConfig, generate_image
from repro.workloads.shapes import shape_by_name

GOLDEN = Path(__file__).parent / "golden" / "query_session.json"
SHAPE = "gcc"
SCALE = 0.1
SEED = 0
QUERIES = 12
_PHASED = (
    "engine.reused", "engine.solved", "engine.regions", "engine.sccs_solved",
    "solver.iterations",
)
_PREFIXES = ("cache.fragment.", "query.")
_PLAIN = ("cache.hit", "cache.stale", "cache.miss")


def _selected(counters) -> dict:
    names = set(_PLAIN)
    names.update(
        f"{name}{{phase={phase}}}"
        for name in _PHASED for phase in ("phase1", "phase2")
    )
    names.update(key for key in counters if key.startswith(_PREFIXES))
    return {name: counters.get(name, 0) for name in sorted(names)}


def _drill_down(session: AnalysisSession) -> list:
    """The entry routine, then one routine per caller-cone stratum."""
    program = session.program
    first = session.query(program.entry)
    condensation = first.condensation
    size = {}
    for routine in program:
        root = condensation.component_index(routine.name)
        cone = condensation.transitive_caller_components({root})
        size[routine.name] = len(condensation.routines_of(cone))
    ordered = sorted(
        (name for name in size if name != program.entry),
        key=lambda name: (size[name], name),
    )
    strata = QUERIES - 1
    return [program.entry] + [
        ordered[(2 * index + 1) * len(ordered) // (2 * strata)]
        for index in range(strata)
    ]


def record() -> list:
    image = generate_image(
        shape_by_name(SHAPE).scaled(SCALE), GeneratorConfig(seed=SEED)
    ).to_bytes()
    off = AnalysisConfig(store="off")
    routines = _drill_down(AnalysisSession.from_image_bytes(image, off))
    session = AnalysisSession.from_image_bytes(image, off)
    queries = []
    for routine in routines:
        result = session.query(routine)
        digest = hashlib.sha256(dump_summaries(result.result)).hexdigest()
        queries.append({
            "routine": routine,
            "summary": digest,
            "counters": _selected(session.metrics()["counters"]),
        })
    return queries


@pytest.fixture(scope="module")
def recorded() -> list:
    return record()


def test_drill_down_matches_the_golden(recorded):
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == QUERIES
    assert [query["routine"] for query in recorded] == [
        query["routine"] for query in golden
    ]
    for position, (got, want) in enumerate(zip(recorded, golden)):
        assert got == want, f"query {position} ({want['routine']})"


if __name__ == "__main__":
    queries = record()
    GOLDEN.write_text(json.dumps(queries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(queries)} queries)")
