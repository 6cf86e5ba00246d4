"""Front-end golden: fingerprints, shape keys, records and the bytes a
cold incremental run writes, for every generated shape.

``tests/golden/frontend.json`` pins, for each of the 16
:data:`~repro.workloads.shapes.ALL_SHAPES` generated at scale 0.01 with
seed 7 and lifted from its image bytes:

* per routine, the SHA-256 of its ``(fingerprint, shape_key, record)``
  (:attr:`Frontend.fingerprints`, :func:`shape_key`,
  :attr:`Frontend.records`), the record written as plain JSON values;
* the SHA-256 of the cold run's ``dump_cache`` bytes (the sidecar, and
  with it every store pack) and of its ``dump_summaries`` bytes;
* the run's ``psg.call_return_edges`` and
  ``solver.iterations{phase=...}`` counters.

A warm run against the cold sidecar takes every routine's call sites
from its record; it must derive the same per-routine digests.  How call
sites are resolved, read or written may change; none of these may.

To regenerate after an *intended* change to any of them::

    PYTHONPATH=src python -m tests.test_frontend_golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import AnalysisSession
from repro.interproc.frontend import shape_key
from repro.interproc.persist import dump_cache, dump_summaries, load_cache
from repro.workloads.generator import GeneratorConfig, generate_image
from repro.workloads.shapes import ALL_SHAPES

GOLDEN = Path(__file__).parent / "golden" / "frontend.json"
SCALE = 0.01
SEED = 7
COUNTERS = (
    "psg.call_return_edges",
    "solver.iterations{phase=phase1}",
    "solver.iterations{phase=phase2}",
)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _routine_digests(frontend) -> dict:
    digests = {}
    for routine in frontend.program:
        name = routine.name
        record = frontend.records[name]
        value = [
            frontend.fingerprints[name],
            shape_key(routine, frontend.tables.get(name, ())),
            [
                record.shape_key,
                record.block_count,
                [list(site) for site in record.sites],
                list(record.escape_candidates),
            ],
        ]
        digests[name] = _digest(json.dumps(value).encode("utf-8"))
    return digests


def _session(shape) -> AnalysisSession:
    image = generate_image(shape.scaled(SCALE), GeneratorConfig(seed=SEED))
    return AnalysisSession.from_image_bytes(image.to_bytes())


def _record(shape) -> dict:
    session = _session(shape)
    analysis = session.analyze_incremental()
    counters = session.metrics()["counters"]
    return {
        "routines": _routine_digests(analysis.frontend),
        "cache": _digest(dump_cache(analysis.cache)),
        "summaries": _digest(dump_summaries(analysis.result)),
        "counters": {name: counters.get(name, 0) for name in COUNTERS},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_shape(golden):
    assert sorted(golden) == sorted(shape.name for shape in ALL_SHAPES)


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda shape: shape.name)
def test_frontend_bytes_match(shape, golden):
    assert _record(shape) == golden[shape.name]


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda shape: shape.name)
def test_warm_records_derive_the_same_routines(shape, golden):
    session = _session(shape)
    cold = session.analyze_incremental()
    warm = _session(shape).analyze_incremental(
        cache=load_cache(dump_cache(cold.cache))
    )
    assert warm.frontend.cfgs_built == 0
    assert _routine_digests(warm.frontend) == golden[shape.name]["routines"]


if __name__ == "__main__":
    records = {shape.name: _record(shape) for shape in ALL_SHAPES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(records)} shapes)")
