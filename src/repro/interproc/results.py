"""One result shape for every analysis outcome (result schema v1).

Four kinds of object can come out of an analysis run — the serial
:class:`~repro.interproc.analysis.InterproceduralAnalysis`, the sharded
:class:`~repro.interproc.parallel.ParallelAnalysis`, the warm-start
:class:`~repro.interproc.incremental.IncrementalAnalysis` and the
demand-driven :class:`~repro.interproc.demand.QueryResult`.  They used
to render themselves three different ways (the CLI ``--json`` path
rebuilt its payload dict inline, branching on ``is_parallel``); every
consumer that wanted machine-readable output had to know which type it
was holding.

This module is the one place the external shape is defined.  Each
result type implements the :class:`repro.api.AnalysisResult` protocol —
a ``kind`` string, a ``result`` :class:`SummarySet`, a kind-specific
``stats()`` dict and a ``to_json()`` that delegates to
:func:`build_payload` here — so the CLI ``--json`` output and the
``repro.service`` daemon's ``/v1/analyze`` / ``/v1/query`` responses
are *the same object by construction* and can never drift.

Schema version 1 (``"schema": 1``), common keys::

    schema            1 (bump on any incompatible change)
    kind              "serial" | "parallel" | "incremental" | "query"
    routines          routine count of the analyzed program
    instructions      instruction count of the analyzed program
    summaries_crc64   16-hex CRC64 of the canonical SUM1 serialization
                      of the result's summaries — two runs agree on
                      their dataflow facts iff these match
    counters          obs-registry delta for the run (may be empty)

plus the kind-specific ``stats()`` keys, flattened (``stage_seconds``
for serial runs, ``jobs``/``shard_count``/... for parallel runs,
``mode``/``phase2_solved``/... for incremental runs,
``routine``/``summary``/cone sizes for queries), plus an optional
``summaries`` mapping (``include_summaries=True``) with one
:meth:`RoutineSummary.to_json` rendering per routine.

Wall-clock stats and counters are inherently run-specific; everything
else is deterministic for a given image, which is what lets the daemon
tests assert byte-identity between a served response and an in-process
:meth:`AnalysisSession.analyze` on the same image.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.interproc.persist import crc64, dump_summaries
from repro.interproc.summaries import SummarySet

#: Version stamp carried in every payload; bump on incompatible change.
SCHEMA_VERSION = 1

#: Keys every schema-1 payload carries regardless of kind.
COMMON_KEYS = (
    "schema",
    "kind",
    "routines",
    "instructions",
    "summaries_crc64",
    "counters",
)

#: Kind-specific keys clients may rely on (a subset of ``stats()``).
KIND_KEYS = {
    "serial": ("stage_seconds", "memory_bytes", "psg_nodes", "psg_edges"),
    "parallel": ("jobs", "shard_count", "routines_total", "shards"),
    "incremental": (
        "mode", "phase1_solved", "phase2_solved", "dirty_routines",
        "cfgs_built",
    ),
    "query": ("routine", "summary", "mode", "phase2_solved", "cfgs_built"),
}


def summaries_digest(result: SummarySet) -> str:
    """Deterministic 16-hex digest of a result's dataflow facts.

    The CRC64 of the canonical (sorted, fingerprint-free) SUM1
    serialization: two analyses produced identical summaries iff their
    digests match, which is how daemon clients verify a served answer
    against a local solve without shipping the whole sidecar.
    """
    return format(crc64(dump_summaries(result)), "016x")


def build_payload(
    analysis: Any,
    counters: Optional[Mapping[str, float]] = None,
    include_summaries: bool = False,
) -> Dict[str, object]:
    """The schema-1 JSON payload for any analysis result object.

    ``analysis`` is anything implementing the result protocol (``kind``,
    ``program``, ``result``, ``stats()``).  ``counters`` is the caller's
    obs-registry delta (the session supplies it; a bare result renders
    with an empty mapping).
    """
    payload: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "kind": analysis.kind,
        "routines": analysis.program.routine_count,
        "instructions": analysis.program.instruction_count,
        "summaries_crc64": summaries_digest(analysis.result),
        "counters": dict(counters) if counters else {},
    }
    payload.update(analysis.stats())
    if include_summaries:
        payload["summaries"] = {
            name: summary.to_json()
            for name, summary in sorted(analysis.result.summaries.items())
        }
    return payload


def validate_payload(payload: Mapping[str, object]) -> None:
    """Assert ``payload`` is a well-formed schema-1 result payload.

    Raises ``ValueError`` listing every problem found.  Used by the
    contract tests and the CI daemon smoke so that clients can code
    against the documented shape.
    """
    problems = []
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        problems.append(f"schema must be {SCHEMA_VERSION}, got {schema!r}")
    kind = payload.get("kind")
    if kind not in KIND_KEYS:
        problems.append(f"unknown kind {kind!r}")
    for key in COMMON_KEYS:
        if key not in payload:
            problems.append(f"missing common key {key!r}")
    digest = payload.get("summaries_crc64")
    if not (isinstance(digest, str) and len(digest) == 16):
        problems.append(f"summaries_crc64 must be 16 hex chars, got {digest!r}")
    for key in ("routines", "instructions"):
        if key in payload and not isinstance(payload[key], int):
            problems.append(f"{key} must be an integer")
    if not isinstance(payload.get("counters"), Mapping):
        problems.append("counters must be a mapping")
    if kind in KIND_KEYS:
        for key in KIND_KEYS[kind]:
            if key not in payload:
                problems.append(f"missing {kind} key {key!r}")
    summaries = payload.get("summaries")
    if summaries is not None:
        if not isinstance(summaries, Mapping):
            problems.append("summaries must be a mapping when present")
        else:
            for name, rendered in summaries.items():
                if not isinstance(rendered, Mapping) or "call_used" not in rendered:
                    problems.append(f"summaries[{name!r}] is not a rendered summary")
                    break
    if problems:
        raise ValueError(
            "invalid result payload: " + "; ".join(problems)
        )
