"""The public analysis API: one session object, one config, one error.

Everything the package can do to a program — analyze it (whole
program, incrementally against a summary cache, or on demand for one
routine), optimize it, and report on the work — historically lived on
free functions scattered across submodules (``repro.interproc.analysis``,
``repro.interproc.incremental``, ``repro.opt.pipeline``).  Each grew
its own entry point, its own way of accepting a program, and its own
failure modes.  This module fronts them all with a single facade:

>>> from repro.api import AnalysisSession
>>> session = AnalysisSession.from_image_bytes(blob)
>>> analysis = session.analyze()
>>> session.summaries().summaries["main"].call_used
>>> session.metrics()                           # JSON-ready stats

Every constructor accepts an optional :class:`AnalysisConfig`; e.g. to
build the PSG without §3.6 branch nodes (the Table-4 ablation):

>>> from repro.psg.build import PsgConfig
>>> config = AnalysisConfig(psg=PsgConfig(branch_nodes=False))
>>> session = AnalysisSession.from_image_bytes(blob, config)

Construction never analyzes; the first ``analyze*`` call does, and its
products are retained on the session for ``summaries()``/``metrics()``.
Failures that prevent an analysis from completing — a PSG that cannot
represent the program — are normalized to
:class:`~repro.interproc.errors.AnalysisError`; unparseable images raise
:class:`~repro.program.image.ImageFormatError` from the constructor
instead, and code no CFG can model (a branch leaving its routine, say)
raises :class:`~repro.cfg.cfg.CfgError` from the first ``analyze*``,
so callers can tell "bad input" from "analysis failed".

Every analysis runs in the calling process.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager, nullcontext
from typing import (
    Callable, Dict, Iterator, Mapping, Optional, Protocol, Sequence, TypeVar,
    Union, runtime_checkable,
)

from repro.dataflow.regset import construction_count
from repro.obs.metrics import REGISTRY, Ledger
from repro.obs.runid import current_run_id, new_run_id
from repro.obs.tracer import span
from repro.interproc.analysis import (
    AnalysisConfig,
    InterproceduralAnalysis,
    _analyze_program,
)
from repro.interproc.demand import QueryResult, query_routine
from repro.interproc.frontend import Frontend
from repro.interproc.errors import AnalysisError, UnknownRoutineError
from repro.interproc.incremental import (
    IncrementalAnalysis,
    _analyze_incremental,
)
from repro.interproc.persist import SummaryCache, image_fingerprint
from repro.interproc.results import SCHEMA_VERSION, validate_payload
from repro.interproc.summaries import SummarySet, RoutineSummary
from repro.program.disasm import disassemble_image, load_program
from repro.program.image import ExecutableImage, ImageFormatError
from repro.program.model import Program
from repro.psg.build import PsgBuildError

#: The documented stable surface of the analysis API.  Everything else
#: under ``repro.*`` is an implementation detail that may change
#: between releases; the deprecated free-function shims of the pre-
#: session era (``analyze_program``/``analyze_image``/
#: ``analyze_incremental``/``optimize_program``) have been removed.
__all__ = [
    "AnalysisConfig",
    "AnalysisError",
    "AnalysisResult",
    "AnalysisSession",
    "QueryResult",
    "RoutineSummary",
    "SCHEMA_VERSION",
    "SummarySet",
    "UnknownRoutineError",
    "validate_payload",
]


@runtime_checkable
class AnalysisResult(Protocol):
    """What every analysis outcome looks like, whichever engine ran.

    :meth:`AnalysisSession.analyze`, :meth:`~AnalysisSession.
    analyze_incremental` and :meth:`~AnalysisSession.query` return
    three concrete types (serial, incremental, query); all of
    them satisfy this protocol, so callers that only consume results
    never need to know which engine produced them.  ``to_json()`` is
    the versioned external shape (``"schema": 1``) — the CLI
    ``--json`` output and the ``repro.service`` daemon responses are
    both exactly this payload (see :mod:`repro.interproc.results`).
    """

    #: ``"serial"``, ``"incremental"`` or ``"query"``.
    kind: str

    @property
    def result(self) -> SummarySet: ...

    def summary(self, routine: str) -> RoutineSummary: ...

    def stats(self) -> Mapping[str, object]: ...

    def to_json(self, include_summaries: bool = False) -> Mapping[str, object]: ...

_log = logging.getLogger(__name__)

T = TypeVar("T")

#: Exceptions an analysis run normalizes into AnalysisError.
_ANALYSIS_FAILURES = (PsgBuildError,)


def _count_regsets(before: int) -> None:
    """Count the RegisterSets built since ``before`` into the registry
    (regset.py itself keeps only a bare module count)."""
    built = construction_count() - before
    if built:
        REGISTRY.inc("regset.constructed", built)


def _check_jobs(jobs: int) -> None:
    """Compat: ``analyze``/``analyze_incremental`` still accept
    ``jobs=1`` (the stage replay in ``perf/workloads.py`` passes it);
    every analysis runs in this process, so no other value is valid."""
    if jobs != 1:
        raise ValueError(f"jobs must be 1 (analyses run serially), got {jobs!r}")


class AnalysisSession:
    """One program plus everything analyzed about it so far.

    Build one with :meth:`from_image_bytes`, :meth:`from_image`,
    :meth:`from_path` or :meth:`from_program`; then call
    :meth:`analyze`, :meth:`analyze_incremental` or :meth:`optimize`.
    The session caches the most recent analysis, so
    :meth:`summaries` and :meth:`metrics` never recompute — and
    :meth:`optimize` is the only method that mutates nothing on the
    session (it returns a new, optimized program).
    """

    def __init__(
        self,
        program: Program,
        config: Optional[AnalysisConfig] = None,
        image_bytes: Optional[bytes] = None,
    ) -> None:
        self._program = program
        self._config = config or AnalysisConfig()
        self._image_bytes = image_bytes
        self._fingerprint = 0
        self._last: Union[
            InterproceduralAnalysis,
            IncrementalAnalysis,
            QueryResult,
            None,
        ] = None
        # The memoized cache the demand path threads between query()
        # calls (when the caller does not manage one explicitly).
        self._query_cache: Optional[SummaryCache] = None
        # The program's front end (call graph, condensation, routine
        # fingerprints, the CFGs built so far): immutable for the
        # session's program, so whichever of analyze(),
        # analyze_incremental() and query() runs first builds it and
        # the rest reuse it.
        self._frontend: Optional[Frontend] = None
        # What opening the image counted (its decode), until the first
        # run's ledger takes it over.
        self._opened: Optional[Ledger] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_image_bytes(
        cls, data: bytes, config: Optional[AnalysisConfig] = None
    ) -> "AnalysisSession":
        """A session over a serialized SAX executable image.

        Raises :class:`ImageFormatError` when ``data`` is not a valid
        image — construction validates the input so the caller can
        distinguish bad input from a later analysis failure.
        """
        with Ledger() as opened:
            program = load_program(data)
        session = cls(program, config, image_bytes=data)
        session._opened = opened
        return session

    @classmethod
    def from_image(
        cls, image: ExecutableImage, config: Optional[AnalysisConfig] = None
    ) -> "AnalysisSession":
        """A session over an in-memory executable image."""
        with Ledger() as opened:
            program = disassemble_image(image)
        session = cls(program, config, image_bytes=image.to_bytes())
        session._opened = opened
        return session

    @classmethod
    def from_path(
        cls, path: str, config: Optional[AnalysisConfig] = None
    ) -> "AnalysisSession":
        """A session over an image file on disk (``OSError`` on
        unreadable files, :class:`ImageFormatError` on bad content)."""
        with open(path, "rb") as handle:
            return cls.from_image_bytes(handle.read(), config)

    @classmethod
    def from_program(
        cls, program: Program, config: Optional[AnalysisConfig] = None
    ) -> "AnalysisSession":
        """A session over an already-decoded program."""
        return cls(program, config)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def program(self) -> Program:
        return self._program

    @property
    def config(self) -> AnalysisConfig:
        return self._config

    @property
    def has_query_state(self) -> bool:
        """True once a query or an incremental run has warmed this
        session's memoized demand cache (the service daemon reports such
        requests as warm)."""
        return self._query_cache is not None

    @property
    def image_fingerprint(self) -> int:
        """The image-content fingerprint (0 when the session was built
        from a decoded program, which has no canonical byte form),
        hashed once; whoever hashed the bytes already may assign it.
        Either way the session lets go of the bytes then."""
        if self._image_bytes is not None:
            self.image_fingerprint = image_fingerprint(self._image_bytes)
        return self._fingerprint

    @image_fingerprint.setter
    def image_fingerprint(self, fingerprint: int) -> None:
        self._fingerprint = fingerprint
        self._image_bytes = None

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------

    def _run(
        self, kind: str, name: str, solve: Callable[[], T], **span_args: object
    ) -> T:
        """One analysis entry point: ``solve()`` under a run id (minted
        when none is active) and a ``name`` span, with PSG build
        failures normalized to :class:`AnalysisError` and the
        RegisterSets it built counted into its result's ledger."""
        if current_run_id() is None:
            new_run_id()
        _log.info(
            "%s analysis starting: %d routines",
            kind, self._program.routine_count,
        )
        result, before = None, construction_count()
        try:
            with span(name, **span_args):
                result = solve()
        except _ANALYSIS_FAILURES as error:
            raise AnalysisError(str(error)) from error
        finally:
            with result.metrics.ledger if result is not None else nullcontext():
                _count_regsets(before)
        if self._opened is not None:
            # The session's first run reports the open it rests on.
            result.metrics.ledger.absorb(self._opened)
            self._opened = None
        return result

    @contextmanager
    def _reentered(self) -> Iterator[Ledger]:
        """The last run's ledger, re-entered for the lazy work done on
        its behalf afterwards (decoding and rendering its summaries)."""
        ledger, before = self._last.metrics.ledger, construction_count()
        with ledger:
            try:
                yield ledger
            finally:
                _count_regsets(before)

    def analyze(self, jobs: int = 1) -> InterproceduralAnalysis:
        """Run the full two-phase interprocedural analysis over the
        whole-program PSG (solved again when the result is asked for
        it).  ``jobs`` is compat and must be 1."""
        _check_jobs(jobs)
        self._last = self._run("serial", "analyze", lambda: _analyze_program(
            self._program, self._config, self._frontend
        ))
        self._frontend = self._last.frontend
        return self._last

    def analyze_incremental(
        self,
        cache: Optional[SummaryCache] = None,
        jobs: int = 1,
    ) -> IncrementalAnalysis:
        """Analyze incrementally against ``cache`` (cold when ``None``).

        The returned :attr:`IncrementalAnalysis.cache` is the refreshed
        cache to persist for the next warm run.  ``jobs`` is compat and
        must be 1.
        """
        _check_jobs(jobs)
        self._last = self._run(
            "incremental", "analyze_incremental",
            lambda: _analyze_incremental(
                self._program,
                cache=cache,
                config=self._config,
                image_fingerprint=self.image_fingerprint,
                frontend=self._frontend,
            ),
            warm=cache is not None,
        )
        self._frontend = self._last.frontend
        # The refreshed cache is written under the session's
        # configuration and holds every routine's rows: the session's
        # next query starts from it.
        self._query_cache = self._last.cache
        return self._last

    def query(
        self, routine: str, *, cache: Optional[SummaryCache] = None
    ) -> QueryResult:
        """Answer live-at-entry/exit and call-used/defined/killed for
        one routine on demand, solving only its dependency cones.

        The answer is byte-identical to what :meth:`analyze` would
        report for ``routine``, but only the SCC components the answer
        can depend on — transitive callers, plus their callee closure
        — are examined, and only the stale ones among those re-solve.

        ``cache`` warm-starts the query from a ``SUM5``
        :class:`SummaryCache`; when omitted, the session threads its
        own memoized cache — the last query's, or the refreshed cache
        of its last :meth:`analyze_incremental` — and front end between
        calls, so repeated or overlapping queries amortize toward a
        fingerprint comparison (the call graph and fingerprints are
        built once per session, and a routine labeled once).  The
        refreshed cache is returned on :attr:`QueryResult.cache` (and
        retained on the session) for persisting.

        Raises :class:`UnknownRoutineError` for a routine the program
        does not contain.
        """
        if cache is None:
            cache = self._query_cache
        result = self._run(
            "query", "query",
            lambda: query_routine(
                self._program,
                routine,
                cache=cache,
                config=self._config,
                image_fingerprint=self.image_fingerprint,
                frontend=self._frontend,
            ),
            routine=routine, warm=cache is not None,
        )
        self._last = result
        self._query_cache = result.cache
        self._frontend = result.frontend
        return result

    def optimize(
        self,
        passes: Optional[Sequence[str]] = None,
        verify: bool = False,
        max_steps: int = 5_000_000,
    ):
        """Run the Figure-1 optimization pipeline on the program.

        Returns an :class:`repro.opt.pipeline.OptimizationResult`; the
        session itself is unchanged (build a new session from
        ``result.optimized`` to analyze the optimized program).
        """
        from repro.opt.pipeline import PASS_NAMES, _optimize_program

        return self._run("optimize", "optimize", lambda: _optimize_program(
            self._program,
            passes=PASS_NAMES if passes is None else passes,
            config=self._config,
            verify=verify,
            max_steps=max_steps,
        ))

    # ------------------------------------------------------------------
    # Results of the most recent analysis
    # ------------------------------------------------------------------

    def summaries(self) -> SummarySet:
        """Per-routine summaries of the most recent analysis (running a
        serial :meth:`analyze` first if none has been run).

        After a :meth:`query` this is the memoized cache's view: the
        queried cone is fresh, other routines carry whatever earlier
        runs established (entries a query had to invalidate are
        absent until something re-solves them).
        """
        if self._last is None:
            self.analyze()
        assert self._last is not None
        if isinstance(self._last, QueryResult):
            return self._last.cache.result
        return self._last.result

    def summary(self, routine: str) -> RoutineSummary:
        summaries = self.summaries()
        with self._reentered():
            return summaries.summaries[routine]

    def metrics(self) -> Dict[str, object]:
        """JSON-ready metrics of the most recent analysis.

        Always includes ``kind`` (``"serial"``, ``"incremental"`` or
        ``"query"``) and ``routines``; the remaining keys depend on the
        kind (stage timings for serial runs, solved/reused counts for
        incremental runs and queries).  ``counters`` is the run's own
        ledger — cache hit/miss/stale/write, per-phase worklist
        iterations and queue depths, PSG sizes, regset constructions —
        counting the work the run did, and what this session did on
        its behalf since, and nothing else the process ran.  Empty when
        nothing has been analyzed yet.
        """
        last = self._last
        if last is None:
            return {}
        payload: Dict[str, object] = {
            "kind": last.kind,
            "routines": self._program.routine_count,
            "counters": {},
        }
        with self._reentered() as ledger:
            payload.update(last.stats())
        payload["counters"] = ledger.as_dict()
        return payload

    def to_json(self, include_summaries: bool = False) -> Dict[str, object]:
        """The schema-1 JSON payload of the most recent analysis
        (running a serial :meth:`analyze` first if none has been run).

        This is the one external result shape: the CLI ``--json``
        output and every ``repro.service`` daemon response body are
        exactly this payload (see :mod:`repro.interproc.results` for
        the schema).  ``include_summaries=True`` embeds the rendered
        per-routine summaries under a ``summaries`` key.  ``counters``
        is the run's ledger, as in :meth:`metrics`.
        """
        if self._last is None:
            self.analyze()
        assert self._last is not None
        with self._reentered() as ledger:
            payload = self._last.to_json(include_summaries=include_summaries)
        payload["counters"] = ledger.as_dict()
        return payload
