"""The public analysis API: one session object, one config, one error.

Everything the package can do to a program — analyze it (serial,
sharded-parallel, or incrementally against a summary cache), optimize
it, and report on the work — historically lived on free functions
scattered across submodules (``repro.interproc.analysis``,
``repro.interproc.incremental``, ``repro.opt.pipeline``).  Each grew
its own entry point, its own way of accepting a program, and its own
failure modes.  This module fronts them all with a single facade:

>>> from repro.api import AnalysisSession
>>> session = AnalysisSession.from_image_bytes(blob)
>>> analysis = session.analyze(jobs=4)          # sharded parallel
>>> session.summaries().summaries["main"].call_used
>>> session.metrics()                           # JSON-ready stats

Every constructor accepts an optional :class:`AnalysisConfig`; e.g. to
pin the flow-summary labeling strategy (``"batched"`` is the default,
``"per-target"`` the pre-batching implementation — results are
identical, see :mod:`repro.dataflow.equations`):

>>> from repro.psg.build import PsgConfig
>>> config = AnalysisConfig(psg=PsgConfig(labeling="per-target"))
>>> session = AnalysisSession.from_image_bytes(blob, config)

Construction never analyzes; the first ``analyze*`` call does, and its
products are retained on the session for ``summaries()``/``metrics()``.
Failures that prevent an analysis from completing — a PSG that cannot
represent the program, a diverging solver, a crashed worker process —
are normalized to :class:`~repro.interproc.errors.AnalysisError`;
unparseable images raise
:class:`~repro.program.image.ImageFormatError` from the constructor
instead, so callers can tell "bad input" from "analysis failed".

Worker-count resolution, everywhere in the facade: an explicit
``jobs=`` argument wins, then :attr:`AnalysisConfig.jobs`, then the
``REPRO_JOBS`` environment variable, then 1 (serial).  0 or a negative
value means "one worker per available CPU".
"""

from __future__ import annotations

import logging
import os
from typing import Dict, List, Optional, Sequence, Union

from repro.dataflow.regset import construction_count
from repro.obs.metrics import REGISTRY
from repro.obs.runid import current_run_id, new_run_id
from repro.obs.tracer import span
from repro.interproc.analysis import (
    AnalysisConfig,
    InterproceduralAnalysis,
    _analyze_program,
)
from repro.interproc.demand import QueryResult, query_routine
from repro.interproc.frontend import Frontend
from repro.interproc.errors import (
    AnalysisError,
    JobsConfigError,
    UnknownRoutineError,
)
from repro.interproc.incremental import (
    IncrementalAnalysis,
    _analyze_incremental,
)
from repro.interproc.parallel import ParallelAnalysis, analyze_parallel
from repro.interproc.persist import SummaryCache, image_fingerprint
from repro.interproc.results import SCHEMA_VERSION, validate_payload
from repro.interproc.summaries import SummarySet, RoutineSummary
from repro.program.disasm import disassemble_image
from repro.program.image import ExecutableImage, ImageFormatError
from repro.program.model import Program
from repro.psg.build import PsgBuildError
from repro.dataflow.solver import SolverDivergence
from typing import Mapping, Protocol, runtime_checkable

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
    "JobsConfigError",
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
    four concrete types (serial, parallel, incremental, query); all of
    them satisfy this protocol, so callers that only consume results
    never need to know which engine produced them.  ``to_json()`` is
    the versioned external shape (``"schema": 1``) — the CLI
    ``--json`` output and the ``repro.service`` daemon responses are
    both exactly this payload (see :mod:`repro.interproc.results`).
    """

    #: ``"serial"``, ``"parallel"``, ``"incremental"`` or ``"query"``.
    kind: str
    #: True when the run solved on the sharded worker pool.
    is_parallel: bool

    @property
    def result(self) -> SummarySet: ...

    def summary(self, routine: str) -> RoutineSummary: ...

    def stats(self) -> Mapping[str, object]: ...

    def to_json(
        self, counters=None, include_summaries: bool = False
    ) -> Mapping[str, object]: ...

_log = logging.getLogger(__name__)

#: Environment variable consulted for the default worker count.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Environment variable naming the shared summary-store directory
#: (re-exported from :mod:`repro.interproc.store` for discovery).
#: When set, cold and incremental solves consult and publish
#: content-addressed routine summaries there; results stay
#: byte-identical with the store on, off, or corrupted.
SUMMARY_STORE_ENV_VAR = "REPRO_SUMMARY_STORE"

#: Exceptions an analysis run normalizes into AnalysisError.
_ANALYSIS_FAILURES = (PsgBuildError, SolverDivergence)


def _jobs_from_env() -> Optional[int]:
    raw = os.environ.get(JOBS_ENV_VAR)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise JobsConfigError(
            f"{JOBS_ENV_VAR} must be an integer, got {raw!r} "
            "(0 or negative means one worker per CPU)"
        ) from None


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
        self._last: Union[
            InterproceduralAnalysis,
            ParallelAnalysis,
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
        # Counter scoping: metrics() reports the registry's delta since
        # session construction, so work done on behalf of this session
        # before analyze() — a CLI cache load, for instance — is
        # attributed to it while unrelated earlier runs are not.
        self._counter_base = REGISTRY.snapshot()
        self._regset_base = construction_count()

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
        image = ExecutableImage.from_bytes(data)
        return cls(disassemble_image(image), config, image_bytes=data)

    @classmethod
    def from_image(
        cls, image: ExecutableImage, config: Optional[AnalysisConfig] = None
    ) -> "AnalysisSession":
        """A session over an in-memory executable image."""
        return cls(
            disassemble_image(image), config, image_bytes=image.to_bytes()
        )

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
        """True once a query has warmed this session's memoized demand
        cache (the service daemon reports such requests as warm)."""
        return self._query_cache is not None

    @property
    def image_fingerprint(self) -> int:
        """The image-content fingerprint (0 when the session was built
        from a decoded program, which has no canonical byte form)."""
        if self._image_bytes is None:
            return 0
        return image_fingerprint(self._image_bytes)

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------

    def _resolve_jobs(self, jobs: Optional[int]) -> int:
        if jobs is None and self._config.jobs == 1:
            jobs = _jobs_from_env()
        from repro.interproc.parallel import resolve_jobs

        return resolve_jobs(jobs, self._config)

    def _begin_run(self, kind: str, jobs: int) -> None:
        if current_run_id() is None:
            new_run_id()
        _log.info(
            "%s analysis starting: %d routines, jobs=%d",
            kind, self._program.routine_count, jobs,
        )

    def _fold_regset(self) -> None:
        """Fold RegisterSet constructions since the last fold into the
        registry (regset.py itself keeps only a bare local count)."""
        count = construction_count()
        if count != self._regset_base:
            REGISTRY.inc("regset.constructed", count - self._regset_base)
            self._regset_base = count

    def analyze(
        self, jobs: Optional[int] = None
    ) -> Union[InterproceduralAnalysis, ParallelAnalysis]:
        """Run the full two-phase interprocedural analysis.

        With an effective worker count of 1 this is the serial driver
        (and the result exposes the whole-program PSG); above 1 the
        sharded parallel solver runs, with bit-identical summaries.
        """
        effective = self._resolve_jobs(jobs)
        self._begin_run("parallel" if effective > 1 else "serial", effective)
        try:
            with span("analyze", jobs=effective):
                if effective > 1:
                    self._last = analyze_parallel(
                        self._program, self._config, jobs=effective
                    )
                else:
                    self._last = _analyze_program(
                        self._program, self._config, self._frontend
                    )
        except AnalysisError:
            raise
        except _ANALYSIS_FAILURES as error:
            raise AnalysisError(str(error)) from error
        finally:
            self._fold_regset()
        self._frontend = self._last.frontend
        return self._last

    def analyze_incremental(
        self,
        cache: Optional[SummaryCache] = None,
        jobs: Optional[int] = None,
    ) -> IncrementalAnalysis:
        """Analyze incrementally against ``cache`` (cold when ``None``).

        The returned :attr:`IncrementalAnalysis.cache` is the refreshed
        cache to persist for the next warm run; with ``jobs > 1`` the
        dirty shards are re-solved on a worker pool.
        """
        effective = self._resolve_jobs(jobs)
        self._begin_run("incremental", effective)
        try:
            with span(
                "analyze_incremental", jobs=effective, warm=cache is not None
            ):
                self._last = _analyze_incremental(
                    self._program,
                    cache=cache,
                    config=self._config,
                    image_fingerprint=self.image_fingerprint,
                    jobs=effective,
                    frontend=self._frontend,
                )
        except AnalysisError:
            raise
        except _ANALYSIS_FAILURES as error:
            raise AnalysisError(str(error)) from error
        finally:
            self._fold_regset()
        self._frontend = self._last.frontend
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

        ``cache`` warm-starts the query from a ``SUM3``
        :class:`SummaryCache`; when omitted, the session threads its
        own memoized cache and front end between calls, so repeated
        or overlapping queries amortize toward a fingerprint comparison
        (the call graph and fingerprints are built once per session,
        and a CFG once per routine some solve needed it for).  The
        refreshed cache is returned on :attr:`QueryResult.cache` (and
        retained on the session) for persisting.

        Raises :class:`UnknownRoutineError` for a routine the program
        does not contain.
        """
        # Queries solve serially, but resolve the worker config anyway
        # so a malformed REPRO_JOBS fails here as cleanly as it does
        # for analyze() (JobsConfigError -> CLI usage error).
        self._resolve_jobs(None)
        if cache is None:
            cache = self._query_cache
        self._begin_run("query", 1)
        try:
            with span("query", routine=routine, warm=cache is not None):
                result = query_routine(
                    self._program,
                    routine,
                    cache=cache,
                    config=self._config,
                    image_fingerprint=self.image_fingerprint,
                    frontend=self._frontend,
                )
        except AnalysisError:
            raise
        except _ANALYSIS_FAILURES as error:
            raise AnalysisError(str(error)) from error
        finally:
            self._fold_regset()
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

        self._begin_run("optimize", 1)
        try:
            with span("optimize"):
                return _optimize_program(
                    self._program,
                    passes=PASS_NAMES if passes is None else passes,
                    config=self._config,
                    verify=verify,
                    max_steps=max_steps,
                )
        except AnalysisError:
            raise
        except _ANALYSIS_FAILURES as error:
            raise AnalysisError(str(error)) from error
        finally:
            self._fold_regset()

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
        return self.summaries().summaries[routine]

    def metrics(self) -> Dict[str, object]:
        """JSON-ready metrics of the most recent analysis.

        Always includes ``kind`` (``"serial"``, ``"parallel"``,
        ``"incremental"`` or ``"query"``) and ``routines``; the
        remaining keys depend
        on the kind (stage timings for serial runs, shard/utilization
        records for parallel runs, solved/reused counts — plus a
        ``parallel`` sub-object when applicable — for incremental
        runs).  ``counters`` carries the obs-registry delta since this
        session was constructed — cache hit/miss/stale/write, per-phase
        worklist iterations and queue depths, PSG sizes, regset
        constructions — with worker-process contributions merged in.
        Empty when nothing has been analyzed yet.
        """
        last = self._last
        if last is None:
            return {}
        payload: Dict[str, object] = {
            "kind": last.kind,
            "routines": self._program.routine_count,
            "counters": REGISTRY.delta_since(self._counter_base),
        }
        payload.update(last.stats())
        return payload

    def to_json(self, include_summaries: bool = False) -> Dict[str, object]:
        """The schema-1 JSON payload of the most recent analysis
        (running a serial :meth:`analyze` first if none has been run).

        This is the one external result shape: the CLI ``--json``
        output and every ``repro.service`` daemon response body are
        exactly this payload (see :mod:`repro.interproc.results` for
        the schema).  ``include_summaries=True`` embeds the rendered
        per-routine summaries under a ``summaries`` key.
        """
        if self._last is None:
            self.analyze()
        assert self._last is not None
        return self._last.to_json(
            counters=REGISTRY.delta_since(self._counter_base),
            include_summaries=include_summaries,
        )
