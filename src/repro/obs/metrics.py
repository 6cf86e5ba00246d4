"""Labeled counter/gauge/histogram registry for the analysis pipeline.

A single process-wide :data:`REGISTRY` accumulates named, labeled
counters (monotonic sums), maxima (high-water gauges) and histograms
(log-bucketed distributions, see :mod:`repro.obs.hist`), in the
Prometheus style: values are **cumulative for the life of the process**
and are never implicitly reset.  Consumers that want per-run numbers —
``AnalysisSession.metrics()``, the CLI ``--stats`` block — take a
:meth:`MetricsRegistry.snapshot` before the run and read
:meth:`MetricsRegistry.delta_since` after it; histogram deltas are
computed bucket-wise.

Counter inventory (see ``docs/observability.md`` for semantics):

=============================== =====================================
``solver.iterations{phase=}``    worklist node visits per solve phase
``solver.max_queue_depth{phase=}`` deepest worklist (max-merged)
``solver.pushes``                nodes scheduled onto a worklist
                                 (initial seeds included)
``solver.skipped_inqueue``       enqueues suppressed by the in-queue
                                 bitmap (duplicate-push savings;
                                 frozen boundary nodes are marked
                                 permanently in-queue, so their
                                 suppressions count here too)
``solver.revisits{phase=}``      visits of a node already visited in
                                 the same solve (ordering quality)
``solver.routine_iterations{phase=,routine=}``
                                 per-routine visit attribution; only
                                 recorded while :attr:`per_routine`
                                 is on (the ``report`` subcommand)
``program.decode.words`` / ``program.decode.distinct``  instruction
                                 words decoded to rows
                                 (``decode_rows``) and the distinct
                                 ones among them
``program.decode.built``         ``Instruction`` objects built from
                                 rows (a lazy ``Routine.instructions``
                                 read counts here, not in ``words``)
``psg.builds`` / ``psg.partial_builds``  graph constructions
``psg.nodes`` / ``psg.flow_edges`` / ``psg.call_return_edges`` /
``psg.branch_nodes``             PSG sizes, summed over builds
``psg.label.visits`` / ``psg.label.pairs``  the one-sweep labeler's
                                 work: map entries written, (source,
                                 target) pairs read (= edges emitted
                                 by labeling; a routine appended from
                                 its fragment adds to neither)
``psg.label.region_blocks``      blocks the sweep handed to a
                                 back-arc region walk (SCC work)
``psg.built``                    PSGs whose ``PSGNode`` objects were
                                 built from the node rows (for
                                 ``--dot`` and tests)
``cache.hit`` / ``cache.stale`` / ``cache.miss``  per-routine SUM5
                                 fingerprint verdicts on a run (a
                                 report: reuse compares all inputs)
``cache.load`` / ``cache.write`` (+ ``_bytes``)   SUM5 cache I/O
``cache.body.decoded``           sidecar summary bodies decoded (on
                                 their first read)
``cache.body.spliced``           summary bodies a sidecar write copied
                                 from the sidecar it was read from
``cache.fragment.hit`` / ``.miss`` / ``.stale``  per routine a partial
                                 PSG needed: appended from the cache's
                                 fragment, none held, or held for an
                                 older body (or not fitting its sites)
``cache.config_mismatch``        caches set aside because they were
                                 written under another configuration
``frontend.record.hit`` / ``.stale`` / ``.miss``  per-routine front-end
                                 record verdicts of a front-end build
``frontend.record.adopted``      stale/missing routines whose record
                                 came from the summary store instead
``frontend.rows``                routines walked into CFG rows
                                 (``build_cfg`` calls)
``cfg.built``                    CFGs whose ``BasicBlock`` objects were
                                 built from the rows (for the
                                 optimizer, reports, the baseline)
``sidecar.load`` / ``sidecar.write`` (+ ``_bytes``) SUM1 sidecar I/O
``store.hit`` / ``store.miss``   cross-image summary-store lookups of
                                 the two summary grades
``store.corrupt``                packs a store view discarded (and
                                 unlinked): frame, checksum or index
                                 failed, or a record did not decode
``store.write`` / ``store.bytes`` records published and their sizes
``store.frontend.hit`` / ``.miss`` / ``.write`` / ``.bytes``
                                 the same, for the front-end grade
``store.evict``                  packs removed by a store GC sweep
``query.requests``               demand-driven queries answered
``query.cone_routines{phase=}``  routines in the query's phase-1 /
                                 phase-2 cones, summed over queries
``query.solved`` / ``query.reused``  phase-2 work inside the cones
``regset.constructed``           RegisterSet objects built
=============================== =====================================

Histogram series (``service.request.seconds{endpoint=,warm=}``,
``service.queue_wait.seconds{endpoint=}``,
``service.stage.seconds{stage=}``) are inventoried in
``docs/observability.md``; a name must not be reused across kinds
(counter vs maximum vs histogram).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Mapping, Tuple, Union

from repro.obs.hist import Histogram

#: Canonical key for one time series: ``(name, ((label, value), ...))``
#: with the label pairs sorted.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: One snapshot entry: a counter value, or a frozen histogram state.
SnapshotValue = Union[float, Histogram]

#: Keys that :meth:`MetricsRegistry.delta_since` always emits (as zero
#: when untouched) so ``--json`` consumers can rely on their presence.
SEEDED_KEYS: Tuple[MetricKey, ...] = (
    ("cache.body.decoded", ()),
    ("cache.body.spliced", ()),
    ("cache.config_mismatch", ()),
    ("cache.fragment.hit", ()),
    ("cache.fragment.miss", ()),
    ("cache.fragment.stale", ()),
    ("cache.hit", ()),
    ("cache.miss", ()),
    ("cache.stale", ()),
    ("cache.write", ()),
    ("cfg.built", ()),
    ("frontend.record.adopted", ()),
    ("frontend.record.hit", ()),
    ("frontend.record.miss", ()),
    ("frontend.record.stale", ()),
    ("frontend.routines", ()),
    ("frontend.rows", ()),
    ("program.decode.built", ()),
    ("psg.built", ()),
    ("query.requests", ()),
    ("query.solved", ()),
    ("query.reused", ()),
    ("solver.iterations", (("phase", "phase1"),)),
    ("solver.iterations", (("phase", "phase2"),)),
    ("solver.pushes", ()),
    ("solver.revisits", (("phase", "phase1"),)),
    ("solver.revisits", (("phase", "phase2"),)),
    ("solver.skipped_inqueue", ()),
    ("store.corrupt", ()),
    ("store.frontend.hit", ()),
    ("store.frontend.miss", ()),
    ("store.frontend.write", ()),
    ("store.hit", ()),
    ("store.miss", ()),
    ("store.write", ()),
)


def _key(name: str, labels: Mapping[str, Any]) -> MetricKey:
    if not labels:
        return (name, ())
    return (
        name,
        tuple(sorted((key, str(value)) for key, value in labels.items())),
    )


def render_key(key: MetricKey) -> str:
    """``name`` or ``name{k=v,...}`` — the stable external spelling."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{label}={value}" for label, value in labels)
    return f"{name}{{{inner}}}"


def _numeric(value: float) -> float:
    """Ints stay ints in JSON output; floats stay floats."""
    as_int = int(value)
    return as_int if as_int == value else value


class MetricsRegistry:
    """Cumulative labeled counters, maxima, and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, float] = {}
        self._maxima: Dict[MetricKey, float] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}
        # The service daemon records from concurrent request threads;
        # a read-modify-write on a dict slot is not atomic, so every
        # mutation and every multi-item read holds this lock.  The
        # single-threaded paths (CLI, tests) pay one uncontended
        # acquire per op.
        self._lock = threading.RLock()
        #: When true, the phase engines additionally attribute worklist
        #: visits to individual routines
        #: (``solver.routine_iterations``).  Off by default: the
        #: attribution pass is O(nodes) per solve and only the
        #: ``report`` subcommand reads it.
        self.per_routine = False

    # -- recording ----------------------------------------------------

    def inc(self, name: str, amount: float = 1, **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def observe_max(self, name: str, value: float, **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            if value > self._maxima.get(key, float("-inf")):
                self._maxima[key] = value

    def observe_hist(
        self,
        name: str,
        value: float,
        buckets: Iterable[float] = None,
        **labels: Any,
    ) -> None:
        """Record one observation into a histogram series.

        The series is created on first observation with ``buckets``
        (default :data:`~repro.obs.hist.DEFAULT_BUCKETS`); later
        observations ignore ``buckets`` — boundaries are fixed for the
        life of a series so states stay mergeable and subtractable.
        """
        key = _key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = (
                    Histogram(buckets) if buckets is not None else Histogram()
                )
            hist.observe(value)

    # -- reading ------------------------------------------------------

    def value(self, name: str, **labels: Any) -> float:
        key = _key(name, labels)
        if key in self._counters:
            return self._counters[key]
        return self._maxima.get(key, 0)

    def labeled(self, name: str) -> List[Tuple[Dict[str, str], float]]:
        """All series with the given name: ``[(labels_dict, value)]``."""
        out: List[Tuple[Dict[str, str], float]] = []
        for store in (self._counters, self._maxima):
            for (series, labels), value in store.items():
                if series == name:
                    out.append((dict(labels), value))
        return out

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """A frozen copy of one histogram series (``None`` if absent)."""
        key = _key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            return hist.copy() if hist is not None else None

    def snapshot(self) -> Dict[MetricKey, SnapshotValue]:
        """Counter and histogram state now — pair with
        :meth:`delta_since`.  Counter entries are floats; histogram
        entries are frozen :class:`Histogram` copies under the same
        ``(name, labels)`` keys (the kinds never share a name)."""
        with self._lock:
            out: Dict[MetricKey, SnapshotValue] = dict(self._counters)
            for key, hist in self._histograms.items():
                out[key] = hist.copy()
            return out

    def delta_since(
        self, snapshot: Mapping[MetricKey, SnapshotValue]
    ) -> Dict[str, object]:
        """Per-run view: counter deltas, histogram deltas, maxima.

        Keys are rendered strings (``name{label=value}``), sorted, with
        :data:`SEEDED_KEYS` always present (zero when untouched) and
        maxima reported at their cumulative high-water mark.  Counter
        values are numbers; a histogram series touched since the
        snapshot appears as its bucket-wise delta's compact summary
        (``{"count", "sum", "p50", "p95", "p99"}`` — see
        :meth:`~repro.obs.hist.Histogram.to_json`).
        """
        with self._lock:
            counters = dict(self._counters)
            maxima = dict(self._maxima)
            histograms = {
                key: hist.copy() for key, hist in self._histograms.items()
            }
        out: Dict[str, object] = {}
        for key, value in counters.items():
            base = snapshot.get(key, 0)
            delta = value - (base if isinstance(base, (int, float)) else 0)
            if delta:
                out[render_key(key)] = _numeric(delta)
        for key in SEEDED_KEYS:
            out.setdefault(render_key(key), 0)
        for key, value in maxima.items():
            out[render_key(key)] = _numeric(value)
        for key, hist in histograms.items():
            base = snapshot.get(key)
            delta_hist = (
                hist.subtract(base) if isinstance(base, Histogram) else hist
            )
            if delta_hist.count:
                out[render_key(key)] = delta_hist.to_json()
        return dict(sorted(out.items()))

    def as_dict(self) -> Dict[str, float]:
        """Every scalar series, cumulative, keyed by rendered name.

        Histograms are deliberately excluded — existing consumers of
        this mapping (``/metricsz`` JSON, benchmark ``counters``)
        expect numeric values only; use :meth:`histograms_dict` for the
        distribution series.
        """
        with self._lock:
            counters = dict(self._counters)
            maxima = dict(self._maxima)
        out = {
            render_key(key): _numeric(value) for key, value in counters.items()
        }
        for key, value in maxima.items():
            out[render_key(key)] = _numeric(value)
        return dict(sorted(out.items()))

    def histograms_dict(self) -> Dict[str, Dict[str, object]]:
        """Every histogram series, cumulative: rendered key →
        ``{count, sum, p50, p95, p99, buckets: {le: cumulative}}``."""
        with self._lock:
            histograms = {
                render_key(key): hist.copy()
                for key, hist in self._histograms.items()
            }
        out: Dict[str, Dict[str, object]] = {}
        for rendered, hist in sorted(histograms.items()):
            payload = hist.to_json()
            payload["buckets"] = {
                ("+Inf" if bound == float("inf") else repr(bound)): total
                for bound, total in hist.cumulative()
            }
            out[rendered] = payload
        return out

    def dump(
        self,
    ) -> Tuple[
        Dict[MetricKey, float],
        Dict[MetricKey, float],
        Dict[MetricKey, Histogram],
    ]:
        """Frozen ``(counters, maxima, histograms)`` copies keyed by
        :data:`MetricKey` — the exposition renderer's input."""
        with self._lock:
            return (
                dict(self._counters),
                dict(self._maxima),
                {key: hist.copy() for key, hist in self._histograms.items()},
            )

    def reset(self) -> None:
        """Drop everything (tests)."""
        with self._lock:
            self._counters = {}
            self._maxima = {}
            self._histograms = {}


REGISTRY = MetricsRegistry()


def render_counters(counters: Mapping[str, float], indent: str = "  ") -> str:
    """Align a ``delta_since`` mapping for the CLI ``--stats`` block."""
    if not counters:
        return f"{indent}(no counters recorded)"
    width = max(len(name) for name in counters)
    lines = []
    for name in sorted(counters):
        value = counters[name]
        if isinstance(value, Mapping):  # histogram delta summary
            rendered = (
                f"count={value.get('count', 0):,} "
                f"p50={value.get('p50', 0):.6f} "
                f"p99={value.get('p99', 0):.6f}"
            )
        elif isinstance(value, int):
            rendered = f"{value:,}"
        else:
            rendered = f"{value:,.2f}"
        lines.append(f"{indent}{name:<{width}}  {rendered}")
    return "\n".join(lines)
