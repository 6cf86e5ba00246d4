"""Labeled counter/gauge/histogram registry, and per-run ledgers.

A single process-wide :data:`REGISTRY` accumulates named, labeled
counters (monotonic sums), maxima (high-water gauges) and histograms
(log-bucketed distributions, see :mod:`repro.obs.hist`), in the
Prometheus style: values are **cumulative for the life of the process**
and are never implicitly reset.

A run counts its own work into a :class:`Ledger`: every
:meth:`MetricsRegistry.inc` and :meth:`~MetricsRegistry.observe_max`
also records into each ledger open on the calling thread.  Each run
entry point opens one and its result carries it, so
``AnalysisSession.metrics()``, the schema-1 payload's ``counters`` and
the CLI ``--stats`` block describe that run alone, whatever else the
process (or another thread) ran meanwhile.  :meth:`MetricsRegistry.
snapshot` / :meth:`~MetricsRegistry.delta_since` measure a stretch of
the whole process instead (tests, the benchmark's ledger).

Every counter, maximum and histogram name is inventoried, with its
meaning, in ``docs/observability.md`` (a tier-1 test checks that every
name recorded here is spelled there); a name must not be reused across
kinds (counter vs maximum vs histogram).
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

#: Keys every per-run view (:meth:`Ledger.as_dict`,
#: :meth:`MetricsRegistry.delta_since`) emits, as zero when untouched,
#: so ``--json`` consumers can rely on their presence.
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
    ("frontend.record.adopted", ()),
    ("frontend.record.hit", ()),
    ("frontend.record.miss", ()),
    ("frontend.record.stale", ()),
    ("frontend.routines", ()),
    ("frontend.rows", ()),
    ("query.requests", ()),
    ("query.solved", ()),
    ("query.reused", ()),
    ("solver.iterations", (("phase", "phase1"),)),
    ("solver.iterations", (("phase", "phase2"),)),
    ("solver.pushes", ()),
    ("solver.revisits", (("phase", "phase1"),)),
    ("solver.revisits", (("phase", "phase2"),)),
    ("solver.skipped_inqueue", ()),
    ("store.body.checked", ()),
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
    if len(labels) == 1:  # most series: no sort
        ((label, value),) = labels.items()
        return (name, ((label, str(value)),))
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


def _per_run(
    counters: Mapping[MetricKey, float],
    maxima: Mapping[MetricKey, float],
    histograms: Mapping[MetricKey, Histogram],
) -> Dict[str, object]:
    """The rendered per-run view: nonzero counters, :data:`SEEDED_KEYS`,
    maxima, and each touched histogram's compact summary, sorted."""
    out: Dict[str, object] = {
        render_key(key): _numeric(value)
        for key, value in counters.items() if value
    }
    for key in SEEDED_KEYS:
        out.setdefault(render_key(key), 0)
    for key, value in maxima.items():
        out[render_key(key)] = _numeric(value)
    for key, hist in histograms.items():
        if hist.count:
            out[render_key(key)] = hist.to_json()
    return dict(sorted(out.items()))


def _merge(counters: Dict, maxima: Dict, other: "Ledger") -> None:
    for key, value in other.counters.items():
        counters[key] = counters.get(key, 0) + value
    for key, value in other.maxima.items():
        if value > maxima.get(key, float("-inf")):
            maxima[key] = value


class _OpenLedgers(threading.local):
    def __init__(self) -> None:
        self.ledgers: List["Ledger"] = []


_OPEN = _OpenLedgers()


class Ledger:
    """The counters and maxima of one run.

    While a ledger is open on a thread (``with ledger:``), every
    :meth:`MetricsRegistry.inc` and :meth:`~MetricsRegistry.observe_max`
    made on that thread is recorded into it as well as into the
    registry — into each open ledger, when runs nest (the optimizer's
    ledger sees its analyses').  A run entry point opens one and its
    result carries it; re-entering it later counts work done on the
    run's behalf afterwards (a payload decoding the run's summaries).
    Histograms are not recorded.  A ledger is never open on two threads
    at once: whoever re-enters one serializes on the result.

    A run that counts per region counts into one it does not open
    instead (:meth:`inc`, :meth:`observe_max`: a dict update each) and
    has the registry absorb it once (:meth:`MetricsRegistry.absorb`).
    """

    def __init__(self) -> None:
        self.counters: Dict[MetricKey, float] = {}
        self.maxima: Dict[MetricKey, float] = {}

    def __enter__(self) -> "Ledger":
        _OPEN.ledgers.append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        _OPEN.ledgers.remove(self)

    def value(self, name: str, **labels: Any) -> float:
        key = _key(name, labels)
        if key in self.counters:
            return self.counters[key]
        return self.maxima.get(key, 0)

    def inc(self, name: str, amount: float = 1, **labels: Any) -> None:
        key = _key(name, labels)
        self.counters[key] = self.counters.get(key, 0) + amount

    def observe_max(self, name: str, value: float, **labels: Any) -> None:
        key = _key(name, labels)
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def clear(self) -> None:
        self.counters, self.maxima = {}, {}

    def absorb(self, other: "Ledger") -> None:
        """Count ``other``'s counters and maxima as this run's too (the
        registry has them already)."""
        _merge(self.counters, self.maxima, other)

    def as_dict(self) -> Dict[str, object]:
        """Rendered keys, sorted, with :data:`SEEDED_KEYS` always
        present and maxima at the run's own high-water mark."""
        return _per_run(self.counters, self.maxima, {})


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
        for ledger in _OPEN.ledgers:
            ledger.counters[key] = ledger.counters.get(key, 0) + amount

    def observe_max(self, name: str, value: float, **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            if value > self._maxima.get(key, float("-inf")):
                self._maxima[key] = value
        for ledger in _OPEN.ledgers:
            if value > ledger.maxima.get(key, float("-inf")):
                ledger.maxima[key] = value

    def absorb(self, tally: Ledger) -> None:
        """Record ``tally``'s counts here and in each open ledger, as
        its calls made here one by one would have, zeros included."""
        with self._lock:
            _merge(self._counters, self._maxima, tally)
        for ledger in _OPEN.ledgers:
            ledger.absorb(tally)

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
        """The process's work since ``snapshot``: counter deltas,
        histogram deltas, maxima.

        Keys are rendered strings (``name{label=value}``), sorted, with
        :data:`SEEDED_KEYS` always present (zero when untouched) and
        maxima reported at their cumulative high-water mark.  Counter
        values are numbers; a histogram series touched since the
        snapshot appears as its bucket-wise delta's compact summary
        (``{"count", "sum", "p50", "p95", "p99"}`` — see
        :meth:`~repro.obs.hist.Histogram.to_json`).  One run's own
        counters are its :class:`Ledger`'s.
        """
        counters, maxima, histograms = self.dump()
        deltas = {}
        for key, value in counters.items():
            base = snapshot.get(key, 0)
            deltas[key] = value - (base if isinstance(base, (int, float)) else 0)
        for key, hist in histograms.items():
            base = snapshot.get(key)
            if isinstance(base, Histogram):
                histograms[key] = hist.subtract(base)
        return _per_run(deltas, maxima, histograms)

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

#: Where code that counts records: the registry, or a run's tally.
Counts = Union[MetricsRegistry, Ledger]


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
