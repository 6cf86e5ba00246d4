"""Log-bucketed latency histograms for the metrics registry.

Counters and maxima (``repro.obs.metrics``) answer "how much work" and
"how deep did it get"; neither answers "how is latency *distributed*".
A mean hides the tail, and a daemon request's tail is what a client
waits on: per-request latency needs p50/p95/p99, not a single wall
clock.  This module supplies the third metric kind:

* :class:`Histogram` — fixed log-spaced bucket boundaries (a
  1-2.5-5 ladder from 100µs to 100s by default, chosen for request
  latencies), a per-bucket counter array, plus running ``count`` and
  ``sum``.  Observation is O(log buckets) (one bisect) and
  allocation-free.
* **Bucket-wise subtraction** — histograms with identical boundaries
  subtract by bucket counts, which is what gives
  :meth:`~repro.obs.metrics.MetricsRegistry.delta_since` honest
  per-run distributions.
* :meth:`Histogram.quantile` — the standard Prometheus-style
  estimate: find the bucket the rank falls in, interpolate linearly
  inside it.  The error is bounded by bucket width (see
  ``docs/observability.md`` for the caveats); the boundaries are
  fixed so estimates are comparable across runs, which adaptive
  schemes are not.

Histograms are registered and observed through
:meth:`repro.obs.metrics.MetricsRegistry.observe_hist`; the registry
owns locking.  Everything here is pure state + arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

#: Default bucket upper bounds in seconds: a 1-2.5-5 ladder covering
#: 100µs (a warm dict-hit response) through 100s (a cold solve of a
#: paper-scale image).  The ``+Inf`` bucket is implicit — it is always
#: the final element of :attr:`Histogram.counts`.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
    10.0, 25.0, 50.0,
    100.0,
)

class Histogram:
    """Fixed-boundary bucketed distribution: counts, sum, quantiles.

    ``boundaries`` are inclusive upper bounds (``value <= bound`` lands
    in that bucket, matching Prometheus ``le`` semantics); values above
    the last boundary land in the implicit ``+Inf`` bucket.  Buckets
    are stored *non-cumulative* internally; the exposition layer
    renders them cumulative.
    """

    __slots__ = ("boundaries", "counts", "count", "sum")

    def __init__(self, boundaries: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds or any(
            b <= a for a, b in zip(bounds, bounds[1:])
        ) or bounds[0] <= 0:
            raise ValueError(
                "histogram boundaries must be positive and strictly "
                f"increasing, got {bounds!r}"
            )
        self.boundaries = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)  # [..., +Inf]
        self.count = 0
        self.sum = 0.0

    # -- recording ----------------------------------------------------

    def observe(self, value: float) -> None:
        """Record one observation (negative values clamp to bucket 0)."""
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value

    # -- algebra ------------------------------------------------------

    def _check_compatible(self, other: "Histogram") -> None:
        if self.boundaries != other.boundaries:
            raise ValueError(
                "histogram boundaries differ: "
                f"{self.boundaries!r} vs {other.boundaries!r}"
            )

    def subtract(self, snapshot: "Histogram") -> "Histogram":
        """The bucket-wise delta since ``snapshot`` (a new histogram).

        ``snapshot`` must be an earlier state of this series: every
        bucket must have grown monotonically (counters never decrease),
        so the delta's buckets are all non-negative.
        """
        self._check_compatible(snapshot)
        delta = Histogram(self.boundaries)
        for index, value in enumerate(self.counts):
            diff = value - snapshot.counts[index]
            if diff < 0:
                raise ValueError(
                    "histogram snapshot is not an earlier state: bucket "
                    f"{index} shrank from {snapshot.counts[index]} to {value}"
                )
            delta.counts[index] = diff
        delta.count = self.count - snapshot.count
        delta.sum = self.sum - snapshot.sum
        return delta

    def copy(self) -> "Histogram":
        clone = Histogram(self.boundaries)
        clone.counts = list(self.counts)
        clone.count = self.count
        clone.sum = self.sum
        return clone

    # -- reading ------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from buckets.

        Prometheus-style: locate the bucket the target rank falls in
        and interpolate linearly inside it (lower edge of the first
        bucket is 0).  Ranks landing in the ``+Inf`` bucket report the
        highest finite boundary — the estimate cannot exceed what the
        buckets resolve.  Returns 0.0 for an empty histogram.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                if index >= len(self.boundaries):  # +Inf bucket
                    return self.boundaries[-1]
                lower = self.boundaries[index - 1] if index else 0.0
                upper = self.boundaries[index]
                fraction = (rank - seen) / bucket_count
                return lower + (upper - lower) * fraction
            seen += bucket_count
        return self.boundaries[-1]  # pragma: no cover - rank <= count

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ``+Inf`` last — the
        exposition shape (``float("inf")`` for the final bound)."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self.boundaries, self.counts):
            running += bucket_count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def to_json(self) -> Dict[str, object]:
        """The compact summary carried in ``counters`` payloads:
        count, sum, and the three headline quantiles."""
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "p50": round(self.quantile(0.50), 9),
            "p95": round(self.quantile(0.95), 9),
            "p99": round(self.quantile(0.99), 9),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(count={self.count}, sum={self.sum:.6f}, "
            f"p50={self.quantile(0.5):.6f}, p99={self.quantile(0.99):.6f})"
        )
