"""A traffic-shaped load driver for the analysis daemon.

``benchmarks/bench_service.py`` measures one carefully sequenced
cold/warm/edit round trip; a service claim needs more than that — it
needs p50/p95/p99 under *traffic*: skewed image popularity, bursts,
tenants that have never been seen before, optimizer edit streams.  This
module is the ROADMAP's "load driver + trace-replay benchmark harness"
item:

* :class:`Req` — one request to issue (endpoint kind, image, tenant,
  optional routine, open-loop arrival offset).
* :class:`ReqGenEngine` — a seeded, deterministic request-stream
  generator.  Engines:

  - :class:`UniformEngine` — uniform image and routine choice with a
    configurable analyze/query mix;
  - :class:`ZipfEngine` — Zipf-skewed choice (rank ``r`` drawn with
    probability ``∝ 1/r^s``), the standard popularity model: a few hot
    images absorb most traffic, the tail stays cold;
  - :class:`EditReplayEngine` — replays a recorded edit trace (see
    :func:`record_edit_trace`) over one image, modelling an optimizer
    that keeps re-analyzing as it rewrites routines.

  Every engine mints fresh tenants for a configurable *cold fraction*
  of requests — a never-seen tenant namespaces a new session, so cold
  and warm paths mix the way real multi-tenant traffic does.
* :class:`Workload` — pairs an engine with an arrival process
  (open-loop: exponential inter-arrival gaps at a target rate, with
  seeded bursts that issue back-to-back) and drives a live daemon
  concurrently through :class:`~repro.service.client.ServiceClient`,
  collecting per-request latencies into a :class:`WorkloadReport`
  (client-side p50/p95/p99 are exact order statistics, not bucket
  estimates — the cross-check for the server's histograms).

Everything is seeded; the same ``(engine, seed, count)`` triple issues
byte-identical request streams, which is what lets CI assert "server
histogram count == requests sent" without slack.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.service.client import ServiceClient, ServiceError
from repro.workloads.generator import GeneratorConfig, generate_benchmark
from repro.program.rewrite import program_to_image
from repro.workloads.mutate import editable_routines

#: Request kinds an engine can emit.
KIND_ANALYZE = "analyze"
KIND_QUERY = "query"
KIND_EDIT = "edit"


@dataclass(frozen=True)
class ImageSpec:
    """One image the driver can aim requests at."""

    name: str
    image_bytes: bytes
    #: Queryable routine names (``/v1/query`` targets).
    routines: Tuple[str, ...]
    #: Routines ``perturb_routine`` can edit (edit-replay targets).
    editable: Tuple[str, ...] = ()

    @classmethod
    def from_benchmark(
        cls, name: str, scale: float = 1.0, seed: int = 0
    ) -> "ImageSpec":
        """Generate a Table-2/3 image (optionally scaled) as a target."""
        program, _ = generate_benchmark(
            name, scale=scale, config=GeneratorConfig(seed=seed)
        )
        return cls(
            name=name,
            image_bytes=program_to_image(program).to_bytes(),
            routines=tuple(r.name for r in program.routines),
            editable=tuple(editable_routines(program)),
        )


@dataclass(frozen=True)
class Req:
    """One request to issue against the daemon."""

    kind: str
    image: str
    tenant: str = "public"
    #: Query target (``kind == "query"``) or edit target
    #: (``kind == "edit"``; ``None`` edits the default routine).
    routine: Optional[str] = None
    #: Open-loop arrival offset in seconds from workload start.
    at: float = 0.0


@dataclass
class ReqResult:
    """What one issued request came back as."""

    kind: str
    image: str
    status: int
    warm: bool
    seconds: float
    run_id: Optional[str] = None


class ReqGenEngine:
    """Base class for seeded request-stream generators.

    Subclasses implement :meth:`_generate_one`; the base class owns the
    tenant mix — a ``cold_fraction`` of requests get a fresh
    never-seen tenant (forcing a new session: the registry namespaces
    by tenant), the rest share one warm tenant.
    """

    name = "base"

    def __init__(
        self,
        images: Sequence[ImageSpec],
        seed: int = 0,
        cold_fraction: float = 0.0,
        tenant: str = "load",
    ) -> None:
        if not images:
            raise ValueError("at least one ImageSpec is required")
        self.images = list(images)
        self.seed = seed
        self.cold_fraction = cold_fraction
        self.tenant = tenant

    def requests(self, count: int) -> List[Req]:
        """The first ``count`` requests of this engine's stream."""
        rng = random.Random(self.seed)
        out: List[Req] = []
        for index in range(count):
            req = self._generate_one(rng, index)
            if self.cold_fraction and rng.random() < self.cold_fraction:
                req = Req(
                    kind=req.kind,
                    image=req.image,
                    tenant=f"{self.tenant}-cold-{index}",
                    routine=req.routine,
                )
            out.append(req)
        return out

    def _generate_one(self, rng: random.Random, index: int) -> Req:
        raise NotImplementedError


class UniformEngine(ReqGenEngine):
    """Uniform image choice; ``query_fraction`` of requests are
    single-routine demand queries, the rest whole-image analyzes."""

    name = "uniform"

    def __init__(
        self,
        images: Sequence[ImageSpec],
        seed: int = 0,
        cold_fraction: float = 0.0,
        query_fraction: float = 0.5,
        tenant: str = "load",
    ) -> None:
        super().__init__(images, seed, cold_fraction, tenant)
        self.query_fraction = query_fraction

    def _generate_one(self, rng: random.Random, index: int) -> Req:
        spec = rng.choice(self.images)
        if spec.routines and rng.random() < self.query_fraction:
            return Req(
                kind=KIND_QUERY,
                image=spec.name,
                tenant=self.tenant,
                routine=rng.choice(spec.routines),
            )
        return Req(kind=KIND_ANALYZE, image=spec.name, tenant=self.tenant)


def zipf_weights(count: int, skew: float) -> List[float]:
    """Normalized Zipf weights: rank ``r`` (1-based) gets ``1/r^skew``."""
    raw = [1.0 / (rank ** skew) for rank in range(1, count + 1)]
    total = sum(raw)
    return [value / total for value in raw]


class ZipfEngine(UniformEngine):
    """Zipf-skewed image *and* routine popularity.

    ``skew`` ≈ 1 is the classic web-traffic curve; higher concentrates
    harder.  Image rank follows the order of ``images``; routine rank
    follows each image's routine order, so the same seed hits the same
    hot set run over run.
    """

    name = "zipf"

    def __init__(
        self,
        images: Sequence[ImageSpec],
        seed: int = 0,
        cold_fraction: float = 0.0,
        query_fraction: float = 0.5,
        skew: float = 1.1,
        tenant: str = "load",
    ) -> None:
        super().__init__(
            images, seed, cold_fraction, query_fraction, tenant
        )
        self.skew = skew
        self._image_weights = zipf_weights(len(self.images), skew)

    def _generate_one(self, rng: random.Random, index: int) -> Req:
        spec = rng.choices(self.images, weights=self._image_weights)[0]
        if spec.routines and rng.random() < self.query_fraction:
            routine = rng.choices(
                spec.routines,
                weights=zipf_weights(len(spec.routines), self.skew),
            )[0]
            return Req(
                kind=KIND_QUERY,
                image=spec.name,
                tenant=self.tenant,
                routine=routine,
            )
        return Req(kind=KIND_ANALYZE, image=spec.name, tenant=self.tenant)


def record_edit_trace(
    spec: ImageSpec, length: int, seed: int = 0
) -> List[str]:
    """A seeded "optimizer session": the sequence of routines an
    imagined optimizer edits, drawn (with repeats) from the image's
    editable routines.  Deterministic, so a trace can be recorded once
    and replayed anywhere."""
    if not spec.editable:
        raise ValueError(f"image {spec.name!r} has no editable routines")
    rng = random.Random(seed)
    return [rng.choice(spec.editable) for _ in range(length)]


class EditReplayEngine(ReqGenEngine):
    """Replay a recorded edit trace over one image.

    The first request is a plain analyze (the base the SUM4 cache seeds
    from); each subsequent request re-analyzes with the traced routine
    perturbed — the daemon's incremental warm-start path under a
    realistic edit stream.
    """

    name = "edit-replay"

    def __init__(
        self,
        spec: ImageSpec,
        trace: Sequence[str],
        seed: int = 0,
        tenant: str = "load",
    ) -> None:
        super().__init__([spec], seed, cold_fraction=0.0, tenant=tenant)
        self.trace = list(trace)

    def requests(self, count: int) -> List[Req]:
        spec = self.images[0]
        out = [Req(kind=KIND_ANALYZE, image=spec.name, tenant=self.tenant)]
        for index in range(count - 1):
            out.append(
                Req(
                    kind=KIND_EDIT,
                    image=spec.name,
                    tenant=self.tenant,
                    routine=self.trace[index % len(self.trace)],
                )
            )
        return out[:count]

    def _generate_one(self, rng: random.Random, index: int) -> Req:
        raise NotImplementedError  # requests() is fully overridden


def assign_arrivals(
    reqs: Sequence[Req],
    rate: float,
    seed: int = 0,
    burst_probability: float = 0.2,
) -> List[Req]:
    """Stamp open-loop arrival offsets onto a request stream.

    Inter-arrival gaps are exponential at ``rate`` requests/second
    (a Poisson process), except that with ``burst_probability`` a
    request arrives back-to-back with its predecessor — the bursty
    open-loop shape that exposes queueing, which a closed loop
    (issue → wait → issue) structurally cannot.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    rng = random.Random(seed)
    clock = 0.0
    out: List[Req] = []
    for req in reqs:
        out.append(
            Req(
                kind=req.kind,
                image=req.image,
                tenant=req.tenant,
                routine=req.routine,
                at=clock,
            )
        )
        if rng.random() >= burst_probability:
            clock += rng.expovariate(rate)
    return out


@dataclass
class WorkloadReport:
    """Client-side view of one workload run."""

    engine: str
    results: List[ReqResult]
    wall_seconds: float

    @property
    def count(self) -> int:
        return len(self.results)

    @property
    def errors(self) -> int:
        return sum(1 for r in self.results if r.status >= 400)

    @property
    def warm_count(self) -> int:
        return sum(1 for r in self.results if r.warm)

    @property
    def throughput(self) -> float:
        return self.count / self.wall_seconds if self.wall_seconds else 0.0

    def quantile(self, q: float) -> float:
        """Exact order-statistic latency quantile (seconds)."""
        latencies = sorted(r.seconds for r in self.results)
        if not latencies:
            return 0.0
        index = min(len(latencies) - 1, int(q * len(latencies)))
        return latencies[index]

    def to_json(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "requests": self.count,
            "errors": self.errors,
            "warm": self.warm_count,
            "wall_seconds": round(self.wall_seconds, 6),
            "throughput_rps": round(self.throughput, 3),
            "p50_ms": round(self.quantile(0.50) * 1e3, 3),
            "p95_ms": round(self.quantile(0.95) * 1e3, 3),
            "p99_ms": round(self.quantile(0.99) * 1e3, 3),
        }


class Workload:
    """Drive a daemon with an engine's stream, concurrently.

    ``connect`` is anything that builds a :class:`ServiceClient` for a
    tenant — the driver never cares whether the daemon is TCP or a
    unix socket.  With ``rate`` set the stream is open-loop (arrival
    times honored even while earlier requests are still in flight, up
    to ``concurrency`` transport threads); without it, requests issue
    as fast as the thread pool can carry them.
    """

    def __init__(
        self,
        engine: ReqGenEngine,
        count: int,
        concurrency: int = 4,
        rate: Optional[float] = None,
        burst_probability: float = 0.2,
        seed: int = 0,
    ) -> None:
        self.engine = engine
        self.count = count
        self.concurrency = concurrency
        self.rate = rate
        self.burst_probability = burst_probability
        self.seed = seed

    def plan(self) -> List[Req]:
        reqs = self.engine.requests(self.count)
        if self.rate is not None:
            reqs = assign_arrivals(
                reqs, self.rate, self.seed, self.burst_probability
            )
        return reqs

    def run(
        self,
        connect: Callable[[Optional[str]], ServiceClient],
    ) -> WorkloadReport:
        reqs = self.plan()
        images = {spec.name: spec for spec in self.engine.images}
        start = time.perf_counter()

        def issue(req: Req) -> ReqResult:
            client = connect(req.tenant)
            spec = images[req.image]
            issued = time.perf_counter()
            try:
                if req.kind == KIND_QUERY:
                    response = client.query(
                        spec.image_bytes, req.routine, # type: ignore[arg-type]
                    )
                elif req.kind == KIND_EDIT:
                    edit: Dict[str, object] = {}
                    if req.routine is not None:
                        edit["routine"] = req.routine
                    response = client.analyze(spec.image_bytes, edit=edit)
                else:
                    response = client.analyze(spec.image_bytes)
                status = response.status
                warm = response.warm
                run_id = response.run_id
            except ServiceError as error:
                status, warm, run_id = error.status, False, None
            return ReqResult(
                kind=req.kind,
                image=req.image,
                status=status,
                warm=warm,
                seconds=time.perf_counter() - issued,
                run_id=run_id,
            )

        with ThreadPoolExecutor(max_workers=self.concurrency) as pool:
            futures = []
            for req in reqs:
                delay = start + req.at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                futures.append(pool.submit(issue, req))
            results = [future.result() for future in futures]
        return WorkloadReport(
            engine=self.engine.name,
            results=results,
            wall_seconds=time.perf_counter() - start,
        )
