"""``repro.obs`` — always-available, dependency-free observability.

Three cooperating pieces, all stdlib-only:

- :mod:`repro.obs.tracer` — hierarchical span tracing, exported as
  Chrome trace-event JSON (``spike-analyze analyze --trace out.json``).
- :mod:`repro.obs.metrics` — the process-wide labeled counter/maxima
  registry, and the per-run ledgers surfaced in ``--json`` payloads,
  ``--stats``, and the ``spike-analyze report`` subcommand.
- :mod:`repro.obs.log` — structured stdlib logging for the ``repro.*``
  tree, run-id-stamped, controlled by ``--log-level`` / ``REPRO_LOG``.

See ``docs/observability.md`` for the design and counter inventory.
"""

from __future__ import annotations

import os as _os

from repro.obs.hist import DEFAULT_BUCKETS, Histogram
from repro.obs.log import ENV_VAR, configure_logging, resolve_level
from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    render_counters,
    render_key,
)
from repro.obs.prometheus import render_prometheus
from repro.obs.runid import (
    clear_run_id,
    current_run_id,
    new_run_id,
)
from repro.obs.tracer import (
    Tracer,
    disable as disable_tracing,
    enable as enable_tracing,
    get_tracer,
    is_enabled as tracing_enabled,
    span,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "ENV_VAR",
    "Histogram",
    "REGISTRY",
    "MetricsRegistry",
    "Tracer",
    "configure_logging",
    "clear_run_id",
    "current_run_id",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "new_run_id",
    "render_counters",
    "render_key",
    "render_prometheus",
    "resolve_level",
    "span",
    "tracing_enabled",
]

# Library users get logging with zero code changes: exporting
# REPRO_LOG=debug (or any level name) wires up the stderr handler the
# first time any instrumented module imports repro.obs.
if _os.environ.get(ENV_VAR):
    try:
        configure_logging()
    except ValueError:
        # An unparseable REPRO_LOG must never break analysis; the CLI
        # reports it properly when --log-level/REPRO_LOG is resolved.
        pass
