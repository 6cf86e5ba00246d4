"""Run-scoped trace identifiers.

Every analysis run (one ``AnalysisSession.analyze*`` call, one CLI
invocation, or one daemon request) is stamped with a short random hex
identifier.  The same id appears in log lines and in the exported
Chrome trace.

The id is *thread-local*: the service daemon handles requests on worker
threads and scopes one run id to each request, so interleaved log lines
from concurrent requests stay attributable.  Single-threaded callers
(the CLI, tests) see the old module-global behaviour unchanged.
"""

from __future__ import annotations

import os
import threading
from typing import Optional

_STATE = threading.local()


def new_run_id() -> str:
    """Install and return a fresh run identifier (12 hex chars)."""
    _STATE.run_id = os.urandom(6).hex()
    return _STATE.run_id


def clear_run_id() -> None:
    """Drop this thread's run id (end of a daemon request)."""
    _STATE.run_id = None


def current_run_id() -> Optional[str]:
    """The active run id, or ``None`` before the first run starts."""
    return getattr(_STATE, "run_id", None)
