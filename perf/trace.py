"""The benchmark's own tracer: in-memory spans around layer calls.

Spans are recorded from the benchmark's files, around the calls the
scripts make into each layer's public functions — nothing inside
``src/`` is touched.  A span is ``(name, start, end, parent, op_id)``:
``parent`` is the index of the enclosing span (``-1`` at top level)
and every span of one script operation shares that operation's
``op_id``.  Records stay in memory and are written out once, when the
traced run ends.

A layer's **self time** is its span's duration minus the part of that
interval its child spans cover; children are always properly nested,
so that is the duration minus the sum of the direct children's
durations.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.index = len(tracer.records)
        parent = tracer._stack[-1] if tracer._stack else -1
        tracer.records.append([self.name, 0.0, 0.0, parent, tracer.op_id])
        tracer._stack.append(self.index)
        tracer.records[self.index][1] = tracer.clock()
        return self

    def __exit__(self, *_exc) -> None:
        tracer = self.tracer
        tracer.records[self.index][2] = tracer.clock()
        tracer._stack.pop()


class NullSpan:
    """What ``span()`` costs when tracing is off: nothing."""

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *_exc) -> None:
        return None


NULL_SPAN = NullSpan()


class Tracer:
    """Collects nested spans on one clock (process CPU seconds by
    default, the same clock the end-to-end metrics use)."""

    def __init__(self, clock=time.process_time) -> None:
        self.clock = clock
        #: ``[name, start, end, parent_index, op_id]`` per span.
        self.records: List[list] = []
        self._stack: List[int] = []
        #: Identifier shared by every span of the current operation.
        self.op_id: Optional[str] = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_times(self) -> List[Tuple[str, Optional[str], float]]:
        """``(name, op_id, self seconds)`` per span, in record order."""
        covered = [0.0] * len(self.records)
        for _name, start, end, parent, _op in self.records:
            if parent >= 0:
                covered[parent] += end - start
        return [
            (name, op_id, (end - start) - covered[index])
            for index, (name, start, end, _parent, op_id)
            in enumerate(self.records)
        ]

    def self_by_name(self) -> Dict[Tuple[str, Optional[str]], float]:
        """Self seconds summed per ``(name, op_id)``."""
        totals: Dict[Tuple[str, Optional[str]], float] = defaultdict(float)
        for name, op_id, seconds in self.self_times():
            totals[(name, op_id)] += seconds
        return dict(totals)

    def dump(self, path: str, **header) -> None:
        """Write every span out (called once, at the end of the run)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **header,
                    "fields": ["name", "start", "end", "parent", "op_id"],
                    "spans": self.records,
                },
                handle,
            )
