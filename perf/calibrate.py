"""Host-speed calibration: a fixed kernel timed beside every op.

On the shared 2-core hosts this benchmark runs on, identical work
costs a different number of CPU seconds from one minute to the next: a
neighbour on the same physical core or in the shared cache slows
*every* instruction of this process — by 5-25 % in plateaus that last
minutes, and by a steady 2x for minutes at a time when the host is
busy — and ``time.process_time()`` charges all of it.  Best-of-R
removes short bursts; it cannot remove a plateau that outlasts the
run, and when the slowdown flickers it is biased, because a short
sample finds a quiet moment that a long one never does.

So every timed op is flanked by two runs of a **calibration kernel** —
a fixed piece of interpreter work that shares no code with the program
under test — and a sample is kept as the *ratio* of the op's CPU
seconds to the mean of its two kernel runs.  Whatever slowed the op
slowed the kernel beside it, so the ratio stays put; a position's time
is the **median** of its ratios, times :data:`KERNEL_REF_S`::

    calibrated seconds = KERNEL_REF_S * median(op_cpu_s / kernel_cpu_s)

Evidence (a prototype of this kernel; 30 fresh processes of ~13
samples each over 11 minutes, the second half of them under a
sustained 1.5-2x slowdown; spread = IQR / median over the 30
per-process values, for image decode / gcc analyze / call-mesh
analyze):

====================================  ======  ======  ======
estimator                             decode  gcc     mesh
====================================  ======  ======  ======
best-of CPU seconds, uncalibrated     39 %    42 %    53 %
best-of op / best-of kernel            5 %    16 %    19 %
**median of op / flanking kernel**     2.8 %   3.1 %   4.5 %
====================================  ======  ======  ======

and over the quieter first half alone 13.6 / 15.6 / 21.0 % uncalibrated
against 4.1 / 2.9 / 3.8 % for the median of ratios.  ``README.md``
has the ten-seed runs of the finished benchmark.

The kernel has two halves, because the program has two kinds of code
and they do not slow down alike: a **stdlib half** (regex compilation,
tokenizing, pretty-printing, sequence matching: branchy pure-Python
code with a large instruction footprint, which is what tracks image
decode and CFG construction) and an **object half** (dict / list /
frozenset churn, which is what tracks the solver on large SCCs).  A
compute-only loop tracked neither (it barely slows at all), and a
pointer chase through a 100 k-object heap tracked the slowdowns but ran
at up to 2x different speeds from one process to the next on a quiet
host, which made it useless as a unit.
"""

from __future__ import annotations

import difflib
import io
import pprint
import random
import time
import tokenize

try:  # Python >= 3.11
    from re import _compiler as _regex_compiler
except ImportError:  # pragma: no cover - older interpreters
    import sre_compile as _regex_compiler

#: Kernel CPU seconds on a quiet run of the reference host: calibrated
#: seconds equal CPU seconds there.  A unit, not a tunable — changing
#: it (or the kernel) rescales every time metric of the benchmark.
KERNEL_REF_S = 0.0165

_PATTERNS = (
    r"(?P<a>\d+)-(?P<b>\w+)(?:\s+foo|bar)*[a-z]{2,5}$",
    r"^(\w+)\s*=\s*(['\"]).*?\2\s*(#.*)?$",
    r"(?i)\b(?:alpha|beta|gamma|delta)\b|\d{3}-\d{4}",
    r"[^\x00-\x7f]+|\s{2,}|(?<=x)y(?!z)",
)
_DATA = {
    f"k{i}": [
        {"a": i, "b": [j * i for j in range(6)], "c": ("x" * (i % 7), i / 3)}
        for _ in range(3)
    ]
    for i in range(40)
}
#: The source text the kernel tokenizes and diffs.
_TEXT = "\n".join(
    f"def f{i}(a, b={i}):\n"
    f"    return [a + b * {i}, {{'k{i}': (a, b)}}, a if b else None]  # {i}\n"
    for i in range(30)
)


def _stdlib_half() -> None:
    for pattern in _PATTERNS:
        _regex_compiler.compile(pattern, 0)
    for _token in tokenize.generate_tokens(io.StringIO(_TEXT).readline):
        pass
    pprint.pformat(_DATA, width=60)
    difflib.SequenceMatcher(None, _TEXT[:400], _TEXT[200:600]).ratio()


def _object_half() -> int:
    rng = random.Random(7)
    groups = {}
    for index in range(4000):
        key = (rng.randrange(500), rng.randrange(50))
        groups.setdefault(key, []).append(
            (index, frozenset((index & 7, index & 31, index % 13)))
        )
    total = 0
    for key in sorted(groups):
        union = set()
        for _index, members in groups[key]:
            union |= members
        total += len(union)
    return total


def kernel() -> float:
    """One kernel pass; returns its CPU seconds."""
    started = time.process_time()
    _stdlib_half()
    _object_half()
    return time.process_time() - started
