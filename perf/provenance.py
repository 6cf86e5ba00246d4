"""Where and on what a result was measured.

Every result file carries this block, and ``run.py`` refuses to pool
measuring children whose ``sha``, ``source_crc`` or ``seed`` differ —
numbers from two different programs must never be averaged.  The
driver's checkouts are not git repositories, so alongside the git sha
there is a content digest of ``src/repro`` that needs no git.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
import zlib

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
SRC = os.path.join(ROOT, "src")

#: ``personality(2)`` flag set by ``setarch -R``.
ADDR_NO_RANDOMIZE = 0x0040000


def _git(*args: str):
    try:
        done = subprocess.run(
            ("git", "-C", ROOT) + args,
            capture_output=True, text=True, timeout=20,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_crc() -> str:
    """CRC32 over every ``src/repro`` source file, in path order."""
    crc = 0
    for directory, subdirs, files in os.walk(os.path.join(SRC, "repro")):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                crc = zlib.crc32(os.path.relpath(path, SRC).encode(), crc)
                with open(path, "rb") as handle:
                    crc = zlib.crc32(handle.read(), crc)
    return format(crc, "08x")


def aslr_disabled() -> bool:
    """True when this process runs with address randomization off."""
    try:
        with open("/proc/self/personality", encoding="ascii") as handle:
            return bool(int(handle.read().strip(), 16) & ADDR_NO_RANDOMIZE)
    except (OSError, ValueError):
        return False


def filesystem_of(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (``"unknown"``
    when ``/proc/mounts`` cannot say)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def loadavg():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def collect(seed: int) -> dict:
    """The provenance block of the calling process."""
    status = _git("status", "--porcelain")
    return {
        "sha": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_crc": source_crc(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        "aslr_disabled": aslr_disabled(),
        "argv": sys.argv[1:],
        "started": time.time(),
        "loadavg_before": loadavg(),
    }


def finish(block: dict) -> dict:
    block["ended"] = time.time()
    block["loadavg_after"] = loadavg()
    return block


IDENTITY_KEYS = ("sha", "source_crc", "seed")


def check_same(blocks) -> None:
    """Raise ``ValueError`` unless every block names the same program
    and seed."""
    first = blocks[0]
    for other in blocks[1:]:
        for key in IDENTITY_KEYS:
            if other.get(key) != first.get(key):
                raise ValueError(
                    f"refusing to merge results: {key} differs "
                    f"({first.get(key)!r} vs {other.get(key)!r})"
                )
