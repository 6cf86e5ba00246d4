#!/usr/bin/env python
"""End-to-end smoke test: hostile inputs end in a documented exit, not a traceback.

Generates a Table-2 image, derives from its bytes the malformed
variants of :func:`hostile_images` (a jump-table target off an
instruction boundary among them), and runs ``spike-analyze analyze``
on each as a real subprocess; each must exit 3 (``EXIT_BAD_IMAGE``).
So must ``summaries`` on the image itself and on a truncated summary
sidecar.  ``run`` and ``optimize --verify`` on an image whose program
faults (:data:`FAULTING`) must exit 4.  An output file in a missing
directory (``analyze --dot``, ``generate -o``, ``optimize -o``) must
exit 5, and an unknown routine (``analyze -r``, with and without
``--incremental``, and ``--dot-routine``) or benchmark (``generate``),
a ``serve --port`` outside 0..65535, a negative ``report --top``, a
``generate --scale`` of 0, -1, nan, inf, 2 or 1e300 and a
``run --max-steps`` of -1 or 0 must exit 2.  Every run must print
exactly one line on stderr and no ``Traceback``.

Usage::

    PYTHONPATH=src python tools/hostile_image_smoke.py [--benchmark compress]
        [--scale 0.2]

Exits non-zero with a one-line reason on any violation, so CI can run
it as a single step.
"""

from __future__ import annotations

import argparse
import os
import struct
import subprocess
import sys
import tempfile
from typing import Dict, List

# The SAX container layout: header, then text, data and the symbol
# table (fixed part ending in the name's length, then the name).
from repro.program.asm import assemble
from repro.program.image import (
    _HEADER,
    _HINT_FIXED,
    _JUMP_TABLE,
    _SYMBOL_FIXED,
    ExecutableImage,
)

#: Byte offset of the entry point in the header.
_ENTRY_POINT_AT = 24

#: A program whose load faults (unaligned address).
FAULTING = """
.routine main
    li  a0, 3
    ldq t0, 0(a0)
    halt
"""


def hostile_images(blob: bytes) -> Dict[str, bytes]:
    """Malformed variants of the valid image ``blob``, by name.

    The three ``symbol-*`` variants rewrite the symbol-table entry of a
    routine that is not the entry point: its name is made invalid
    UTF-8, its size zero, its address ``2 (mod 4)`` (shrunk by a word
    so that it still overlaps nothing).  ``to_bytes`` would refuse to
    write any of them, hence the byte surgery.  ``entry-inside-routine``
    moves the entry point one word into its routine, and
    ``hint-without-targets`` appends a call-target hint that lists no
    routine.  Only when the image has a jump table,
    ``table-entry-unaligned`` moves the first jump-table entry two bytes
    into its target instruction (inside the routine, off every
    instruction boundary) and ``table-count-zero`` gives the first
    jump-table record no entries.
    """
    image = ExecutableImage.from_bytes(blob)
    text_at = _HEADER.size
    symbols_at = text_at + len(image.text) + len(image.data)
    tables_at = symbols_at + sum(
        _SYMBOL_FIXED.size + len(symbol.name.encode("utf-8"))
        for symbol in image.symbols
    )
    offset = symbols_at
    for symbol in image.symbols:
        name_at = offset + _SYMBOL_FIXED.size
        if symbol.address != image.entry_point and symbol.size >= 8:
            break
        offset = name_at + len(symbol.name.encode("utf-8"))
    else:
        raise ValueError("no routine to corrupt besides the entry point")

    def patched(at: int, replacement: bytes) -> bytes:
        return blob[:at] + replacement + blob[at + len(replacement):]

    def resized(address: int, size: int) -> bytes:
        return patched(
            offset, _SYMBOL_FIXED.pack(
                address, size, symbol.exported, len(symbol.name.encode("utf-8"))
            )
        )

    hostile = {
        "symbol-name-not-utf8": patched(name_at, b"\xff"),
        "symbol-zero-size": resized(symbol.address, 0),
        "symbol-unaligned": resized(symbol.address + 2, symbol.size - 4),
        "undecodable-word": patched(text_at + 4, struct.pack("<I", 1 << 26)),
        "bad-magic": patched(0, b"NOPE"),
        "truncated-header": blob[:10],
        "truncated-text": blob[: text_at + 8],
        "truncated-symbols": blob[: name_at],
        "truncated-tail": blob[:-4],
        "entry-inside-routine": patched(
            _ENTRY_POINT_AT, struct.pack("<Q", image.entry_point + 4)
        ),
        # One more hint record, at the end, with no targets.
        "hint-without-targets": patched(
            _HEADER.size - 4, struct.pack("<I", len(image.call_target_hints) + 1)
        ) + _HINT_FIXED.pack(image.text_base, 0),
    }
    for table in image.jump_tables[:1]:
        at = text_at + len(image.text) + table.table_address - image.data_base
        (target,) = struct.unpack_from("<Q", blob, at)
        hostile["table-entry-unaligned"] = patched(
            at, struct.pack("<Q", target + 2)
        )
        hostile["table-count-zero"] = patched(
            tables_at + _JUMP_TABLE.size - 4, struct.pack("<I", 0)
        )
    return hostile


def fail(message: str) -> None:
    print(f"hostile-image smoke FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def check(name: str, argv: List[str], expected: int) -> None:
    """Run the CLI on ``argv``; fail unless it exits ``expected`` with a
    one-line message on stderr."""
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True,
    )
    lines = done.stderr.strip().splitlines()
    if done.returncode != expected:
        fail(f"{name}: exit {done.returncode}, not {expected}: "
             f"{lines[-1] if lines else '(no stderr)'}")
    if "Traceback" in done.stderr or len(lines) != 1:
        fail(f"{name}: stderr is not a one-line message: "
             f"{done.stderr.strip()!r}")
    print(f"{name}: exit {expected}: {lines[0].split(': ', 1)[-1]}")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--benchmark", default="compress",
        help="Table-2 shape to generate (default: compress)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.2,
        help="shape scale factor (default: 0.2)",
    )
    args = parser.parse_args(argv)
    cli = [sys.executable, "-m", "repro.cli"]

    with tempfile.TemporaryDirectory(prefix="hostile-image-smoke-") as tmp:
        base = os.path.join(tmp, "base.sax")
        sidecar = os.path.join(tmp, "base.sum")
        subprocess.run(
            cli + ["generate", args.benchmark, "--scale", str(args.scale),
                   "-o", base],
            check=True, capture_output=True,
        )
        subprocess.run(
            cli + ["analyze", base, "--save-summaries", sidecar],
            check=True, capture_output=True,
        )
        with open(base, "rb") as handle:
            blob = handle.read()
        variants = hostile_images(blob)
        if "table-entry-unaligned" not in variants:
            fail(f"{args.benchmark} x{args.scale} has no jump table to corrupt")
        for name, hostile in variants.items():
            path = os.path.join(tmp, f"{name}.sax")
            with open(path, "wb") as handle:
                handle.write(hostile)
            check(name, ["analyze", path], 3)

        check("summaries-of-an-image", ["summaries", base], 3)
        with open(sidecar, "rb") as handle:
            summaries = handle.read()
        truncated = os.path.join(tmp, "truncated.sum")
        with open(truncated, "wb") as handle:
            handle.write(summaries[: len(summaries) // 2])
        check("summaries-truncated", ["summaries", truncated], 3)

        faulting = os.path.join(tmp, "faulting.sax")
        with open(faulting, "wb") as handle:
            handle.write(assemble(FAULTING).to_bytes())
        check("run-faulting", ["run", faulting], 4)
        optimized = os.path.join(tmp, "faulting.opt.sax")
        check(
            "optimize-verify-faulting",
            ["optimize", faulting, "-o", optimized, "--verify"],
            4,
        )

        missing = os.path.join(tmp, "missing")
        check("dot-unwritable",
              ["analyze", base, "--dot", os.path.join(missing, "psg.dot")], 5)
        check("generate-unwritable",
              ["generate", args.benchmark, "--scale", str(args.scale),
               "-o", os.path.join(missing, "a.sax")], 5)
        check("optimize-unwritable",
              ["optimize", base, "-o", os.path.join(missing, "o.sax")], 5)
        check("unknown-routine", ["analyze", base, "-r", "nosuch"], 2)
        check("unknown-routine-incremental",
              ["analyze", base, "--incremental", "-r", "nosuch"], 2)
        check("unknown-dot-routine",
              ["analyze", base, "--dot", os.path.join(tmp, "psg.dot"),
               "--dot-routine", "nosuch"], 2)
        check("unknown-benchmark",
              ["generate", "nosuch", "-o", os.path.join(tmp, "a.sax")], 2)
        check("port-too-large", ["serve", "--port", "99999"], 2)
        check("port-negative", ["serve", "--port", "-1"], 2)
        check("top-negative", ["report", base, "--top", "-1"], 2)
        for scale in ("0", "-1", "nan", "inf", "2", "1e300"):
            check(f"scale-{scale}",
                  ["generate", args.benchmark, "--scale", scale,
                   "-o", os.path.join(tmp, "a.sax")], 2)
        for steps in ("-1", "0"):
            check(f"max-steps-{steps}", ["run", base, "--max-steps", steps], 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
