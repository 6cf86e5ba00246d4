#!/usr/bin/env python
"""End-to-end smoke test: hostile images end in exit 3, not a traceback.

Generates a Table-2 image, derives from its bytes the malformed
variants of :func:`hostile_images`, and runs ``spike-analyze analyze``
on each as a real subprocess.  Fails unless every run exits 3
(``EXIT_BAD_IMAGE``) with exactly one line on stderr and no
``Traceback``.

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
# table (fixed part, u16 name length, name).
from repro.program.image import _HEADER, _SYMBOL_FIXED, _U16, ExecutableImage


def hostile_images(blob: bytes) -> Dict[str, bytes]:
    """Malformed variants of the valid image ``blob``, by name.

    The three ``symbol-*`` variants rewrite the symbol-table entry of a
    routine that is not the entry point: its name is made invalid
    UTF-8, its size zero, its address ``2 (mod 4)`` (shrunk by a word
    so that it still overlaps nothing).  ``to_bytes`` would refuse to
    write any of them, hence the byte surgery.
    """
    image = ExecutableImage.from_bytes(blob)
    text_at = _HEADER.size
    offset = text_at + len(image.text) + len(image.data)
    for symbol in image.symbols:
        name_at = offset + _SYMBOL_FIXED.size + _U16.size
        if symbol.address != image.entry_point and symbol.size >= 8:
            break
        offset = name_at + len(symbol.name.encode("utf-8"))
    else:
        raise ValueError("no routine to corrupt besides the entry point")

    def patched(at: int, replacement: bytes) -> bytes:
        return blob[:at] + replacement + blob[at + len(replacement):]

    def resized(address: int, size: int) -> bytes:
        return patched(
            offset, _SYMBOL_FIXED.pack(address, size, symbol.exported)
        )

    return {
        "symbol-name-not-utf8": patched(name_at, b"\xff"),
        "symbol-zero-size": resized(symbol.address, 0),
        "symbol-unaligned": resized(symbol.address + 2, symbol.size - 4),
        "undecodable-word": patched(text_at + 4, struct.pack("<I", 1 << 26)),
        "bad-magic": patched(0, b"NOPE"),
        "truncated-header": blob[:10],
        "truncated-text": blob[: text_at + 8],
        "truncated-symbols": blob[: name_at],
        "truncated-tail": blob[:-4],
    }


def fail(message: str) -> None:
    print(f"hostile-image smoke FAILED: {message}", file=sys.stderr)
    sys.exit(1)


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
        subprocess.run(
            cli + ["generate", args.benchmark, "--scale", str(args.scale),
                   "-o", base],
            check=True, capture_output=True,
        )
        with open(base, "rb") as handle:
            blob = handle.read()
        for name, hostile in hostile_images(blob).items():
            path = os.path.join(tmp, f"{name}.sax")
            with open(path, "wb") as handle:
                handle.write(hostile)
            done = subprocess.run(
                cli + ["analyze", path], capture_output=True, text=True
            )
            lines = done.stderr.strip().splitlines()
            if done.returncode != 3:
                fail(f"{name}: exit {done.returncode}, not 3: "
                     f"{lines[-1] if lines else '(no stderr)'}")
            if "Traceback" in done.stderr or len(lines) != 1:
                fail(f"{name}: stderr is not a one-line message: "
                     f"{done.stderr.strip()!r}")
            print(f"{name}: exit 3: {lines[0].split(': ', 1)[-1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
