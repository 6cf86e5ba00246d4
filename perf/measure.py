"""The measuring child: replay one workload's script for R rounds.

``run.py`` starts this file in a fresh interpreter (one per phase, so
``peak_rss_mb`` is interpreter + ``repro`` + one round's working set,
never the input generator's) with ``PYTHONHASHSEED=0``, every
``REPRO_*`` variable scrubbed and, where the host allows it, address
randomization off.

Quiet timed regions.  ``gc.freeze()`` after the imports; around every
timed op ``gc.collect(); gc.disable()`` before and ``gc.enable()``
after; the clock is ``time.process_time()`` (user + system CPU
seconds of this process), so time spent descheduled behind a noisy
neighbour is not charged; a calibration kernel runs just before and
just after every op (:mod:`calibrate`; back-to-back ops share the run
between them) and the sample keeps the op's CPU seconds *and* the
kernel's, so what a neighbour slows without descheduling cancels in
their ratio; outputs are verified after the
clock stops; a round's state is dropped and collected before the next
round; the first round is an untimed (and, past ``WARM_UP_S``, cut
short) warm-up.  Wall-clock medians and p90s are kept beside the CPU
times as un-gated ledger lines.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import itertools
import resource
import sys
import time
import traceback
from collections import defaultdict

import provenance
import workloads as W
from calibrate import kernel
from repro.interproc.persist import crc64
from trace import NULL_SPAN


_DIRECTORIES = itertools.count()

#: CPU seconds of script the untimed warm-up round replays: enough to
#: finish lazy initialization and fill the allocator's pools; a whole
#: edit-replay round would cost a measured round's worth of budget.
WARM_UP_S = 1.5
#: A kernel run this recent (CPU seconds) still tells how fast the
#: host is running: the next op uses it as its leading flank.
FLANK_S = 0.25


class RoundEnded(Exception):
    """The current round stops here."""


class OpFailed(RoundEnded):
    """A timed op raised; the rest of its round cannot run."""


class Inputs:
    """One workload's generated inputs, read fully before any timing."""

    def __init__(self, directory: str) -> None:
        with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as handle:
            self.manifest = json.load(handle)
        self.workload = self.manifest["workload"]
        self.seed = self.manifest["seed"]
        self.script = self.manifest["script"]
        self.expected = self.manifest["expected"]
        self._blobs = {}
        for key in self.manifest["images"]:
            with open(os.path.join(directory, f"{key}.img"), "rb") as handle:
                self._blobs[key] = handle.read()

    def blob(self, key: str) -> bytes:
        return self._blobs[key]


class Harness:
    """What a script sees: timed regions, output checks, spans, notes.

    One harness serves one kind of round (timed, traced or counted);
    ``samples[(metric, position)]`` collects one ``(cpu_s, wall_s,
    kernel_s)`` per recorded round: the op's CPU and wall seconds and
    the mean CPU seconds of the two kernel runs around it.
    """

    def __init__(self, inputs: Inputs, scratch: str, tracer=None) -> None:
        self.inputs = inputs
        self.scratch = scratch
        self.tracer = tracer
        self.tracing = tracer is not None
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        #: Off during the warm-up round: nothing is counted or kept.
        self.recording = True
        #: Off in the count pass: ops run bare under the profiler.
        self.quiet_regions = True
        self.round = 0
        #: ``{op_id: {name: sum}}`` fed by ``note()`` (traced rounds).
        self.notes = defaultdict(lambda: defaultdict(float))
        #: ``{op_id: kernel_s}`` of every quiet region (traced rounds).
        self.kernel_of = {}
        self.op_id = None
        self._started = time.process_time()
        self._metric_of = {}
        #: ``(process_time at its end, seconds)`` of the last kernel run.
        self._flank = (-FLANK_S, 0.0)

    # -- timed regions -------------------------------------------------

    def quiet(self, position: str, fn):
        """Run ``fn`` in a quiet region between two kernel runs;
        ``(result, (cpu_s, wall_s, kernel_s))``."""
        self.op_id = f"{self.round}:{position}"
        if self.tracer is not None:
            self.tracer.op_id = self.op_id
        if not self.quiet_regions:
            return fn(), (0.0, 0.0, 0.0)
        gc.collect()
        gc.disable()
        try:
            # Back-to-back ops share the kernel run between them.
            stamp, before = self._flank
            if time.process_time() - stamp > FLANK_S:
                before = kernel()
            wall = time.perf_counter()
            cpu = time.process_time()
            result = fn()
            cpu = time.process_time() - cpu
            wall = time.perf_counter() - wall
            after = kernel()
            self._flank = (time.process_time(), after)
            kernel_s = (before + after) / 2
        finally:
            gc.enable()
        if self.tracing:
            self.kernel_of[self.op_id] = kernel_s
        return result, (cpu, wall, kernel_s)

    def timed(self, metric: str, position: str, fn):
        """One script operation: a sample for ``metric`` at
        ``position``, unless it fails."""
        if self.recording:
            self.attempted += 1
        elif time.process_time() - self._started > WARM_UP_S:
            raise RoundEnded
        try:
            result, sample = self.quiet(position, fn)
        except Exception:
            if self.recording:
                self.failed += 1
                self.failures.append(
                    f"{position}: {traceback.format_exc(limit=6)}"
                )
            raise OpFailed(position) from None
        if self.recording:
            self.samples[(metric, position)].append(sample)
            self._metric_of[position] = metric
        return result

    def check(self, position: str, summary_bytes: bytes) -> None:
        """Compare an op's output with its expected digest (the clock
        has stopped); a wrong answer is a failed op and contributes no
        timing sample."""
        actual = format(crc64(summary_bytes), "016x")
        expected = self.inputs.expected[position]
        if actual == expected or not self.recording:
            return
        self.failed += 1
        self.failures.append(
            f"{position}: summaries digest {actual}, expected {expected}"
        )
        self.samples[(self._metric_of[position], position)].pop()

    # -- per-layer ledger hooks ----------------------------------------

    def span(self, name: str):
        return self.tracer.span(name) if self.tracing else NULL_SPAN

    def note(self, name: str, value: float) -> None:
        """Add ``value`` to the current op's ``name`` (traced rounds)."""
        if self.tracing:
            self.notes[self.op_id][name] += value

    def note_incremental(self, analysis) -> None:
        """Attach the stage clocks and work counts an incremental
        result already exposes."""
        if not self.tracing:
            return
        metrics = analysis.metrics
        self._note_stage_clocks(metrics)
        self.note("interproc.incremental.dirty_routines", len(metrics.dirty_routines))
        self.note("interproc.incremental.phase1_solved", metrics.phase1_solved)
        self.note("interproc.incremental.phase2_solved", metrics.phase2_solved)
        self.note(
            "interproc.incremental.reused",
            metrics.phase2_reused + metrics.phase2_store_hits,
        )
        self.note("interproc.incremental.routines", metrics.routines_total)
        self._note_front_end(analysis.cfgs, analysis.condensation)

    def note_query(self, result) -> None:
        """Attach the stage clocks, cone sizes and work counts a query
        result already exposes."""
        if not self.tracing:
            return
        metrics = result.metrics
        self._note_stage_clocks(metrics)
        if "cfg_build" in metrics.seconds:
            # Only the query that built the session's front end.
            self._note_front_end(result.frontend.cfgs, result.condensation)
        self.note("interproc.demand.phase1_cone_routines", metrics.phase1_cone_routines)
        self.note("interproc.demand.phase2_cone_routines", metrics.phase2_cone_routines)
        self.note("interproc.demand.solved", metrics.phase2_solved)
        self.note("interproc.demand.reused", metrics.phase2_reused)

    def _note_front_end(self, cfgs, condensation) -> None:
        """Sizes of a front end an op just built (a cold incremental
        run exposes no condensation)."""
        self.note("cfg.build.blocks", sum(
            cfg.block_count for cfg in cfgs.values()
        ))
        if condensation is not None:
            self.note("cfg.callgraph.sccs", len(condensation.components))

    def _note_stage_clocks(self, metrics) -> None:
        for stage, seconds in metrics.seconds.items():
            self.note(f"interproc.incremental.stage_{stage}_s", seconds)

    # -- scratch -------------------------------------------------------

    def fresh_dir(self, name: str) -> str:
        """A new empty directory under the scratch root.

        Never a directory emptied and used again: on ext4, creating
        files where files have just been deleted costs five to ten
        times the system time, and erratically (0.02-0.06 s for a
        370-record publish into a new directory, 0.15-0.30 s into a
        re-used one).  ``run.py`` removes the scratch root when the
        run ends.
        """
        path = os.path.join(self.scratch, f"{name}-{os.getpid()}-{next(_DIRECTORIES)}")
        os.makedirs(path)
        return path


def play_round(script, inputs: Inputs, harness: Harness) -> bool:
    """One round from fresh state; False when an op failed."""
    harness.round += 1
    try:
        script(inputs, harness)
        return True
    except RoundEnded as ended:
        return not isinstance(ended, OpFailed)
    finally:
        # Drop the round's state before the next one starts.
        gc.collect()


def warm_up(script, inputs: Inputs, scratch: str) -> None:
    harness = Harness(inputs, scratch)
    harness.recording = False
    play_round(script, inputs, harness)


def out_of_time(deadline, rounds_played: int, floor: int = W.MIN_ROUNDS) -> bool:
    """True once ``floor`` rounds are played and the deadline has passed
    (a slow host plays fewer rounds, never part of a script)."""
    return (
        deadline is not None and rounds_played >= floor
        and time.monotonic() > deadline
    )


def run_timed(inputs: Inputs, scratch: str, rounds: int, deadline=None) -> Harness:
    """The end-to-end measurement: warm-up, then ``rounds`` rounds."""
    script = W.SCRIPTS[inputs.workload]
    warm_up(script, inputs, scratch)
    harness = Harness(inputs, scratch)
    while harness.round < rounds and not out_of_time(deadline, harness.round):
        play_round(script, inputs, harness)
    return harness


def samples_json(harness: Harness) -> dict:
    """``{metric: {position: [[cpu_s, wall_s, kernel_s], ...]}}``."""
    out = defaultdict(dict)
    for (metric, position), values in harness.samples.items():
        out[metric][position] = values
    return dict(out)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (kilobytes on Linux):
    interpreter + ``repro`` + one round's state."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--budget-s", type=float,
                        help="stop after the round in progress (MIN_ROUNDS at least) past this many seconds")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    inputs = Inputs(args.inputs)
    block = provenance.collect(inputs.seed)
    block["scratch_filesystem"] = provenance.filesystem_of(args.scratch)
    deadline = None if args.budget_s is None else time.monotonic() + args.budget_s
    # Everything built so far is permanent: keep it out of every later
    # collection.
    gc.collect()
    gc.freeze()

    result = {"workload": inputs.workload}
    if args.traced:
        import ledger

        harness, result["ledger"] = ledger.run_traced(
            inputs, args.scratch, args.rounds, deadline, args.trace_out
        )
    else:
        harness = run_timed(inputs, args.scratch, args.rounds, deadline)
    result.update(
        rounds=harness.round,
        samples=samples_json(harness),
        ops_attempted=harness.attempted,
        ops_failed=harness.failed,
        failures=harness.failures[:10],
        peak_rss_mb=peak_rss_mb(),
        provenance=provenance.finish(block),
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
