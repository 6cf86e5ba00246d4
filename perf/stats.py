"""How samples become numbers (shared by the children and ``run.py``;
imports nothing from the program)."""

from __future__ import annotations

import statistics

from calibrate import KERNEL_REF_S


def calibrated_seconds(pairs) -> float:
    """Calibrated seconds of ``(cpu_s, kernel_s)`` pairs of identical
    work: the median ratio to the kernel, in reference-host seconds."""
    return KERNEL_REF_S * statistics.median(
        cpu / kernel_s for cpu, kernel_s in pairs
    )


def position_seconds(samples) -> float:
    """One script position's time from its ``(cpu_s, wall_s,
    kernel_s)`` samples, one per round."""
    return calibrated_seconds((cpu, kernel_s) for cpu, _wall, kernel_s in samples)


def metric_seconds(by_position) -> float:
    """An end-to-end time: the mean of its positions' times."""
    return statistics.fmean(
        position_seconds(samples) for samples in by_position.values()
    )


def best_cpu_seconds(by_position) -> float:
    """The same metric as plain best-of-R CPU seconds, uncalibrated
    (kept in every result file for the record)."""
    return statistics.fmean(
        min(cpu for cpu, _wall, _kernel in samples)
        for samples in by_position.values()
    )


def percentile(sorted_values, share: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(share * len(sorted_values)))]


def gauges(samples_by_key: dict) -> dict:
    """The benchmark's own gauges over ``{(metric, position): samples}``
    (``run.py`` computes the same over the pooled children)."""
    op_walls = sorted(
        wall for (metric, _position), samples in samples_by_key.items()
        if metric == "op_s" for _cpu, wall, _kernel in samples
    )
    every = [s for samples in samples_by_key.values() for s in samples]
    out = {"perf.samples": len(op_walls)}
    if op_walls:
        out["perf.op_p50_s"] = statistics.median(op_walls)
        out["perf.op_p90_s"] = percentile(op_walls, 0.9)
    if every:
        out["perf.wall_over_cpu"] = (
            sum(wall for _cpu, wall, _kernel in every)
            / sum(cpu for cpu, _wall, _kernel in every)
        )
        out["perf.host_speed"] = KERNEL_REF_S / statistics.median(
            kernel_s for _cpu, _wall, kernel_s in every
        )
    return out
