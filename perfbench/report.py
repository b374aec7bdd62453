"""Shared helpers: percentiles, peak memory, the run stamp and the report.

Every workload hands :class:`Summary` to the runner; the runner prints the
workload's own metrics (with unit and sample count) and maps the summary
onto the end-to-end metrics every workload reports.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 1] of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(count: int) -> float:
    """p99, or the highest quantile with ``TAIL_BEYOND`` samples beyond it.

    Below 1000 samples p99 has fewer than ten samples beyond it, so the
    quantile drops to the highest one that has ten, rounded down to a
    tenth of a percent (p98.5, p83.3, ...).  With ``TAIL_BEYOND`` samples
    or fewer no quantile qualifies and the maximum (1.0) is used.
    """
    if count <= TAIL_BEYOND:
        return 1.0
    return min(0.99, math.floor(1000 * (count - TAIL_BEYOND) / count) / 1000)


def tail_label(q: float) -> str:
    """``p99`` / ``p83.3`` / ``max`` for a quantile from :func:`tail_quantile`."""
    return "max" if q >= 1.0 else f"p{q * 100:g}"


def peak_rss_mib() -> float:
    """Peak resident set of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def stamp(accel_loaded: bool) -> str:
    """One line naming what the figures depend on besides the code."""
    import numpy

    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} "
        f"accel={'loaded' if accel_loaded else 'FALLBACK'} "
        f"platform={platform.machine()}"
    )


@dataclass
class Metric:
    """One named figure with its unit and the number of samples behind it."""

    name: str
    value: float
    unit: str
    count: int
    note: str = ""


@dataclass
class Summary:
    """What a workload measured in its timed phase.

    ``work`` / ``work_s`` give the throughput (``work_unit`` per second);
    ``op_ms`` holds one latency per operation, ``op_label`` names the
    operation and ``op_quantile`` the quantile of them reported as
    ``op_ms``; ``extra`` are the workload's own named metrics.
    """

    work: float
    work_s: float
    work_unit: str
    op_ms: List[float]
    op_label: str
    attempted: int
    failed: int
    extra: List[Metric] = field(default_factory=list)
    op_quantile: float = 0.5


def end_to_end(summary: Summary, setup_samples: Sequence[float]) -> List[Metric]:
    """The end-to-end metrics every workload reports, from its summary."""
    ops = summary.op_ms
    q = summary.op_quantile
    op = median(ops) if q == 0.5 else percentile(ops, q)
    return [
        Metric("setup_s", median(setup_samples), "s", len(setup_samples),
               "median of set-ups " + " ".join(f"{s:.3f}" for s in setup_samples)),
        Metric("work_per_s", summary.work / summary.work_s, "1/s",
               int(summary.work), f"{summary.work_unit} per second"),
        Metric("op_ms", op, "ms", len(ops),
               f"{'median' if q == 0.5 else f'p{q * 100:g}'} of {summary.op_label}"),
        Metric("peak_rss_mib", peak_rss_mib(), "MiB", 1,
               "max over this process and reaped children"),
    ]


def op_tail(summary: Summary) -> Metric:
    """The operation latency tail: printed with every run, but not one of
    the ``BENCHMARK.json`` metrics (its run-to-run spread on a shared
    2-vCPU machine exceeded any usable bound)."""
    ops = summary.op_ms
    q = tail_quantile(len(ops))
    return Metric("op_ms_tail", percentile(ops, q), "ms", len(ops),
                  f"{tail_label(q)} of {summary.op_label}")


def print_metrics(title: str, metrics: Sequence[Metric]) -> None:
    """A fixed-width table: name, value, unit, sample count, note."""
    print(f"== {title}")
    for m in metrics:
        note = f"  {m.note}" if m.note else ""
        print(f"  {m.name:<28} {m.value:>16.6g} {m.unit:<10} n={m.count:<8}{note}")


def latency_metrics(prefix: str, values_ms: Sequence[float], what: str) -> List[Metric]:
    """``<prefix>_p50`` and ``<prefix>_p99`` (the note names the quantile
    actually used when there are too few samples for p99)."""
    q = tail_quantile(len(values_ms))
    return [
        Metric(f"{prefix}_p50", median(values_ms), "ms", len(values_ms), what),
        Metric(f"{prefix}_p99", percentile(values_ms, q), "ms",
               len(values_ms), f"{tail_label(q)} of {what}"),
    ]


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> dict:
    """The machine-readable last line of a run."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
