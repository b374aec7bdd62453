"""Performance: the SWAR Monte Carlo kernel vs the window-profile path.

``MonteCarloErrorJob.run_chunk`` computes every error counter with one
pass of :func:`repro.engine.kernels.counter_counts`.  The window-profile
reference (:func:`repro.engine.jobs.reference_counter_flags`) computes
the same per-sample flags with two full ``window_profile`` builds.  For
each thesis point this benchmark times both on the same operands (best
of N, one default-size chunk, the default four counters) and reports:

* ``swar_speedup`` — profile-path time over kernel time, the
  machine-independent ratio the CI gate compares;
* per-stage seconds of one chunk — ``operands_s`` (drawing the operand
  pairs), ``kernel_s``, ``merge_s`` (folding the chunk aggregate) —
  plus ``chunk_s`` and ``samples_per_s`` of a whole ``run_chunk``.
  These are informational: they depend on the machine.

Rows are keyed by ``(architecture, width)`` like the other ``BENCH_*``
reports, so ``repro bench compare --metrics swar_speedup`` gates them.
``python -m benchmarks.test_perf_engine OUT.json`` writes the report
format of the checked-in ``BENCH_engine.json``.
"""

import json
import sys
import time

import numpy as np

from repro.analysis.report import format_table
from repro.engine.jobs import (
    DEFAULT_CHUNK,
    ChunkSpec,
    ErrorCounts,
    MonteCarloErrorJob,
    chunk_seed_sequence,
    reference_counter_flags,
)
from repro.engine.kernels import ERROR_COUNTERS, counter_counts

from benchmarks.conftest import run_once

SEED = 2012

#: Best-of count for every timing: the kernel's 1 ms chunks need several
#: tries to find a quiet moment on a shared host.
REPEAT = 9

#: The thesis points: (row name, width, window, distribution).
POINTS = (
    ("mc_uniform_k8", 64, 8, "uniform"),
    ("mc_uniform_k12", 256, 12, "uniform"),
    ("mc_gaussian_k8", 64, 8, "gaussian"),
)

#: The kernel must beat the profile path by at least this much at every
#: point (measured 9-34x on a 2-vCPU x86 VM).
SPEEDUP_FLOOR = 3.0


def _best(fn, repeat):
    fn()  # warm-up: first-touch allocations and mask caches
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _profile_counts(a, b, width, window):
    flags = reference_counter_flags(a, b, width, window, ERROR_COUNTERS)
    return {name: int(value.sum()) for name, value in flags.items()}


def measure(repeat=REPEAT):
    """One row per thesis point; asserts kernel and profile counts agree."""
    rows = []
    for name, width, window, distribution in POINTS:
        job = MonteCarloErrorJob(
            width=width, window=window, samples=DEFAULT_CHUNK,
            distribution=distribution, seed=SEED,
        )
        spec = ChunkSpec(index=0, size=DEFAULT_CHUNK)

        def operands():
            rng = np.random.default_rng(chunk_seed_sequence(SEED, 0))
            return job._operands(rng, DEFAULT_CHUNK)

        a, b = operands()
        kernel = counter_counts(a, b, width, window)
        profile = _profile_counts(a, b, width, window)
        assert kernel == profile, (name, kernel, profile)
        chunk = job.run_chunk(spec)

        kernel_s = _best(lambda: counter_counts(a, b, width, window), repeat)
        profile_s = _best(lambda: _profile_counts(a, b, width, window), repeat)
        chunk_s = _best(lambda: job.run_chunk(spec), repeat)
        rows.append(
            {
                "architecture": name,
                "width": width,
                "window": window,
                "distribution": distribution,
                "samples": DEFAULT_CHUNK,
                "swar_speedup": profile_s / kernel_s,
                "profile_s": profile_s,
                "kernel_s": kernel_s,
                "operands_s": _best(operands, repeat),
                "merge_s": _best(lambda: ErrorCounts().merge(chunk), repeat),
                "chunk_s": chunk_s,
                "samples_per_s": DEFAULT_CHUNK / chunk_s,
            }
        )
    return rows


def report(rows, repeat):
    """The ``BENCH_engine.json`` document."""
    return {
        "command": "engine-bench",
        "ok": True,
        "seed": SEED,
        "repeat": repeat,
        "rows": rows,
    }


def test_perf_engine_swar_vs_profile(benchmark):
    rows = run_once(benchmark, measure)
    print()
    print(
        format_table(
            ["point", "profile", "kernel", "speedup", "operands", "chunk", "samples/s"],
            [
                (
                    f"{r['architecture']} n={r['width']} k={r['window']}",
                    f"{r['profile_s'] * 1e3:.1f} ms",
                    f"{r['kernel_s'] * 1e3:.2f} ms",
                    f"{r['swar_speedup']:.1f}x",
                    f"{r['operands_s'] * 1e3:.2f} ms",
                    f"{r['chunk_s'] * 1e3:.2f} ms",
                    f"{r['samples_per_s'] / 1e6:.1f} M",
                )
                for r in rows
            ],
            title=f"one {DEFAULT_CHUNK}-sample chunk, default counters (best of {REPEAT})",
        )
    )
    for r in rows:
        assert r["swar_speedup"] >= SPEEDUP_FLOOR, (
            f"{r['architecture']}: SWAR kernel only {r['swar_speedup']:.1f}x "
            f"faster than the profile path (floor {SPEEDUP_FLOOR:.0f}x)"
        )


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python -m benchmarks.test_perf_engine OUT.json")
    with open(sys.argv[1], "w") as handle:
        json.dump(report(measure(), REPEAT), handle, indent=2, sort_keys=True)
        handle.write("\n")
