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
  plus ``chunk_s`` and ``samples_per_s`` of a whole ``run_chunk``, and
  ``numpy_kernel_s``, the numpy kernel on the same operands.  These are
  informational: they depend on the machine.

``kernel_s`` times whatever ``counter_counts`` runs: the C counter
kernel when the library (:mod:`repro.netlist._accel`) loads with its
tuned (AVX2) build, the numpy kernel otherwise.  The report's top-level
``accel`` flag says which, so ``repro bench compare`` warns when two
reports differ in it.

The ``mc_checkpoint_k8`` row times a whole checkpointed job (uniform
64/8, scsa1 only, 48 chunks of 2^16) through ``run_checkpointed`` into
fresh directories, serially and on two steal-workers (best of N each):

* ``pooled_over_serial`` — serial wall time over pooled wall time, the
  gated ratio (floor 1.0 on hosts with at least two CPUs);
* ``wall_s`` and ``samples_per_s`` of the pooled run, ``serial_s``, and
  ``publish_s`` — the mean per-chunk checkpoint publish time.  These are
  informational.

Rows are keyed by ``(architecture, width)`` like the other ``BENCH_*``
reports, so ``repro bench compare --metrics swar_speedup
pooled_over_serial`` gates them.
``python -m benchmarks.test_perf_engine OUT.json`` writes the report
format of the checked-in ``BENCH_engine.json``.
"""

import json
import os
import sys
import tempfile
import time

import numpy as np
import pytest

from repro.analysis.report import format_table
from repro.engine import kernels
from repro.engine.jobs import (
    DEFAULT_CHUNK,
    ChunkSpec,
    ErrorCounts,
    MonteCarloErrorJob,
    chunk_seed_sequence,
    reference_counter_flags,
)
from repro.engine.kernels import ERROR_COUNTERS, counter_counts
from repro.engine.runner import run_job
from repro.engine.steal import run_checkpointed

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
#: point: the numpy kernel measured 9-43x on a 2-vCPU x86 VM, the C
#: counter kernel 56-131x.
SPEEDUP_FLOOR = 3.0
ACCEL_SPEEDUP_FLOOR = 10.0

#: The checkpointed job: 48 chunks of 2^16 samples, timed best of this many.
CHECKPOINT_CHUNKS = 48
CHECKPOINT_REPEAT = 7
CHECKPOINT_WORKERS = 2

#: Two steal-workers must not be slower than the serial runner.
POOLED_FLOOR = 1.0


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
        numpy_kernel = kernels._numpy_counter_counts(a, b, width, window)
        assert kernel == profile == numpy_kernel, (name, kernel, profile, numpy_kernel)
        chunk = job.run_chunk(spec)

        kernel_s = _best(lambda: counter_counts(a, b, width, window), repeat)
        numpy_kernel_s = _best(
            lambda: kernels._numpy_counter_counts(a, b, width, window), repeat
        )
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
                "numpy_kernel_s": numpy_kernel_s,
                "operands_s": _best(operands, repeat),
                "merge_s": _best(lambda: ErrorCounts().merge(chunk), repeat),
                "chunk_s": chunk_s,
                "samples_per_s": DEFAULT_CHUNK / chunk_s,
            }
        )
    return rows


def measure_checkpoint(repeat=CHECKPOINT_REPEAT):
    """The ``mc_checkpoint_k8`` row; asserts every run matches ``run_job``."""
    job = MonteCarloErrorJob(
        width=64, window=8, samples=CHECKPOINT_CHUNKS * DEFAULT_CHUNK,
        counters=("scsa1",), seed=SEED,
    )
    expected = run_job(job).aggregate.to_payload()
    with tempfile.TemporaryDirectory() as root:

        def timed(workers):
            directory = tempfile.mkdtemp(dir=root)  # a fresh job directory
            start = time.perf_counter()
            result = run_checkpointed(job, directory, workers)
            elapsed = time.perf_counter() - start
            assert result.aggregate.to_payload() == expected
            return elapsed, result.stats["checkpoint_s"]

        timed(0)  # warm-up
        timed(CHECKPOINT_WORKERS)
        serial, pooled = [], []
        for _ in range(repeat):  # interleaved, so host drift hits both alike
            serial.append(timed(0))
            pooled.append(timed(CHECKPOINT_WORKERS))
    serial_s = min(elapsed for elapsed, _ in serial)
    wall_s, publish = min(pooled, key=lambda run: run[0])
    return {
        "architecture": "mc_checkpoint_k8",
        "width": 64,
        "window": 8,
        "distribution": "uniform",
        "counters": ["scsa1"],
        "chunks": CHECKPOINT_CHUNKS,
        "samples": job.samples,
        "workers": CHECKPOINT_WORKERS,
        "pooled_over_serial": serial_s / wall_s,
        "wall_s": wall_s,
        "serial_s": serial_s,
        "samples_per_s": job.samples / wall_s,
        "publish_s": publish.mean,
    }


def report(rows, repeat):
    """The ``BENCH_engine.json`` document."""
    return {
        "accel": kernels._counter_lib() is not None,
        "command": "engine-bench",
        "ok": True,
        "seed": SEED,
        "repeat": repeat,
        "rows": rows,
    }


def test_perf_engine_swar_vs_profile(benchmark):
    rows = run_once(benchmark, measure)
    accel = kernels._counter_lib() is not None
    floor = ACCEL_SPEEDUP_FLOOR if accel else SPEEDUP_FLOOR
    print()
    print(
        format_table(
            ["point", "profile", "kernel", "numpy kernel", "speedup", "operands", "chunk",
             "samples/s"],
            [
                (
                    f"{r['architecture']} n={r['width']} k={r['window']}",
                    f"{r['profile_s'] * 1e3:.1f} ms",
                    f"{r['kernel_s'] * 1e3:.2f} ms",
                    f"{r['numpy_kernel_s'] * 1e3:.2f} ms",
                    f"{r['swar_speedup']:.1f}x",
                    f"{r['operands_s'] * 1e3:.2f} ms",
                    f"{r['chunk_s'] * 1e3:.2f} ms",
                    f"{r['samples_per_s'] / 1e6:.1f} M",
                )
                for r in rows
            ],
            title=f"one {DEFAULT_CHUNK}-sample chunk, default counters (best of {REPEAT}, "
            f"C counter kernel {'on' if accel else 'off'})",
        )
    )
    for r in rows:
        assert r["swar_speedup"] >= floor, (
            f"{r['architecture']}: SWAR kernel only {r['swar_speedup']:.1f}x "
            f"faster than the profile path (floor {floor:.0f}x)"
        )


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="pooled floor needs two CPUs")
def test_perf_engine_checkpointed_pooled_vs_serial(benchmark):
    row = run_once(benchmark, measure_checkpoint)
    print()
    print(
        format_table(
            ["job", "serial", "pooled", "pooled/serial", "publish", "samples/s"],
            [(
                f"{row['chunks']} x {DEFAULT_CHUNK} scsa1 n=64 k=8",
                f"{row['serial_s'] * 1e3:.1f} ms",
                f"{row['wall_s'] * 1e3:.1f} ms",
                f"{row['pooled_over_serial']:.2f}x",
                f"{row['publish_s'] * 1e3:.2f} ms",
                f"{row['samples_per_s'] / 1e6:.1f} M",
            )],
            title=(f"checkpointed job, {CHECKPOINT_WORKERS} steal-workers vs serial "
                   f"(best of {CHECKPOINT_REPEAT})"),
        )
    )
    assert row["pooled_over_serial"] >= POOLED_FLOOR, (
        f"{CHECKPOINT_WORKERS} steal-workers ran the checkpointed job at "
        f"{row['pooled_over_serial']:.2f}x the serial speed (floor {POOLED_FLOOR:.1f}x)"
    )


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python -m benchmarks.test_perf_engine OUT.json")
    rows = measure() + [measure_checkpoint()]
    with open(sys.argv[1], "w") as handle:
        json.dump(report(rows, REPEAT), handle, indent=2, sort_keys=True)
        handle.write("\n")
