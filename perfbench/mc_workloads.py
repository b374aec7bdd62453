"""The two Monte Carlo workloads: ``mc-thesis`` and ``mc-checkpoint``.

``mc-thesis`` submits the thesis points, with the default four counters,
as one job group to a resident two-worker ``WorkerPool``.
``mc-checkpoint`` runs a cheap scsa1-only job through the checkpointed
work-stealing runner into a fresh directory, then restores it.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from typing import Dict, List, Tuple

from report import Metric, Summary, median
from tracing import measured_pass

#: (distribution, width, window) of the thesis points (Fig. 7.1, Tab. 7.1/7.2).
#: The costliest point goes first, so its chunks are spread over both
#: workers before the cheap ones fill in (otherwise a group's latency
#: depends on which worker happened to draw both n=256 chunks).
THESIS_POINTS = (("uniform", 256, 12), ("uniform", 64, 8), ("gaussian", 64, 8))

#: Jobs re-counted independently after the timed phase.
CHECKED_OPS = 4

_SIX_SIGMA = 6.0

#: Chunk size of the checkpointed job, and the range its chunk count is
#: drawn from.  The runner polls the manifest every 50 ms, so a fixed job
#: would finish on the same side of a poll tick in every job of a run and
#: jump a whole tick between runs; varied sizes average the tick out.
CHECKPOINT_CHUNK = 1 << 16
CHECKPOINT_CHUNKS = (32, 64)


def _recount_scsa1(job) -> int:
    """SCSA 1 errors of ``job`` recounted chunk by chunk with the SWAR kernel.

    Operands are regenerated from the public generators under the engine's
    seeding rule (chunk ``i`` draws from ``SeedSequence(seed, (i,))``), so
    the count does not go through the job's own chunk code.
    """
    import numpy as np

    from repro.engine import chunk_seed_sequence, scsa1_error_count
    from repro.inputs.generators import (
        GAUSSIAN_SIGMA_THESIS,
        gaussian_operands,
        uniform_operands,
    )

    total = 0
    for spec in job.chunk_specs():
        rng = np.random.default_rng(chunk_seed_sequence(job.seed, spec.index))
        if job.distribution == "uniform":
            a = uniform_operands(job.width, spec.size, rng)
            b = uniform_operands(job.width, spec.size, rng)
        else:
            a = gaussian_operands(job.width, spec.size, GAUSSIAN_SIGMA_THESIS, rng=rng)
            b = gaussian_operands(job.width, spec.size, GAUSSIAN_SIGMA_THESIS, rng=rng)
        total += scsa1_error_count(a, b, job.width, job.window, "lsb")
    return total


class McThesis:
    """Default counters at the thesis points on a resident pool."""

    name = "mc-thesis"

    def __init__(self, seed: int, workdir, tiny: bool = False, plant: str = ""):
        self.rng = random.Random(seed)
        self.check_rng = random.Random(seed ^ 0x5EED)
        self.trace_seed = seed
        self.samples = 1 << 12 if tiny else 1 << 17
        self.plant = plant
        self.pool = None
        # One entry per submitted group: (jobs, aggregates, wall_s, busy_s).
        self.ops: List[Tuple[list, list, float, float]] = []
        self.failed_ops = 0

    def _group(self, seed: int, samples: int) -> list:
        from repro.engine import MonteCarloErrorJob

        return [
            MonteCarloErrorJob(width=w, window=k, samples=samples,
                               distribution=d, seed=seed)
            for d, w, k in THESIS_POINTS
        ]

    def setup(self) -> None:
        """Import the engine, start the pool, run the warm-up submit."""
        from repro.engine import WorkerPool

        self.pool = WorkerPool(2)
        self.pool.submit(self._group(seed=1, samples=1 << 12))

    def run(self, seconds: float) -> None:
        """Submit groups back to back until ``seconds`` have passed."""
        from repro.engine import EngineError, EngineMetrics

        deadline = time.perf_counter() + seconds
        attempts = 0
        while attempts == 0 or time.perf_counter() < deadline:
            attempts += 1
            jobs = self._group(self.rng.getrandbits(31), self.samples)
            metrics = EngineMetrics()
            start = time.perf_counter()
            try:
                results = self.pool.submit(jobs, metrics=metrics)
            except EngineError:
                self.failed_ops += 1
                continue
            wall = time.perf_counter() - start
            busy = metrics.timers.get("chunks", 0.0)
            self.ops.append((jobs, [r.aggregate for r in results], wall, busy))

    def check(self) -> List[str]:
        """Recount sampled groups; gate the pooled uniform rates at 6 sigma."""
        from repro.model.error_model import scsa_error_rate_exact

        problems = []
        picked = sorted(self.check_rng.sample(range(len(self.ops)),
                                              min(CHECKED_OPS, len(self.ops))))
        if self.plant == "aggregate" and picked:
            self.ops[picked[0]][1][0].scsa1_errors += 1
        for i in picked:
            jobs, aggregates, _, _ = self.ops[i]
            for job, aggregate in zip(jobs, aggregates):
                recount = _recount_scsa1(job)
                if recount != aggregate.scsa1_errors or aggregate.samples != job.samples:
                    problems.append(
                        f"group {i} {job.distribution} n={job.width} k={job.window}: "
                        f"scsa1_errors {aggregate.scsa1_errors} != recount {recount}"
                    )
        for p, (d, w, k) in enumerate(THESIS_POINTS):
            if d != "uniform":
                continue
            errors = sum(op[1][p].scsa1_errors for op in self.ops)
            samples = sum(op[1][p].samples for op in self.ops)
            exact = scsa_error_rate_exact(w, k)
            sigma = (exact * (1 - exact) / samples) ** 0.5
            z = (errors / samples - exact) / sigma
            print(f"  exact-model gate n={w} k={k}: {errors}/{samples} "
                  f"vs {exact:.6g}, {z:+.2f} sigma")
            if abs(z) > _SIX_SIGMA:
                problems.append(f"n={w} k={k}: scsa1 rate {z:+.2f} sigma from the exact model")
        return problems

    def summary(self) -> Summary:
        samples = sum(sum(a.samples for a in op[1]) for op in self.ops)
        wall = sum(op[2] for op in self.ops)
        op_ms = [op[2] * 1e3 for op in self.ops]
        return Summary(
            work=samples, work_s=wall, work_unit="Monte Carlo samples",
            op_ms=op_ms, op_label="submit of one 3-point job group",
            attempted=len(self.ops) + self.failed_ops, failed=self.failed_ops,
            extra=[Metric("mc_samples_per_s", samples / wall, "1/s", len(self.ops),
                          f"{samples} samples over {len(self.ops)} submits")],
        )

    def layer_counters(self) -> Dict[str, float]:
        """Pool waiting and utilization, from the workers' own chunk timers."""
        wall_workers = sum(op[2] for op in self.ops) * self.pool.workers
        busy = sum(op[3] for op in self.ops)
        return {
            "runner.wait_s": wall_workers - busy,
            "runner.utilization": busy / wall_workers if wall_workers else 0.0,
        }

    def trace_pass(self, tracer) -> Dict[str, float]:
        """Two groups, serially in-process, through ``run_jobs``."""
        from repro.engine import run_jobs

        groups = [self._group(self.trace_seed + offset, self.samples) for offset in range(2)]
        out: Dict[str, float] = {}
        with measured_pass(tracer, out):
            for jobs in groups:
                with tracer.span("runner.run_jobs"):
                    run_jobs(jobs, workers=0)
        return out

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None


class McCheckpoint:
    """An scsa1-only job through ``run_checkpointed``, then a restore."""

    name = "mc-checkpoint"

    def __init__(self, seed: int, workdir, tiny: bool = False, plant: str = ""):
        self.rng = random.Random(seed)
        self.check_rng = random.Random(seed ^ 0x5EED)
        self.trace_seed = seed
        self.workdir = workdir
        self.chunks = (4, 8) if tiny else CHECKPOINT_CHUNKS
        self.plant = plant
        # Per job: (job, payload, digest, compute_s, restore_s, restored_ok,
        #           chunks, chunks_computed, chunk_s, publish_s)
        self.ops: List[tuple] = []
        self.failed_ops = 0

    def _job(self, seed: int, chunks: int):
        from repro.engine import MonteCarloErrorJob

        return MonteCarloErrorJob(width=64, window=8, samples=chunks * CHECKPOINT_CHUNK,
                                  chunk_size=CHECKPOINT_CHUNK, counters=("scsa1",),
                                  seed=seed)

    def _directory(self, tag: str):
        path = self.workdir / f"ckpt-{tag}-{os.getpid()}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def setup(self) -> None:
        """Import the engine and run one small checkpointed job."""
        from repro.engine import run_checkpointed

        path = self._directory("warmup")
        run_checkpointed(self._job(1, 4), path, workers=2)
        shutil.rmtree(path, ignore_errors=True)

    def run(self, seconds: float) -> None:
        """Checkpointed run + restore-only run, into fresh directories."""
        from repro.engine import EngineError, run_checkpointed

        deadline = time.perf_counter() + seconds
        attempts = 0
        while attempts == 0 or time.perf_counter() < deadline:
            attempts += 1
            job = self._job(self.rng.getrandbits(31), self.rng.randint(*self.chunks))
            path = self._directory("run")
            try:
                start = time.perf_counter()
                first = run_checkpointed(job, path, workers=2)
                compute = time.perf_counter() - start
                start = time.perf_counter()
                again = run_checkpointed(job, path, workers=2)
                restore = time.perf_counter() - start
            except EngineError:
                self.failed_ops += 1
                continue
            chunk_s = first.stats["chunk_s"]
            publish_s = first.stats["checkpoint_s"]
            payload = first.aggregate.to_payload()
            restored_ok = (
                not first.partial
                and again.resumed_chunks == again.total_chunks
                and again.aggregate.to_payload() == payload
                and again.state_digest == first.state_digest
            )
            self.ops.append((job, payload, first.state_digest, compute, restore,
                             restored_ok, first.total_chunks, chunk_s.count,
                             chunk_s.total, publish_s.total))
            shutil.rmtree(path, ignore_errors=True)

    def check(self) -> List[str]:
        """Restores match their first pass; sampled jobs match ``run_job``."""
        from repro.engine import run_job

        problems = [f"job {i}: restore differs from the first pass"
                    for i, op in enumerate(self.ops) if not op[5]]
        picked = sorted(self.check_rng.sample(range(len(self.ops)),
                                              min(CHECKED_OPS, len(self.ops))))
        for n, i in enumerate(picked):
            job, payload = self.ops[i][0], dict(self.ops[i][1])
            if self.plant == "aggregate" and n == 0:
                payload["scsa1_errors"] += 1
            reference = run_job(job).aggregate.to_payload()
            if reference != payload:
                problems.append(f"job {i}: checkpointed aggregate != in-memory run_job")
        return problems

    def summary(self) -> Summary:
        samples = sum(op[0].samples for op in self.ops)
        wall = sum(op[3] for op in self.ops)
        restores = [op[4] for op in self.ops]
        return Summary(
            work=samples, work_s=wall, work_unit="Monte Carlo samples",
            op_ms=[op[3] * 1e3 for op in self.ops],
            op_label=f"checkpointed job ({self.chunks[0]}-{self.chunks[1]} chunks, "
                     f"2 steal-workers)",
            attempted=len(self.ops) + self.failed_ops, failed=self.failed_ops,
            extra=[
                Metric("mc_samples_per_s", samples / wall, "1/s", len(self.ops),
                       f"{samples} samples over {len(self.ops)} checkpointed jobs"),
                Metric("resume_s", median(restores), "s", len(restores),
                       "median restore-only pass"),
            ],
        )

    def layer_counters(self) -> Dict[str, float]:
        """Stealing waste and publish share, from each job's ``stats.json``."""
        chunks = sum(op[6] for op in self.ops)
        computed = sum(op[7] for op in self.ops)
        busy = sum(op[8] for op in self.ops)
        publish = sum(op[9] for op in self.ops)
        return {
            "steal.chunks_computed": computed,
            "steal.useful_ratio": chunks / computed if computed else 0.0,
            "checkpoint.publish_share": publish / (busy + publish) if busy + publish else 0.0,
        }

    def trace_pass(self, tracer) -> Dict[str, float]:
        """Two jobs, serially in-process, each run and then restored."""
        from repro.engine import run_checkpointed

        jobs = [self._job(self.trace_seed + offset, self.chunks[1]) for offset in range(2)]
        paths = [self._directory(f"trace-{offset}") for offset in range(2)]
        out: Dict[str, float] = {}
        restored = 0
        with measured_pass(tracer, out):
            for job, path in zip(jobs, paths):
                with tracer.span("steal.run_checkpointed"):
                    run_checkpointed(job, path, workers=0)
                with tracer.span("steal.run_checkpointed"):
                    restored += run_checkpointed(job, path, workers=0).resumed_chunks
        for path in paths:
            shutil.rmtree(path, ignore_errors=True)
        out["checkpoint.restore_records"] = restored
        return out

    def close(self) -> None:
        shutil.rmtree(self._directory("run"), ignore_errors=True)
