"""Runner tests: the headline guarantee is parallel == serial, bit for bit."""

from dataclasses import dataclass

import pytest

from repro.engine import (
    EngineError,
    EngineMetrics,
    MonteCarloErrorJob,
    run_job,
    run_jobs,
)
from repro.engine.jobs import ChunkSpec


def _counts_tuple(agg):
    return (
        agg.samples,
        agg.scsa1_errors,
        agg.vlcsa1_nominal,
        agg.vlcsa2_errors,
        agg.vlcsa2_stalls,
        None if agg.chain_counts is None else agg.chain_counts.tolist(),
    )


class TestBitIdentical:
    def test_scsa_job_parallel_matches_serial(self):
        """SCSA error job: 2 workers and serial agree exactly (fixed seed)."""
        job = MonteCarloErrorJob(
            width=64,
            window=8,
            samples=200_000,
            seed=42,
            chunk_size=2**14,
            counters=("scsa1",),
            chain_lengths=True,
        )
        serial = run_job(job, workers=0).aggregate
        parallel = run_job(job, workers=2).aggregate
        assert _counts_tuple(serial) == _counts_tuple(parallel)

    def test_vlcsa2_job_parallel_matches_serial(self):
        """VLCSA 2 job (both detectors, Gaussian inputs): same guarantee."""
        job = MonteCarloErrorJob(
            width=128,
            window=15,
            samples=120_000,
            distribution="gaussian",
            seed=7,
            chunk_size=2**14,
            counters=("scsa1", "vlcsa1_nominal", "vlcsa2", "vlcsa2_stall"),
        )
        serial = run_job(job, workers=0).aggregate
        parallel = run_job(job, workers=2).aggregate
        assert _counts_tuple(serial) == _counts_tuple(parallel)

    def test_magnitude_job_parallel_matches_serial(self):
        job = MonteCarloErrorJob(
            width=32, window=8, samples=150_000, seed=3, chunk_size=2**14,
            counters=("scsa1", "magnitude"),
        )
        serial = run_job(job, workers=0).aggregate
        parallel = run_job(job, workers=3).aggregate
        assert (serial.samples, serial.scsa1_errors, serial.sum_abs_error) == (
            parallel.samples,
            parallel.scsa1_errors,
            parallel.sum_abs_error,
        )
        assert serial.max_abs_error == parallel.max_abs_error
        assert serial.sum_abs_error > 0

    def test_group_results_keep_job_order(self):
        jobs = [
            MonteCarloErrorJob(
                width=64, window=k, samples=60_000, seed=1, counters=("scsa1",)
            )
            for k in (6, 8, 10)
        ]
        serial = run_jobs(jobs, workers=0)
        parallel = run_jobs(jobs, workers=2)
        for job, s, p in zip(jobs, serial, parallel):
            assert s.job is job
            assert s.aggregate.scsa1_errors == p.aggregate.scsa1_errors
        # smaller window -> strictly more errors at these scales
        errs = [r.aggregate.scsa1_errors for r in serial]
        assert errs[0] > errs[1] > errs[2]


@dataclass(frozen=True)
class _ExplodingJob:
    """Minimal job whose chunk 3 raises (tests failure propagation)."""

    chunks: int = 6

    def chunk_specs(self):
        return tuple(ChunkSpec(index=i, size=1) for i in range(self.chunks))

    def new_aggregate(self):
        from repro.engine.jobs import ErrorCounts

        return ErrorCounts()

    def run_chunk(self, spec):
        from repro.engine.jobs import ErrorCounts

        if spec.index == 3:
            raise RuntimeError("boom in chunk 3")
        return ErrorCounts(samples=spec.size)


class TestFailureHandling:
    def test_worker_exception_surfaces(self):
        with pytest.raises(EngineError, match="boom in chunk 3"):
            run_job(_ExplodingJob(), workers=2)

    def test_serial_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom in chunk 3"):
            run_job(_ExplodingJob(), workers=0)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            run_job(_ExplodingJob(), workers=-1)

    def test_empty_group_is_noop(self):
        assert run_jobs([], workers=2) == []


class TestMetrics:
    def test_shared_metrics_accumulate(self):
        metrics = EngineMetrics()
        job = MonteCarloErrorJob(
            width=32, window=6, samples=40_000, chunk_size=2**14, counters=("scsa1",)
        )
        run_job(job, workers=0, metrics=metrics)
        assert metrics.counters["samples"] == 40_000
        assert metrics.counters["chunks"] == 3
        assert metrics.timers["simulate"] > 0
        assert metrics.throughput() > 0

    def test_json_report_round_trips(self):
        import json

        metrics = EngineMetrics()
        job = MonteCarloErrorJob(
            width=32, window=6, samples=10_000, counters=("scsa1",)
        )
        run_job(job, workers=0, metrics=metrics)
        blob = json.loads(metrics.to_json())
        assert blob["counters"]["samples"] == 10_000
        assert "simulate" in blob["timers_s"]
