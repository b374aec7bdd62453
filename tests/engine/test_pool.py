"""Resident WorkerPool: reuse across groups, failure recovery, shutdown.

The headline additions over test_runner.py: a pool survives many
submissions with bit-identical results, chunk failures leave it
reusable, and interruption (the SIGTERM regression) kills every worker
process — no orphans.
"""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import dataclass

import pytest

from repro.engine import (
    EngineError,
    EngineMetrics,
    MonteCarloErrorJob,
    WorkerPool,
    run_job,
    run_jobs,
    runner,
)
from repro.engine.jobs import ChunkSpec


def _job(seed, samples=100_000):
    return MonteCarloErrorJob(
        width=64, window=8, samples=samples, seed=seed, chunk_size=2**13,
        counters=("scsa1", "vlcsa2", "vlcsa2_stall"),
    )


def _counts(agg):
    return (agg.samples, agg.scsa1_errors, agg.vlcsa2_errors, agg.vlcsa2_stalls)


@dataclass(frozen=True)
class _BoomJob:
    """Picklable job whose chunks always fail."""

    chunks: int = 4

    def chunk_specs(self):
        return [ChunkSpec(index=i, size=1) for i in range(self.chunks)]

    def new_aggregate(self):
        return _BoomAgg()

    def run_chunk(self, spec):
        raise RuntimeError(f"chunk {spec.index} exploded")


class _BoomAgg:
    samples = 0

    def merge(self, other):
        return self


@dataclass(frozen=True)
class _ParentInterruptJob:
    """Picklable job whose chunks raise KeyboardInterrupt in ``parent``
    (the pool's worker 0) and take a while everywhere else."""

    parent: int
    chunks: int = 4

    def chunk_specs(self):
        return [ChunkSpec(index=i, size=1) for i in range(self.chunks)]

    def new_aggregate(self):
        return _BoomAgg()

    def run_chunk(self, spec):
        if os.getpid() == self.parent:
            raise KeyboardInterrupt
        time.sleep(0.1)
        return _BoomAgg()


class TestResidentPool:
    def test_many_groups_one_pool_bit_identical(self):
        with WorkerPool(2) as pool:
            for seed in (1, 2, 3):
                resident = pool.submit([_job(seed)])[0].aggregate
                serial = run_job(_job(seed)).aggregate
                assert _counts(resident) == _counts(serial)
            assert pool.usable

    def test_run_jobs_accepts_shared_pool(self):
        with WorkerPool(2) as pool:
            group_a = run_jobs([_job(10), _job(11)], pool=pool)
            group_b = run_jobs([_job(12)], pool=pool)
        assert [r.job.seed for r in group_a] == [10, 11]
        assert _counts(group_b[0].aggregate) == _counts(
            run_job(_job(12)).aggregate
        )

    def test_chunk_failure_leaves_pool_reusable(self):
        with WorkerPool(2) as pool:
            with pytest.raises(EngineError, match="exploded"):
                pool.submit([_BoomJob()])
            assert pool.usable
            result = pool.submit([_job(5, samples=20_000)])[0].aggregate
            assert _counts(result) == _counts(
                run_job(_job(5, samples=20_000)).aggregate
            )

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(1)

    def test_close_is_idempotent_and_kills_workers(self):
        pool = WorkerPool(2)
        procs = list(pool._procs)
        pool.submit([_job(1, samples=20_000)])
        pool.close()
        pool.close()
        assert all(not proc.is_alive() for proc in procs)
        with pytest.raises(EngineError, match="closed"):
            pool.submit([_job(2)])

    def test_terminate_breaks_pool(self):
        pool = WorkerPool(2)
        pool.terminate()
        assert not pool.usable
        with pytest.raises(EngineError):
            pool.submit([_job(1)])

    def test_pool_metrics_absorb_worker_details(self):
        metrics = EngineMetrics()
        with WorkerPool(2) as pool:
            pool.submit([_job(9)], metrics=metrics)
        assert metrics.counters["chunks"] > 0
        assert metrics.worker_details  # per-rank snapshots arrived


def _draw_claims(cursor, count, out):
    out.put([next(cursor) for _ in range(count)])


def test_shared_cursor_hands_out_each_index_once():
    """More processes than cores draw from one claim cursor in a tight loop:
    a lost update would hand an index out twice and skip another."""
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
    cursor = runner._SharedCursor(ctx)
    out = ctx.Queue()
    procs = [ctx.Process(target=_draw_claims, args=(cursor, 5000, out)) for _ in range(4)]
    for proc in procs:
        proc.start()
    drawn = [out.get(timeout=60) for _ in procs]  # drain before joining
    for proc in procs:
        proc.join(timeout=60)
    assert not any(proc.is_alive() for proc in procs)
    assert sorted(i for claims in drawn for i in claims) == list(range(20000))


_SIGTERM_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.engine import MonteCarloErrorJob, WorkerPool

    pool = WorkerPool(2)
    print("PIDS " + " ".join(str(p.pid) for p in pool._procs), flush=True)
    job = MonteCarloErrorJob(
        width=256, window=8, samples=300_000_000,
        seed=1, chunk_size=2**12, counters=("scsa1",),
    )
    try:
        pool.submit([job])
    except KeyboardInterrupt:
        print("INTERRUPTED", flush=True)
        sys.exit(3)
    print("FINISHED", flush=True)
    sys.exit(0)
    """
)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exotic hosts
        return True
    return True


class TestSigtermShutdown:
    def test_sigterm_mid_run_leaves_no_orphans(self):
        """The satellite regression: SIGTERM during a multiprocess run
        drains and terminates every worker — no orphaned processes."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-u", "-c", _SIGTERM_SCRIPT],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            header = proc.stdout.readline()
            assert header.startswith("PIDS "), header
            worker_pids = [int(p) for p in header.split()[1:]]
            assert len(worker_pids) == 1  # WorkerPool(2): the parent + one child
            time.sleep(0.5)  # let the group get in flight
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert "INTERRUPTED" in out, f"expected interrupt, got: {out!r}"
        assert proc.returncode == 3
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(
            _pid_alive(pid) for pid in worker_pids
        ):
            time.sleep(0.1)
        orphans = [pid for pid in worker_pids if _pid_alive(pid)]
        assert not orphans, f"worker processes survived SIGTERM: {orphans}"

    def test_keyboard_interrupt_terminates_pool_in_process(self):
        """An interrupt in the parent's own chunk breaks the pool and kills
        its children."""
        pool = WorkerPool(2)
        procs = list(pool._procs)
        with pytest.raises(KeyboardInterrupt):
            pool.submit([_ParentInterruptJob(parent=os.getpid())])
        assert not pool.usable
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(p.is_alive() for p in procs):
            time.sleep(0.05)
        assert all(not proc.is_alive() for proc in procs)
        pool.close()
