"""Resident WorkerPool: reuse across groups, failure recovery, shutdown.

The headline additions over test_runner.py: a pool survives many
submissions with bit-identical results, chunk failures leave it
reusable, and interruption (the SIGTERM regression) kills every worker
process — no orphans.  The process pool behind pooled ``run_jobs`` and
``run_checkpointed`` calls forks once per process and worker count, is
replaced once broken, is not inherited by a fork, and leaves no child
behind when its process exits or is SIGKILLed.
"""

import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import threading
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
from repro.engine.steal import run_checkpointed


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


# -- the process pool -------------------------------------------------------


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie awaiting its reaper has
    already exited)."""
    if not os.path.isdir("/proc"):  # pragma: no cover - exotic hosts
        return _pid_alive(pid)
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _wait_gone(pids, seconds=10.0):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline and any(_running(pid) for pid in pids):
        time.sleep(0.05)
    return [pid for pid in pids if _running(pid)]


@pytest.fixture
def forks(monkeypatch):
    """Every child a ``ForkProcess.start`` forks from here on."""
    started = []
    start = mp.context.ForkProcess.start

    def counting_start(self):
        started.append(self)
        return start(self)

    monkeypatch.setattr(mp.context.ForkProcess, "start", counting_start)
    return started


def _ckpt_job(seed):
    return MonteCarloErrorJob(width=16, window=4, samples=4096, chunk_size=512,
                              seed=seed, counters=("scsa1", "vlcsa2"))


needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork start method"
)


@needs_fork
class TestProcessPool:
    def test_consecutive_pooled_calls_fork_one_child(self, tmp_path, forks):
        """Pooled ``run_checkpointed`` and ``run_jobs`` calls of one worker
        count share one pool: one fork in all, every result exact."""
        for seed in range(4):
            job = _ckpt_job(seed)
            result = run_checkpointed(job, tmp_path / f"ckpt-{seed}", workers=2)
            assert result.aggregate.to_payload() == run_job(job).aggregate.to_payload()
            pooled = run_jobs([_job(seed, samples=20_000)], workers=2)[0].aggregate
            assert _counts(pooled) == _counts(run_job(_job(seed, samples=20_000)).aggregate)
        assert len(forks) == 1
        assert runner._resident.usable and runner._resident.workers == 2

    def test_another_worker_count_replaces_the_pool(self, forks):
        run_jobs([_job(1, samples=20_000)], workers=2)
        first = runner._resident
        result = run_jobs([_job(1, samples=20_000)], workers=3)[0].aggregate
        assert _counts(result) == _counts(run_job(_job(1, samples=20_000)).aggregate)
        assert runner._resident is not first and runner._resident.workers == 3
        assert not first.usable
        assert not any(proc.is_alive() for proc in first._procs)
        assert len(forks) == 1 + 2

    def test_a_child_killed_between_calls_is_replaced(self, forks):
        run_jobs([_job(2, samples=20_000)], workers=2)
        first = runner._resident
        victim = first._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        result = run_jobs([_job(2)], workers=2)[0].aggregate
        assert _counts(result) == _counts(run_job(_job(2)).aggregate)
        assert runner._resident is not first and len(forks) == 2

    def test_a_child_dead_mid_group_breaks_the_pool_and_the_next_call_replaces_it(
        self, tmp_path
    ):
        parent = os.getpid()
        marker = tmp_path / "died"
        job = _DiesOnceJob(parent=parent, marker=str(marker))
        with pytest.raises(EngineError, match="died"):
            run_jobs([job], workers=2)
        assert marker.exists()
        broken = runner._resident
        assert not broken.usable
        result = run_jobs([_job(3)], workers=2)[0].aggregate
        assert _counts(result) == _counts(run_job(_job(3)).aggregate)
        assert runner._resident is not broken

    def test_a_child_dead_mid_checkpointed_run_is_replaced_by_the_next_call(
        self, tmp_path, monkeypatch
    ):
        """A checkpointed run outlives its dead child and completes; the
        broken pool's children are gone and the next pooled call forks a
        fresh pool."""
        marker = tmp_path / "died"
        parent = os.getpid()
        run_chunk = MonteCarloErrorJob.run_chunk

        def dies_once(self, spec):
            time.sleep(0.02)  # slow enough that the child claims chunks
            if os.getpid() != parent:
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                except FileExistsError:
                    pass
                else:
                    os._exit(1)
            return run_chunk(self, spec)

        monkeypatch.setattr(MonteCarloErrorJob, "run_chunk", dies_once)
        result = run_checkpointed(_ckpt_job(7), tmp_path / "died-run", workers=2)
        assert marker.exists() and not result.partial
        broken = runner._resident
        assert not broken.usable
        assert not _wait_gone([proc.pid for proc in broken._procs])
        monkeypatch.undo()
        job = _ckpt_job(8)
        again = run_checkpointed(job, tmp_path / "next-run", workers=2)
        assert again.aggregate.to_payload() == run_job(job).aggregate.to_payload()
        assert runner._resident is not broken and runner._resident.usable

    def test_ctrl_c_breaks_the_pool_and_the_next_call_replaces_it(self):
        with pytest.raises(KeyboardInterrupt):
            run_jobs([_ParentInterruptJob(parent=os.getpid())], workers=2)
        broken = runner._resident
        assert not broken.usable
        assert not _wait_gone([proc.pid for proc in broken._procs])
        result = run_jobs([_job(4)], workers=2)[0].aggregate
        assert _counts(result) == _counts(run_job(_job(4)).aggregate)
        assert runner._resident is not broken

    def test_a_forked_process_forks_its_own_pool(self):
        """A process forked after the pool exists starts without it and
        forks its own; the parent's pool keeps working."""
        run_jobs([_job(5, samples=20_000)], workers=2)
        mine = runner._resident
        theirs = [proc.pid for proc in mine._procs]
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the forked caller
            status = 1
            try:
                os.close(read)
                inherited = runner._resident is not None
                aggregate = run_jobs([_job(5, samples=20_000)], workers=2)[0].aggregate
                own = [proc.pid for proc in runner._resident._procs]
                report = {"counts": list(_counts(aggregate)), "pids": own,
                          "inherited": inherited, "parent_pool": runner._resident is mine}
                runner._close_process_pool()
                os.write(write, json.dumps(report).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        with os.fdopen(read) as handle:
            report = json.loads(handle.read())
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert not report["inherited"] and not report["parent_pool"]
        assert not set(report["pids"]) & set(theirs)
        assert tuple(report["counts"]) == _counts(run_job(_job(5, samples=20_000)).aggregate)
        assert runner._resident is mine and mine.usable
        again = run_jobs([_job(6, samples=20_000)], workers=2)[0].aggregate
        assert _counts(again) == _counts(run_job(_job(6, samples=20_000)).aggregate)
        assert runner._resident is mine

    def test_two_threads_take_turns_on_one_pool(self, forks):
        seeds = list(range(10, 16))
        results = {}

        def call(seed):
            aggregate = run_jobs([_job(seed, samples=20_000)], workers=2)[0].aggregate
            results[seed] = _counts(aggregate)

        threads = [threading.Thread(target=call, args=(seed,)) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch often between the check and the fork
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {seed: _counts(run_job(_job(seed, samples=20_000)).aggregate)
                           for seed in seeds}
        assert len(forks) == 1


@dataclass(frozen=True)
class _DiesOnceJob:
    """Picklable job whose first chunk claimed outside ``parent`` kills its
    process (``marker`` records the death); chunks take a while."""

    parent: int
    marker: str
    chunks: int = 8

    def chunk_specs(self):
        return [ChunkSpec(index=i, size=1) for i in range(self.chunks)]

    def new_aggregate(self):
        return _BoomAgg()

    def run_chunk(self, spec):
        time.sleep(0.05)
        if os.getpid() != self.parent:
            try:
                os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                os._exit(1)
        return _BoomAgg()


_IDLE_SCRIPT = textwrap.dedent(
    """
    import os, sys, time
    from repro.engine import MonteCarloErrorJob, run_jobs, runner

    job = MonteCarloErrorJob(width=64, window=8, samples=100_000, seed=1)
    run_jobs([job], workers=2)
    print("PIDS " + " ".join(str(p.pid) for p in runner._resident._procs), flush=True)
    if sys.argv[1] == "idle":
        time.sleep(120)
    if sys.argv[1] == "fork":
        pool = runner._resident
        pid = os.fork()
        if pid == 0:
            sys.exit(0)  # a normal exit: the child runs the exit handlers it inherited
        os.waitpid(pid, 0)
        run_jobs([job], workers=2)
        print("SAME", runner._resident is pool, flush=True)
    """
)


def _run_script(mode):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.Popen(
        [sys.executable, "-u", "-c", _IDLE_SCRIPT, mode],
        stdout=subprocess.PIPE, text=True, env=env,
    )


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
class TestProcessPoolLifetime:
    def test_sigkilled_parent_leaves_no_idle_child(self):
        """The parent dies with no chance to clean up while its pool's
        child waits for a group: the child reads EOF on its pipe and exits."""
        proc = _run_script("idle")
        try:
            header = proc.stdout.readline()
            assert header.startswith("PIDS "), header
            pids = [int(p) for p in header.split()[1:]]
            assert len(pids) == 1 and _running(pids[0])
            proc.kill()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        orphans = _wait_gone(pids)
        assert not orphans, f"pool children outlived their SIGKILLed parent: {orphans}"

    def test_exit_leaves_no_child(self):
        """A process that ran pooled jobs closes its pool at exit."""
        proc = _run_script("exit")
        try:
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0
        header = out.splitlines()[0]
        assert header.startswith("PIDS "), header
        pids = [int(p) for p in header.split()[1:]]
        assert not [pid for pid in pids if _running(pid)]

    def test_a_forked_child_exiting_leaves_the_pool_alive(self):
        """A forked child's exit does not terminate its parent's pool
        children: the parent's next pooled call reuses its pool."""
        proc = _run_script("fork")
        try:
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0
        assert out.splitlines()[-1] == "SAME True"
