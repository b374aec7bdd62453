"""Job execution: serial fallback and a resident multiprocessing pool.

:class:`WorkerPool` owns a set of persistent worker processes with a job
*submission* API: a pool outlives any one job group, so a long-lived
caller (the ``repro serve`` scheduler, a figure's whole (n, k) grid, a
DSE sweep) pays the process start-up cost once and every worker keeps its
process-level caches — :func:`repro.engine.jobs.process_cache`, compiled
kernels, the measure-function memos — warm across submissions.

Each submission streams :class:`ChunkSpec` work units through a
**bounded** task queue (backpressure: the feeder blocks instead of
materializing every chunk's task at once) and folds partial aggregates in
completion order.  Because aggregates are exact integers and merging is
associative and commutative (see :mod:`repro.engine.jobs`), the fold
order cannot change the result: for a fixed job seed the parallel runner
is bit-identical to the serial one, which the test suite asserts.

Chunks are seeded by index (``SeedSequence(seed, spawn_key=(i,))``), so
worker assignment is pure scheduling — any worker may run any chunk.

Interruption is first-class: ``KeyboardInterrupt`` (and ``SIGTERM``,
translated while a group is in flight) drains the workers — each is
offered its end-of-group sentinel so it can ship its obs collector back —
then terminates and joins whatever remains, so an interrupted run leaves
no orphaned processes and keeps the telemetry that already arrived.

``run_jobs`` executes a *group* of jobs through one shared pool — either
an ephemeral one torn down afterwards, or a caller-provided resident pool.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.metrics import EngineMetrics
from repro.netlist import _accel
from repro.obs import spans as _obs
from repro.obs.collector import Collector

#: Task-queue bound per worker: enough to keep workers busy, small enough
#: that a huge job never materializes its whole chunk list in the queue.
_QUEUE_DEPTH_PER_WORKER = 2

_RESULT_POLL_S = 0.2

#: Target number of batched tasks per worker: chunks are grouped so each
#: worker sees a handful of tasks, amortizing queue/pickle overhead while
#: keeping enough granularity for load balancing.
_TASKS_PER_WORKER = 4

#: How long the parent waits for worker collector snapshots after the last
#: chunk result arrived (workers send them on taking their group sentinel).
_SNAPSHOT_DEADLINE_S = 10.0

#: Grace period an interrupted group grants workers to finish the chunk in
#: flight and flush their collectors before being terminated.
_ABORT_DRAIN_S = 1.0

_JOIN_TIMEOUT_S = 5.0

#: Progress callback signature: ``(done_chunks, total_chunks, aggregates)``.
#: Invoked from the parent as chunk results are folded in; the aggregates
#: list reflects everything merged so far, so a reporter can surface live
#: error counts alongside the chunk rate.
ProgressFn = Callable[[int, int, Sequence[Any]], None]


class EngineError(RuntimeError):
    """A chunk failed or the worker pool died; carries worker tracebacks."""


class _PoolDead(RuntimeError):
    """Internal: the worker processes exited mid-group (pool is broken)."""


@dataclass
class EngineResult:
    """What a run returns: the job, its merged aggregate, and metrics."""

    job: Any
    aggregate: Any
    metrics: EngineMetrics


def _mp_context():
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


@contextmanager
def _sigterm_interrupts() -> Iterator[None]:
    """Translate SIGTERM into KeyboardInterrupt while a group is running.

    Only the main thread may install signal handlers; elsewhere (e.g. a
    serve shard thread driving a resident pool) this is a no-op and the
    process-level handler keeps whatever semantics the host installed.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum, frame):
        raise KeyboardInterrupt("SIGTERM")

    try:
        previous = signal.signal(signal.SIGTERM, _handler)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _worker_main(
    control: "mp.Queue",
    tasks: "mp.Queue",
    results: "mp.Queue",
    rank: int = 0,
    trace: bool = False,
) -> None:
    # Under fork the child inherits the parent's obs collector contents;
    # reset so the snapshot shipped back holds only this worker's data.
    _obs.reset()
    if trace:
        _obs.enable()
    while True:
        msg = control.get()
        if msg is None:  # pool shutdown
            return
        gen, jobs = msg
        local = Collector()
        if trace:
            _obs.reset()  # spans per group, so snapshots never re-ship
        try:
            results.put(("joined", gen, rank))
        except Exception:  # parent is tearing down
            return
        while True:
            task = tasks.get()
            if task[0] != gen:
                continue  # leftover of an aborted group; skip
            if task[1] is None:
                # Group sentinel: ship this worker's collector (and its
                # trace spans) back, then wait for the next group.
                obs_snapshot = _obs.global_collector() if trace else None
                try:
                    results.put(("snapshot", gen, rank, local, obs_snapshot))
                except Exception:
                    pass  # parent is tearing down; metrics are best-effort
                break
            _, job_index, specs = task
            try:
                job = jobs[job_index]
                aggregate = job.new_aggregate()
                with _obs.span("worker.task", rank=rank, chunks=len(specs)):
                    with local.timer("chunks"):
                        for spec in specs:
                            aggregate = aggregate.merge(job.run_chunk(spec))
                local.add("chunks", len(specs))
                local.add("tasks", 1)
                results.put(("result", gen, job_index, "ok", aggregate, len(specs)))
            except BaseException:
                results.put(
                    ("result", gen, job_index, "error", traceback.format_exc(), len(specs))
                )


def _run_group_serial(
    jobs: Sequence[Any],
    aggregates: List[Any],
    metrics: EngineMetrics,
    progress: Optional[ProgressFn] = None,
) -> None:
    per_job = [job.chunk_specs() for job in jobs]
    total = sum(len(specs) for specs in per_job)
    done = 0
    for job_index, (job, specs) in enumerate(zip(jobs, per_job)):
        for spec in specs:
            aggregates[job_index] = aggregates[job_index].merge(job.run_chunk(spec))
            metrics.add("chunks", 1)
            done += 1
            if progress is not None:
                progress(done, total, aggregates)


class WorkerPool:
    """A resident multiprocessing worker pool with a submission API.

    Workers are started once and stay alive across :meth:`run_group` /
    :meth:`submit` calls; each submission broadcasts its job list, streams
    chunk tasks through the shared bounded queue, and collects per-worker
    obs snapshots at the group boundary.  Submissions are serialized by an
    internal lock, so the pool is safe to share between threads.

    A pool breaks (and terminates its processes) when a group is
    interrupted or a worker dies; a broken pool refuses further work.
    Chunk *failures* (exceptions inside ``run_chunk``) raise
    :class:`EngineError` but leave the pool healthy and reusable.
    """

    def __init__(self, workers: int, trace: Optional[bool] = None):
        if workers < 2:
            raise ValueError(f"a worker pool needs >= 2 workers, got {workers}")
        self.workers = workers
        self._trace = _obs.is_enabled() if trace is None else bool(trace)
        ctx = _mp_context()
        self._tasks: "mp.Queue" = ctx.Queue(
            maxsize=max(2, _QUEUE_DEPTH_PER_WORKER * workers)
        )
        self._results: "mp.Queue" = ctx.Queue()
        self._controls: List["mp.Queue"] = [ctx.Queue() for _ in range(workers)]
        _accel.load()  # open the C library once here; the workers inherit it
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(self._controls[rank], self._tasks, self._results, rank, self._trace),
                daemon=True,
            )
            for rank in range(workers)
        ]
        for proc in self._procs:
            proc.start()
        self._lock = threading.Lock()
        self._generation = 0
        self._closed = False
        self._broken = False

    # -- lifecycle --------------------------------------------------------

    @property
    def usable(self) -> bool:
        """Whether the pool accepts submissions."""
        return not (self._closed or self._broken)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self, timeout: float = _JOIN_TIMEOUT_S) -> None:
        """Graceful shutdown: workers exit at their next group boundary.

        Idle workers (the steady state between groups) exit immediately;
        anything still alive after ``timeout`` is terminated, so close
        never leaks processes.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not self._broken:
                for control in self._controls:
                    try:
                        control.put(None)
                    except Exception:  # pragma: no cover - queue torn down
                        pass
            for proc in self._procs:
                proc.join(timeout=timeout)
            stragglers = [proc for proc in self._procs if proc.is_alive()]
            if stragglers:
                # A worker that never drained its control queue leaves the
                # parent's feeder thread with unflushed data — same exit
                # hang as the terminate path.
                self._cancel_queue_joins()
                for proc in stragglers:
                    proc.terminate()
            for proc in self._procs:
                proc.join(timeout=timeout)

    def terminate(self) -> None:
        """Hard shutdown: kill the workers now (pool becomes unusable)."""
        with self._lock:
            self._broken = True
            self._terminate_locked()
            self._closed = True

    def _terminate_locked(self) -> None:
        # The parent has written into the task/control queues; with the
        # readers dead, their feeder threads would block interpreter exit
        # in Queue.join_thread() waiting to flush a full pipe.  Tell them
        # not to (the queued data is garbage now anyway).
        self._cancel_queue_joins()
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=_JOIN_TIMEOUT_S)

    def _cancel_queue_joins(self) -> None:
        for q in (self._tasks, *self._controls):
            try:
                q.cancel_join_thread()
            except Exception:  # pragma: no cover - queue torn down
                pass

    # -- submission -------------------------------------------------------

    def submit(
        self, jobs: Sequence[Any], metrics: Optional[EngineMetrics] = None
    ) -> List[EngineResult]:
        """Execute a job group on this pool (see :func:`run_jobs`)."""
        return run_jobs(jobs, metrics=metrics, pool=self)

    def run_group(
        self,
        jobs: Sequence[Any],
        aggregates: List[Any],
        metrics: EngineMetrics,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        """Run one job group, folding chunk aggregates into ``aggregates``."""
        with self._lock:
            if self._closed:
                raise EngineError("worker pool is closed")
            if self._broken:
                raise EngineError("worker pool is broken (a prior group died)")
            self._generation += 1
            gen = self._generation
            with _sigterm_interrupts():
                try:
                    self._run_group_locked(gen, tuple(jobs), aggregates, metrics, progress)
                except EngineError:
                    raise  # chunk failure: workers are already idle again
                except _PoolDead as exc:
                    self._broken = True
                    self._terminate_locked()
                    raise EngineError(str(exc)) from None
                except BaseException:
                    # KeyboardInterrupt (possibly a translated SIGTERM) or
                    # any unexpected parent-side error: drain + kill.
                    self._abort_locked(gen, metrics)
                    raise

    def _run_group_locked(
        self,
        gen: int,
        jobs: Tuple[Any, ...],
        aggregates: List[Any],
        metrics: EngineMetrics,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        per_job = [job.chunk_specs() for job in jobs]
        total = sum(len(specs) for specs in per_job)
        done_chunks = 0
        batch = max(1, total // (self.workers * _TASKS_PER_WORKER))
        work = [
            (gen, job_index, tuple(specs[i : i + batch]))
            for job_index, specs in enumerate(per_job)
            for i in range(0, len(specs), batch)
        ]

        for control in self._controls:
            control.put((gen, jobs))

        failures: List[str] = []
        outstanding = len(work)
        joined: set = set()
        snapshots: Dict[int, Tuple[Collector, Optional[Collector]]] = {}

        def absorb(item) -> None:
            nonlocal outstanding, done_chunks
            if item[1] != gen:
                return  # stale message from a prior (timed-out) group
            kind = item[0]
            if kind == "joined":
                joined.add(item[2])
            elif kind == "snapshot":
                _, _, rank, local, obs_snapshot = item
                snapshots[rank] = (local, obs_snapshot)
            else:  # "result"
                _, _, job_index, status, payload, n_chunks = item
                outstanding -= 1
                if status == "ok":
                    aggregates[job_index] = aggregates[job_index].merge(payload)
                    metrics.add("chunks", n_chunks)
                    done_chunks += n_chunks
                    if progress is not None:
                        progress(done_chunks, total, aggregates)
                else:
                    failures.append(payload)

        # Barrier: every worker must have left the previous group and
        # entered this one before tasks flow, so a straggler from a prior
        # group can never swallow (and discard) this group's tasks.
        while len(joined) < self.workers:
            try:
                absorb(self._results.get(timeout=_RESULT_POLL_S))
            except queue.Empty:
                if not any(proc.is_alive() for proc in self._procs):
                    raise _PoolDead("worker pool died before starting the group")

        stop = threading.Event()

        def feed() -> None:
            for item in list(work) + [(gen, None)] * self.workers:
                while not stop.is_set():
                    try:
                        self._tasks.put(item, timeout=0.1)
                        break
                    except queue.Full:
                        continue
                else:
                    return

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()

        try:
            while outstanding:
                try:
                    absorb(self._results.get(timeout=_RESULT_POLL_S))
                except queue.Empty:
                    if not any(proc.is_alive() for proc in self._procs):
                        # Drain anything that raced with worker exit.
                        try:
                            while outstanding:
                                absorb(self._results.get_nowait())
                        except queue.Empty:
                            pass
                        if outstanding:
                            raise _PoolDead(
                                f"worker pool exited with {outstanding} "
                                f"chunk(s) unfinished"
                            )
            # All chunks are in; workers are now consuming group sentinels
            # and shipping their collectors.  Wait briefly — best-effort: a
            # worker killed mid-shutdown just means its detail is absent.
            deadline = time.monotonic() + _SNAPSHOT_DEADLINE_S
            while len(snapshots) < self.workers and time.monotonic() < deadline:
                try:
                    absorb(self._results.get(timeout=_RESULT_POLL_S))
                except queue.Empty:
                    if not any(proc.is_alive() for proc in self._procs):
                        try:
                            while True:
                                absorb(self._results.get_nowait())
                        except queue.Empty:
                            pass
                        break
        finally:
            stop.set()
            feeder.join(timeout=_JOIN_TIMEOUT_S)

        # Merge in sorted rank order so the report layout is deterministic.
        for rank in sorted(snapshots):
            local, obs_snapshot = snapshots[rank]
            metrics.absorb_worker(rank, local)
            if obs_snapshot is not None:
                _obs.global_collector().merge(obs_snapshot)

        if failures:
            raise EngineError(
                f"{len(failures)} chunk(s) failed; first traceback:\n{failures[0]}"
            )

    def _abort_locked(self, gen: int, metrics: EngineMetrics) -> None:
        """Interrupted group: drain workers, flush collectors, then kill.

        Each worker is offered its end-of-group sentinel so one finishing
        its chunk in flight ships its collector back inside the grace
        period; whatever is still running afterwards is terminated.  The
        pool is broken either way — an aborted group's task queue state is
        unrecoverable.
        """
        self._broken = True
        for _ in range(self.workers):
            try:
                self._tasks.put_nowait((gen, None))
            except Exception:
                break  # bounded queue still full: stragglers get killed
        deadline = time.monotonic() + _ABORT_DRAIN_S
        flushed = 0
        while flushed < self.workers and time.monotonic() < deadline:
            try:
                item = self._results.get(timeout=0.05)
            except queue.Empty:
                if not any(proc.is_alive() for proc in self._procs):
                    break
                continue
            except Exception:  # pragma: no cover - queue torn down
                break
            if item[0] == "snapshot" and item[1] == gen:
                flushed += 1
                _, _, rank, local, obs_snapshot = item
                metrics.absorb_worker(rank, local)
                if obs_snapshot is not None:
                    _obs.global_collector().merge(obs_snapshot)
        self._terminate_locked()


def run_jobs(
    jobs: Sequence[Any],
    workers: int = 0,
    metrics: Optional[EngineMetrics] = None,
    pool: Optional[WorkerPool] = None,
    progress: Optional[ProgressFn] = None,
) -> List[EngineResult]:
    """Execute a group of jobs through one (shared) runner.

    ``workers=0`` (or 1) uses the in-process serial runner; ``workers>=2``
    spins up one ephemeral :class:`WorkerPool` for the whole group.  A
    caller holding a resident pool passes it via ``pool`` (``workers`` is
    then ignored) and keeps its workers' caches warm across calls.
    Per-job results are bit-identical across all three paths for fixed
    job seeds.  All returned :class:`EngineResult`\\ s share the same
    metrics instance.  ``progress`` is invoked from the parent as chunk
    results fold in, with ``(done_chunks, total_chunks, aggregates)``.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if not jobs:
        return []
    metrics = metrics if metrics is not None else EngineMetrics()
    pooled = pool is not None or workers >= 2
    metrics.add("workers", pool.workers if pool is not None else (workers if pooled else 0))
    aggregates = [job.new_aggregate() for job in jobs]
    with metrics.phase("simulate"):
        if pool is not None:
            pool.run_group(jobs, aggregates, metrics, progress)
        elif workers >= 2:
            with WorkerPool(workers) as ephemeral:
                ephemeral.run_group(jobs, aggregates, metrics, progress)
        else:
            _run_group_serial(jobs, aggregates, metrics, progress)
    for aggregate in aggregates:
        samples = getattr(aggregate, "samples", None)
        if isinstance(samples, int) and samples:
            metrics.add("samples", samples)
        counters = getattr(aggregate, "counters", None)
        if isinstance(counters, dict):
            metrics.merge_counters(counters)
    return [
        EngineResult(job=job, aggregate=aggregate, metrics=metrics)
        for job, aggregate in zip(jobs, aggregates)
    ]


def run_job(
    job: Any,
    workers: int = 0,
    metrics: Optional[EngineMetrics] = None,
    pool: Optional[WorkerPool] = None,
) -> EngineResult:
    """Execute a single job (see :func:`run_jobs`)."""
    return run_jobs([job], workers=workers, metrics=metrics, pool=pool)[0]
