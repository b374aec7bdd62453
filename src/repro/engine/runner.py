"""Job execution: one claim loop, run by every computing process.

Every execution path — a serial run, a caller's :class:`WorkerPool`, the
process pool behind ``run_jobs(workers=n)``, a checkpointed run — is the
same loop, :func:`_claim_loop`: claim a chunk, compute it, publish it,
repeat.  The caller's process is worker 0 and computes chunks like the
rest, so ``workers`` counts computing processes and ``WorkerPool(n)``
forks ``n - 1`` children.

A pooled call that brings no pool of its own (``run_jobs`` and
``run_checkpointed`` with ``workers >= 2``) runs on the *process pool*
(:func:`_process_pool`): one resident :class:`WorkerPool` per process,
forked on the first such call and kept for the next, so a call pays no
fork and no join.  It is replaced when a call asks for another worker
count or when an interrupt or a dead child broke it; a process forked
after it starts without one; an ``atexit`` handler closes it.  Its lock
is held through each group, so pooled calls from two threads run one
after the other on the one pool.

Where claims and results live is the group's *completion store*:

* the **memory store** (:class:`_MemoryStore`) hands out the group's
  flattened ``(job_index, spec)`` list in order, one chunk per claim,
  through a cursor shared by the pool's processes; each child sends each
  chunk's aggregate to the parent;
* the **manifest store** (``repro.engine.steal._ManifestStore``) claims
  the job's pending chunks through the same shared cursor and appends
  each finished one to a durable manifest, so a run resumes after any
  interruption.

Either way a claim that finds nothing left means the group is done: no
process ever waits for a chunk held elsewhere.

Chunks are seeded by index (``SeedSequence(seed, spawn_key=(i,))``) and
aggregates merge exact integers associatively and commutatively (see
:mod:`repro.engine.jobs`), so neither which process ran a chunk nor the
order the parent folded it in can change a result: serial, pooled,
resumed and served runs are bit-identical, which the test suite asserts.

A child talks to the parent over one duplex pipe.  The parent sends a
group, then exactly one stop once its own loop is done; the child sends
one message per finished chunk, then one end-of-group message with its
timing moments, its span snapshot and its failure, if any.  The parent
waits on those pipes and on the children's process sentinels.  One
failure model covers every path:

* a chunk exception stops claiming, drains the group and raises
  :class:`EngineError`; the pool stays usable and a job directory stays
  resumable;
* Ctrl-C or SIGTERM terminates the children, breaks the pool and
  re-raises;
* a dead child breaks the pool; the memory store raises
  :class:`EngineError`, while a checkpointed run's parent computes the
  chunk the child never recorded once the other children have ended.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing as mp
import os
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set

from repro.engine.metrics import EngineMetrics
from repro.netlist import _accel
from repro.obs import spans as _obs
from repro.obs.accumulator import StreamingMoments
from repro.obs.collector import Collector

_JOIN_TIMEOUT_S = 5.0

#: Progress callback signature: ``(done_chunks, total_chunks, aggregates)``.
#: Invoked from the parent as chunk results are folded in; the aggregates
#: list reflects everything merged so far, so a reporter can surface live
#: error counts alongside the chunk rate.
ProgressFn = Callable[[int, int, Sequence[Any]], None]

#: One process's timing moments for a group: seconds per chunk spent
#: computing (``chunk_s``) and committing to the store (``checkpoint_s``).
Stats = Dict[str, StreamingMoments]


class EngineError(RuntimeError):
    """A chunk failed or the worker pool died; carries worker tracebacks."""


class _PoolDead(RuntimeError):
    """Internal: a child exited mid-group with chunks only it held."""


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


def _new_stats() -> Stats:
    return {"chunk_s": StreamingMoments(), "checkpoint_s": StreamingMoments()}


def _collector(stats: Stats) -> Collector:
    """One worker's chunk count and busy time, as its per-rank report."""
    local = Collector()
    local.add("chunks", stats["chunk_s"].count)
    local.timers["chunks"] = float(stats["chunk_s"].total)
    return local


def _claim_loop(
    store: Any,
    publish: Callable[[Any], None],
    keep_going: Callable[[], bool],
    stats: Stats,
) -> None:
    """Claim, compute, publish, repeat — every computing process's loop.

    Ends when ``keep_going`` turns false or ``store`` has nothing left to
    claim.  ``publish`` receives what the store's ``commit`` returned for
    each chunk, and each chunk's compute and commit seconds go to
    ``stats``.
    """
    while keep_going():
        item = store.claim()
        if item is None:
            return
        start = time.perf_counter()
        result = store.compute(item)
        computed = time.perf_counter()
        message = store.commit(item, result)
        stats["chunk_s"].record(computed - start)
        stats["checkpoint_s"].record(time.perf_counter() - computed)
        publish(message)


class _MemoryStore:
    """Completion store of an in-memory job group.

    Claims come off ``cursor`` over the group's flattened ``(job_index,
    spec)`` list, in order, one chunk per claim; a pool swaps in its
    shared cursor, so no two of its processes claim one chunk.  A chunk
    is published as ``(job_index, aggregate)``.  Pickles as its jobs.
    """

    durable = False

    def __init__(self, jobs: Sequence[Any]):
        self.jobs = tuple(jobs)
        self.work = [(i, spec) for i, job in enumerate(self.jobs) for spec in job.chunk_specs()]
        self.cursor: Iterator[int] = itertools.count()

    def __reduce__(self):
        return _MemoryStore, (self.jobs,)

    def claim(self) -> Optional[int]:
        index = next(self.cursor)
        return index if index < len(self.work) else None

    def compute(self, index: int) -> Any:
        job_index, spec = self.work[index]
        return self.jobs[job_index].run_chunk(spec)

    def commit(self, index: int, aggregate: Any) -> Any:
        return self.work[index][0], aggregate


class _SharedCursor:
    """A claim cursor in shared memory, inherited by a pool's children."""

    def __init__(self, ctx):
        self._value = ctx.Value("q", 0)

    def __next__(self) -> int:
        with self._value.get_lock():
            index = self._value.value
            self._value.value = index + 1
        return index

    def reset(self) -> None:
        self._value.value = 0


def _memory_group(
    jobs: Sequence[Any],
    aggregates: List[Any],
    metrics: EngineMetrics,
    progress: Optional[ProgressFn],
):
    """The memory store of ``jobs`` and the parent's fold into ``aggregates``."""
    store = _MemoryStore(jobs)
    done = itertools.count(1)

    def absorb(result) -> None:
        job_index, aggregate = result
        aggregates[job_index] = aggregates[job_index].merge(aggregate)
        metrics.add("chunks")
        count = next(done)
        if progress is not None:
            progress(count, len(store.work), aggregates)

    return store, absorb


def _worker_main(conn, inherited, cursor, rank: int) -> None:
    """A pool child: one :func:`_claim_loop` per group until shutdown.

    Interruption belongs to the parent: a child ignores Ctrl-C and dies
    quietly on the SIGTERM of the parent's teardown.  A closed pipe ends
    the child, and so does a new parent pid between chunks: a SIGKILLed
    parent must not leave computing orphans.
    """
    for other in inherited:
        other.close()  # the parent's ends: EOF must mean the parent is gone
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent = os.getppid()

    def keep_going() -> bool:
        return not conn.poll() and os.getppid() == parent

    try:
        for store, trace in iter(conn.recv, None):
            store.cursor = cursor
            if trace:
                _obs.reset()  # spans per group, so snapshots never re-ship
                _obs.enable()
            else:
                _obs.disable()
            stats, error = _new_stats(), None
            with _obs.span("worker.task", rank=rank):
                try:
                    _claim_loop(
                        store, lambda message: conn.send(("chunk", message)),
                        keep_going, stats,
                    )
                except Exception:
                    error = traceback.format_exc()
            conn.send(("end", (stats, _obs.global_collector() if trace else None, error)))
            conn.recv()  # the parent's stop: every group ends with one
    except (EOFError, OSError):
        pass  # the parent is gone


def _drive(
    store: Any,
    absorb: Callable[[Any], None],
    metrics: EngineMetrics,
    pool: Optional["WorkerPool"] = None,
    deadline: Optional[float] = None,
    budget: Optional[int] = None,
) -> Stats:
    """Run one group through ``store`` with the caller as worker 0.

    ``pool``'s children run the group beside it; their chunk messages and
    the caller's own chunks all go to ``absorb``.  The caller stops
    claiming at ``deadline`` (``time.monotonic()``), after ``budget``
    chunks of its own, or on a failure anywhere, then stops the children
    and drains their ends.  Returns every process's moments, merged.
    """
    own = _new_stats()
    live: Set[int] = pool._broadcast(store) if pool is not None else set()
    ends: Dict[int, tuple] = {}
    failures: List[str] = []

    def keep_going() -> bool:
        if live:
            pool._collect(live, ends, absorb, store.durable, 0)
        return (
            not any(end[2] for end in ends.values())
            and (deadline is None or time.monotonic() < deadline)
            and (budget is None or own["chunk_s"].count < budget)
        )

    with _sigterm_interrupts():
        try:
            _claim_loop(store, absorb, keep_going, own)
        except _PoolDead:
            raise
        except Exception:
            failures.append(traceback.format_exc())
        if pool is not None:
            pool._stop(live | set(ends))
            while live:
                pool._collect(live, ends, absorb, store.durable, None)

    merged = _new_stats()
    for rank, (stats, spans, error) in sorted({**ends, 0: (own, None, None)}.items()):
        if pool is not None:
            metrics.absorb_worker(rank, _collector(stats))
        if spans is not None:
            _obs.global_collector().merge(spans)
        if error is not None:
            failures.append(error)
        for key, moments in stats.items():
            merged[key].merge(moments)
    if failures:
        resumable = "; the job directory is resumable" if store.durable else ""
        raise EngineError(
            f"chunks failed in {len(failures)} worker(s){resumable}; "
            f"first traceback:\n{failures[0]}"
        )
    return merged


class WorkerPool:
    """Resident worker processes beside the caller, who is worker 0.

    ``WorkerPool(n)`` forks ``n - 1`` children once; they stay alive
    across :meth:`run_group` / :meth:`submit` calls, so a long-lived
    caller (the ``repro serve`` scheduler, the process pool behind pooled
    ``run_jobs`` and ``run_checkpointed`` calls, a figure's whole (n, k)
    grid) pays the fork once and every child keeps its process-level
    caches — :func:`repro.engine.cache.process_cache`, compiled kernels,
    the measure-function memos — warm.  Groups are serialized by an
    internal lock, so the pool is safe to share between threads.

    A pool breaks (and terminates its children) when a group is
    interrupted or a child dies; a broken pool refuses further work.
    Chunk *failures* (exceptions inside ``run_chunk``) raise
    :class:`EngineError` but leave the pool healthy and reusable.
    """

    def __init__(self, workers: int):
        if workers < 2:
            raise ValueError(f"a worker pool needs >= 2 workers, got {workers}")
        self.workers = workers
        ctx = _mp_context()
        self._cursor = _SharedCursor(ctx)
        self._conns: List[Any] = []
        self._procs: List[Any] = []
        _accel.load()  # open the C library once here; the children inherit it
        for rank in range(1, workers):
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(theirs, self._conns + [mine], self._cursor, rank),
                daemon=True,
            )
            proc.start()
            theirs.close()
            self._conns.append(mine)
            self._procs.append(proc)
        self._lock = threading.Lock()
        self._closed = False
        self._broken = False

    # -- lifecycle --------------------------------------------------------

    @property
    def usable(self) -> bool:
        """Whether the pool accepts submissions: neither closed nor broken,
        and no child has died since its last group."""
        return not (self._closed or self._broken) and all(
            proc.is_alive() for proc in self._procs
        )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: idle children exit at once, and anything
        still alive after ``timeout`` is terminated, so close never leaks
        processes."""
        with self._lock:
            self._shutdown(timeout)

    def terminate(self) -> None:
        """Hard shutdown: kill the children now (pool becomes unusable)."""
        with self._lock:
            self._broken = True
            self._shutdown()

    def _shutdown(self, timeout: Optional[float] = None) -> None:
        if self._closed:
            return
        self._closed = True
        timeout = _JOIN_TIMEOUT_S if timeout is None else timeout
        for conn, proc in zip(self._conns, self._procs):
            try:
                if not self._broken:
                    conn.send(None)
                elif proc.is_alive():
                    proc.terminate()
            except OSError:
                pass  # already gone
        for conn, proc in zip(self._conns, self._procs):
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=timeout)
            conn.close()

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
        self._run(*_memory_group(jobs, aggregates, metrics, progress), metrics)

    def _run(self, store, absorb, metrics, deadline=None) -> Stats:
        """Run one group through :func:`_drive` on this pool; an interrupt
        or a memory-store child's death breaks the pool."""
        with self._lock:
            if self._broken:
                raise EngineError("worker pool is broken (a prior group died)")
            if self._closed:
                raise EngineError("worker pool is closed")
            try:
                return _drive(store, absorb, metrics, self, deadline)
            except EngineError:
                raise  # chunk failure: the children are idle again
            except _PoolDead as exc:
                self._broken = True
                raise EngineError(str(exc)) from None
            except BaseException:
                # KeyboardInterrupt (possibly a translated SIGTERM) or an
                # unexpected parent-side error: kill the children.
                self._broken = True
                raise
            finally:
                if self._broken:  # also a durable group that outlived a child
                    self._shutdown()

    # -- the parent's side of the pipes -----------------------------------

    def _broadcast(self, store) -> Set[int]:
        """Hand ``store``'s group to every child; returns their ranks."""
        self._cursor.reset()
        store.cursor = self._cursor
        message = (store, _obs.is_enabled())
        for rank, conn in enumerate(self._conns, start=1):
            try:
                conn.send(message)
            except OSError:
                raise _PoolDead(f"worker {rank} died before the group started") from None
        return set(range(1, self.workers))

    def _collect(self, live, ends, absorb, durable, timeout) -> None:
        """Absorb what the children in ``live`` sent, waiting up to ``timeout``.

        A chunk goes to ``absorb``; an end-of-group message moves its
        child from ``live`` to ``ends``.  A dead child leaves ``live`` and
        breaks the pool; unless the store is ``durable`` (its caller
        recomputes what the manifest lacks), the chunks it held raise
        :class:`_PoolDead`.
        """
        handles = {}
        for rank in live:
            handles[self._conns[rank - 1]] = handles[self._procs[rank - 1].sentinel] = rank
        ready = wait(list(handles), timeout)
        for rank in {handles[handle] for handle in ready}:
            conn, proc = self._conns[rank - 1], self._procs[rank - 1]
            message = None
            if conn in ready:  # one message per wait; the next call reads on
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    proc.join(timeout=_JOIN_TIMEOUT_S)  # the pipe closes as it exits
            if message is not None:
                kind, body = message
                if kind == "chunk":
                    absorb(body)
                else:
                    ends[rank] = body
                    live.discard(rank)
            elif not proc.is_alive():
                live.discard(rank)
                self._broken = True
                if not durable:
                    raise _PoolDead(f"worker {rank} died with chunks of the group unfinished")

    def _stop(self, ranks) -> None:
        """Send the group's one stop to each child in ``ranks``."""
        for rank in ranks:
            try:
                self._conns[rank - 1].send("stop")
            except OSError:
                pass  # died since; _collect notices


_resident: Optional[WorkerPool] = None  # the process pool (see _process_pool)
_resident_lock = threading.Lock()


@contextmanager
def _process_pool(workers: int) -> Iterator[WorkerPool]:
    """This process's resident pool of ``workers``, held for one group.

    Forked on first use and kept for the next call; replaced when the
    call asks for another worker count or the pool is no longer
    :attr:`~WorkerPool.usable`.  A forked process starts without one
    (:func:`_forget_process_pool`).
    """
    global _resident
    with _resident_lock:
        if _resident is None or _resident.workers != workers or not _resident.usable:
            if _resident is not None:
                _resident.close()
            _resident = WorkerPool(workers)
        yield _resident


def _close_process_pool() -> None:
    """Close the process pool, if any (at exit, and between tests)."""
    global _resident
    if not _resident_lock.acquire(blocking=False):
        return  # a daemon thread's group at exit: multiprocessing ends its children
    try:
        if _resident is not None:
            _resident.close()
        _resident = None
    finally:
        _resident_lock.release()


def _forget_process_pool() -> None:
    """In a forked child, drop the parent's pool without closing it.

    Its pipes lead to the parent's children, so the child forks its own
    on its first pooled call; taking those children out of
    multiprocessing's list keeps the child's exit from terminating them.
    The child also gets an unheld lock: the thread that held the parent's
    is not in the child to release it.
    """
    global _resident, _resident_lock
    _resident_lock = threading.Lock()
    if _resident is not None:
        for proc in _resident._procs:
            mp.process._children.discard(proc)
        _resident = None


os.register_at_fork(after_in_child=_forget_process_pool)
atexit.register(_close_process_pool)  # runs before multiprocessing's own handler


def run_jobs(
    jobs: Sequence[Any],
    workers: int = 0,
    metrics: Optional[EngineMetrics] = None,
    pool: Optional[WorkerPool] = None,
    progress: Optional[ProgressFn] = None,
) -> List[EngineResult]:
    """Execute a group of jobs through one (shared) runner.

    ``workers=0`` (or 1) runs the claim loop in this process alone;
    ``workers>=2`` computes beside the ``workers - 1`` children of the
    process pool (see :func:`_process_pool`), forked by the first such
    call and reused by the next; pooled calls from two threads run one
    after the other on it.  A caller that owns a pool's lifetime passes
    it via ``pool`` (``workers`` is then ignored).  Per-job results are
    bit-identical across all three paths for fixed job seeds.  All
    returned :class:`EngineResult`\\ s share the same metrics instance.
    ``progress`` is invoked from the parent as chunk results fold in,
    with ``(done_chunks, total_chunks, aggregates)``.
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
            with _process_pool(workers) as resident:
                resident.run_group(jobs, aggregates, metrics, progress)
        else:
            _drive(*_memory_group(jobs, aggregates, metrics, progress), metrics)
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
