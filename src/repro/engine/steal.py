"""Work-stealing execution of checkpointed jobs.

The scheduler state *is* the filesystem, so it composes across process
boundaries for free: workers forked by one ``run_checkpointed`` call,
workers of a second concurrent invocation pointed at the same directory,
and a resumed run after a SIGKILL all coordinate through the same two
structures —

* the **manifest** (see :mod:`repro.engine.checkpoint`): a chunk with a
  verified manifest record is done, forever;
* **lease files** (``leases/<index>``): a worker claims a chunk by
  writing its lease body to a temporary file and hard-linking it into
  place — ``link`` fails when the lease exists, so exactly one creator
  wins, and no reader ever sees a half-written lease.  A lease carries
  ``{pid, host, time}``; it is *stale* (and its chunk stealable) when its
  owner process is dead on this host, or when it is older than the TTL
  (the cross-host/NFS fallback).  An empty lease is one still being
  written by a non-atomic creator: it stays live until its mtime passes
  the TTL.

Stealing is safe because completion is idempotent: a chunk's payload is a
pure function of ``(job, chunk index)``, so two workers racing on a
stolen chunk append duplicate records that the manifest reader
deduplicates first-wins — identical content either way.  That turns the
classic hard problem (exactly-once execution) into at-least-once plus
dedup, with bit-identical results guaranteed by the exact commutative
aggregate algebra.

``run_checkpointed`` is the driver: it restores completed chunks from the
manifest, forks steal-workers for the remainder, and stream-merges
results through a :class:`~repro.engine.checkpoint.ManifestTail` as they
land — the merged accumulator is the only per-sample state the parent
holds, so memory stays O(1) in samples.  The parent and its own workers
also signal each other directly: a worker writes a byte to a wake pipe
per published chunk, and the parent sets a completion event that idle
workers wait on, so nobody sleeps out a poll tick on the completion
path.  An interrupted run (Ctrl-C, SIGTERM, SIGKILL, power loss) resumes
to a final aggregate bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence, Set

from repro.engine.checkpoint import CheckpointStore, ManifestTail, _atomic_write
from repro.engine.metrics import EngineMetrics
from repro.engine.runner import EngineError, _sigterm_interrupts
from repro.netlist import _accel
from repro.obs.accumulator import StreamingMoments

#: How long a lease from an unreachable owner (another host, or an
#: undecidable pid) stays respected before its chunk is stolen.
DEFAULT_LEASE_TTL = 60.0

#: Fallback timeout of the parent's wait.  Its own workers wake it through
#: a pipe; only chunks completed by a foreign invocation sharing the
#: directory surface on this tick.
_POLL_S = 0.05

#: Fallback timeout of an idle worker's wait while every pending chunk is
#: leased elsewhere.  Job completion wakes it at once; only a sibling
#: dying on its lease (stale-lease reclaim) is noticed on this tick.
_IDLE_SLEEP_S = 0.05

_JOIN_TIMEOUT_S = 5.0

#: Callback signature: (done_chunks, total_chunks, merged_aggregates).
ProgressFn = Callable[[int, int, Sequence[Any]], None]


def _wall_time() -> float:
    # Lease timestamps must compare across unrelated processes and
    # survive reboots of neither; monotonic clocks are per-boot, so this
    # is a genuine wall-clock use.
    return time.time()  # det: allow


class StealScheduler:
    """Filesystem-backed chunk claims with orphan reclaim.

    One instance per worker (process *or* thread); instances coordinate
    only through the job directory, never through shared memory.
    """

    def __init__(
        self,
        store: CheckpointStore,
        total: int,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ):
        if total < 0:
            raise ValueError(f"total chunks must be >= 0, got {total}")
        self.store = store
        self.total = total
        self.lease_ttl = lease_ttl
        self._tail = ManifestTail(store)
        self._done: Set[int] = set()
        self._host = os.uname().nodename
        store.leases_dir.mkdir(parents=True, exist_ok=True)

    # -- done tracking ----------------------------------------------------

    def refresh(self) -> None:
        """Fold newly manifested chunks into the local done set."""
        for record in self._tail.poll():
            self._done.add(record.index)

    @property
    def done(self) -> Set[int]:
        """Locally known completed chunks (call :meth:`refresh` first)."""
        return self._done

    def pending(self) -> int:
        """Chunks not yet known complete (after a refresh)."""
        self.refresh()
        return self.total - len(self._done)

    # -- leases -----------------------------------------------------------

    def _lease_path(self, index: int) -> Path:
        return self.store.leases_dir / str(index)

    def _lease_body(self) -> bytes:
        return json.dumps(
            {"pid": os.getpid(), "host": self._host, "time": _wall_time()}
        ).encode("utf-8")

    def _lease_is_stale(self, path: Path) -> bool:
        try:
            raw = path.read_bytes()
            if not raw:  # body not written yet: live until the TTL
                return (_wall_time() - path.stat().st_mtime) > self.lease_ttl
            record = json.loads(raw)
        except (OSError, ValueError):
            return True  # unreadable lease: treat as orphaned
        if not isinstance(record, dict):
            return True
        pid, host, stamp = record.get("pid"), record.get("host"), record.get("time")
        if host == self._host and isinstance(pid, int):
            if pid == os.getpid():
                return False  # our own live lease
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True  # owner died without releasing
            except PermissionError:
                pass  # alive, different user
            except OSError:
                pass
            return False
        if not isinstance(stamp, (int, float)):
            return True
        return (_wall_time() - stamp) > self.lease_ttl

    def try_claim(self, index: int) -> bool:
        """Claim one chunk: atomic lease creation, or takeover of a stale
        lease.  Racing takeovers may double-run a chunk — harmless, the
        manifest dedups."""
        path = self._lease_path(index)
        if not path.exists():  # a held lease needs no doomed temp file
            try:
                self._publish_lease(path)
                return True
            except FileExistsError:
                pass  # another claimer linked it first
            except OSError:
                return False
        if not self._lease_is_stale(path):
            return False
        try:  # takeover: atomically replace the orphaned lease
            _atomic_write(path, self._lease_body())
        except OSError:
            return False
        return True

    def _publish_lease(self, path: Path) -> None:
        """Create ``path`` with a complete lease body in one step; raises
        ``FileExistsError`` when another worker holds the lease."""
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(self._lease_body())
            os.link(tmp, path)
        finally:
            os.unlink(tmp)

    def release(self, index: int) -> None:
        """Drop a claim (also called after completion; errors ignored)."""
        try:
            os.unlink(self._lease_path(index))
        except OSError:
            pass

    # -- the claim loop ---------------------------------------------------

    def claim(self) -> Optional[int]:
        """The next chunk this worker should run, or None when every
        pending chunk is done or freshly leased elsewhere.

        Scans in index order so co-operating workers contend only at the
        frontier; stale leases encountered on the way are stolen.
        """
        self.refresh()
        for index in range(self.total):
            if index in self._done:
                continue
            if self.try_claim(index):
                # Late dedup: the chunk may have completed (and released)
                # between our refresh and the claim.
                self.refresh()
                if index in self._done:
                    self.release(index)
                    continue
                return index
        return None

    def complete(self, index: int, payload: Dict[str, Any]) -> None:
        """Publish a chunk result and drop its lease."""
        self.store.append(index, payload)
        self._done.add(index)
        self.release(index)


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _steal_worker_main(
    job: Any,
    directory: str,
    rank: int,
    lease_ttl: float,
    deadline: Optional[float],
    parent_pid: int,
    wake_fd: int,
    stop: Any,
) -> None:
    """One steal-worker: claim, compute, publish, repeat.

    Every published chunk writes one byte to ``wake_fd`` so the parent
    merges it at once.  Exits when the job is complete (or the parent
    sets ``stop``), the time budget lapses, or the parent disappears (a
    SIGKILLed parent must not leave computing orphans).  Per-run timing
    moments are dropped in ``stats/`` for the parent to fold into the
    cumulative ``stats.json``.
    """
    store = CheckpointStore(directory)
    specs = job.chunk_specs()
    scheduler = StealScheduler(store, total=len(specs), lease_ttl=lease_ttl)
    chunk_s = StreamingMoments()
    checkpoint_s = StreamingMoments()
    status = 0
    try:
        while not stop.is_set():
            if os.getppid() != parent_pid:
                break  # orphaned: the parent was killed out from under us
            if deadline is not None and time.monotonic() >= deadline:
                break
            index = scheduler.claim()
            if index is None:
                if scheduler.pending() == 0:
                    break
                stop.wait(_IDLE_SLEEP_S)  # all pending chunks leased: wait
                continue
            try:
                start = time.perf_counter()
                aggregate = job.run_chunk(specs[index])
                computed = time.perf_counter()
                scheduler.complete(index, aggregate.to_payload())
                published = time.perf_counter()
            except BaseException:
                scheduler.release(index)
                traceback.print_exc(file=sys.stderr)
                status = 1
                break
            _wake(wake_fd)
            chunk_s.record(computed - start)
            checkpoint_s.record(published - computed)
    finally:
        _write_worker_stats(store, rank, chunk_s, checkpoint_s)
    if status:
        sys.exit(status)


def _wake(fd: int) -> None:
    """Nudge the parent's wait.  The pipe is non-blocking: when it is
    full the parent has unread wake-ups already, and when the parent is
    gone nobody is listening."""
    try:
        os.write(fd, b"\x01")
    except OSError:
        pass


def _write_worker_stats(
    store: CheckpointStore,
    rank: int,
    chunk_s: StreamingMoments,
    checkpoint_s: StreamingMoments,
) -> None:
    if chunk_s.count == 0 and checkpoint_s.count == 0:
        return
    payload = {"chunk_s": chunk_s.to_dict(), "checkpoint_s": checkpoint_s.to_dict()}
    try:
        _atomic_write(
            store.directory / "stats" / f"w{rank}-{os.getpid()}.json",
            json.dumps(payload, sort_keys=True).encode("utf-8"),
        )
    except OSError:
        pass  # telemetry is best-effort


# ---------------------------------------------------------------------------
# The checkpointed driver
# ---------------------------------------------------------------------------


@dataclass
class CheckpointResult:
    """What a checkpointed run returns (plus the durable state it left)."""

    job: Any
    aggregate: Any
    metrics: EngineMetrics
    total_chunks: int
    done_chunks: int
    resumed_chunks: int
    state_digest: str
    partial: bool
    stats: Dict[str, StreamingMoments] = field(default_factory=dict)

    @property
    def checkpoint_overhead(self) -> Optional[float]:
        """Fraction of worker time spent publishing checkpoints."""
        chunk = self.stats.get("chunk_s")
        ckpt = self.stats.get("checkpoint_s")
        if chunk is None or ckpt is None or not chunk.count:
            return None
        busy = chunk.total + ckpt.total
        return (ckpt.total / busy) if busy > 0 else None

    def to_dict(self) -> dict:
        """JSON-ready summary (for CLI reports and serve responses)."""
        out = {
            "total_chunks": self.total_chunks,
            "done_chunks": self.done_chunks,
            "resumed_chunks": self.resumed_chunks,
            "state_digest": self.state_digest,
            "partial": self.partial,
            "checkpoint_overhead": self.checkpoint_overhead,
        }
        chunk = self.stats.get("chunk_s")
        if chunk is not None and chunk.count:
            out["chunk_seconds"] = chunk.to_dict()
        return out


def _require_payload_protocol(job: Any) -> None:
    aggregate = job.new_aggregate()
    if not (hasattr(aggregate, "to_payload") and hasattr(type(aggregate), "from_payload")):
        raise TypeError(
            f"{type(job).__qualname__} aggregates ({type(aggregate).__qualname__}) "
            f"do not implement to_payload/from_payload; checkpointing supports "
            f"jobs with payload-codec aggregates only"
        )


def run_checkpointed(
    job: Any,
    directory: os.PathLike,
    workers: int = 0,
    metrics: Optional[EngineMetrics] = None,
    progress: Optional[ProgressFn] = None,
    time_budget: Optional[float] = None,
    max_chunks: Optional[int] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
) -> CheckpointResult:
    """Execute ``job`` with durable chunk results under ``directory``.

    Completed chunks found in the manifest are restored instead of
    recomputed; the remainder runs serially (``workers`` 0/1) or on
    ``workers`` forked steal-workers.  ``time_budget`` (seconds) and
    ``max_chunks`` (newly computed chunks this run) both stop the run
    early with ``partial=True`` — the directory stays resumable, and a
    later call continues to a final aggregate bit-identical to an
    uninterrupted run.  ``progress`` is invoked from the parent's merge
    loop with ``(done, total, [merged_aggregate])``.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if max_chunks is not None and max_chunks < 0:
        raise ValueError(f"max_chunks must be >= 0, got {max_chunks}")
    _require_payload_protocol(job)
    metrics = metrics if metrics is not None else EngineMetrics()
    store = CheckpointStore(directory)
    store.initialize(job)
    specs = job.chunk_specs()
    total = len(specs)
    deadline = time.monotonic() + time_budget if time_budget is not None else None

    # Restore: stream every durable record into a fresh aggregate.  The
    # exact same tail keeps streaming newly computed records below, so a
    # resumed and an uninterrupted run share one merge path.
    tail = ManifestTail(store)
    aggregate = job.new_aggregate()
    restore = type(aggregate).from_payload
    resumed = 0
    with metrics.phase("restore"):
        for record in tail.poll():
            aggregate.merge(restore(record.payload))
            resumed += 1
    done = resumed
    metrics.add("chunks_resumed", resumed)
    metrics.add("workers", workers if workers >= 2 and done < total else 0)
    if progress is not None:
        progress(done, total, [aggregate])

    budget = None if max_chunks is None else max_chunks
    with metrics.phase("simulate"), _sigterm_interrupts():
        if done < total and (budget is None or budget > 0):
            if workers >= 2:
                done = _run_pooled(
                    job, store, tail, aggregate, metrics, progress,
                    workers, total, done, deadline, budget, lease_ttl,
                )
            else:
                done = _run_serial(
                    job, specs, store, tail, aggregate, metrics, progress,
                    total, done, deadline, budget, lease_ttl,
                )

    stats = _fold_stats(store)
    samples = getattr(aggregate, "samples", None)
    if isinstance(samples, int) and samples:
        metrics.add("samples", samples)
    return CheckpointResult(
        job=job,
        aggregate=aggregate,
        metrics=metrics,
        total_chunks=total,
        done_chunks=done,
        resumed_chunks=resumed,
        state_digest=store.state_digest(),
        partial=done < total,
        stats=stats,
    )


def _drain_tail(tail, aggregate, restore, metrics, done: int) -> int:
    for record in tail.poll():
        aggregate.merge(restore(record.payload))
        metrics.add("chunks")
        done += 1
    return done


def _run_serial(
    job, specs, store, tail, aggregate, metrics, progress,
    total, done, deadline, budget, lease_ttl,
) -> int:
    """In-process execution; claims through the scheduler, so concurrent
    invocations on the same directory co-operate instead of duplicating."""
    scheduler = StealScheduler(store, total=total, lease_ttl=lease_ttl)
    restore = type(aggregate).from_payload
    chunk_s = StreamingMoments()
    checkpoint_s = StreamingMoments()
    computed = 0
    try:
        while done < total:
            if deadline is not None and time.monotonic() >= deadline:
                break
            if budget is not None and computed >= budget:
                break
            index = scheduler.claim()
            if index is None:
                done = _drain_tail(tail, aggregate, restore, metrics, done)
                if progress is not None:
                    progress(done, total, [aggregate])
                if done >= total:
                    break
                time.sleep(_IDLE_SLEEP_S)  # another process holds the rest
                continue
            start = time.perf_counter()
            partial = job.run_chunk(specs[index])
            mid = time.perf_counter()
            try:
                scheduler.complete(index, partial.to_payload())
            except BaseException:
                scheduler.release(index)
                raise
            chunk_s.record(mid - start)
            checkpoint_s.record(time.perf_counter() - mid)
            computed += 1
            done = _drain_tail(tail, aggregate, restore, metrics, done)
            if progress is not None:
                progress(done, total, [aggregate])
    finally:
        _write_worker_stats(store, 0, chunk_s, checkpoint_s)
    return done


def _run_pooled(
    job, store, tail, aggregate, metrics, progress,
    workers, total, done, deadline, budget, lease_ttl,
) -> int:
    """Forked steal-workers; the parent only merges the manifest stream."""
    methods = mp.get_all_start_methods()
    if "fork" not in methods:  # pragma: no cover - non-POSIX fallback
        return _run_serial(
            job, job.chunk_specs(), store, tail, aggregate, metrics, progress,
            total, done, deadline, budget, lease_ttl,
        )
    if budget is not None:
        # A chunk cap is a debugging/test knob; enforce it exactly by
        # running serially (workers race the cap non-deterministically).
        return _run_serial(
            job, job.chunk_specs(), store, tail, aggregate, metrics, progress,
            total, done, deadline, budget, lease_ttl,
        )
    ctx = mp.get_context("fork")
    _accel.load()  # open the C library once here; the workers inherit it
    restore = type(aggregate).from_payload
    stop = ctx.Event()
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_r, False)
    os.set_blocking(wake_w, False)
    procs = [
        ctx.Process(
            target=_steal_worker_main,
            args=(job, str(store.directory), rank, lease_ttl, deadline, os.getpid(),
                  wake_w, stop),
            daemon=True,
        )
        for rank in range(workers)
    ]
    try:
        try:
            for proc in procs:
                proc.start()
        finally:
            os.close(wake_w)  # the workers hold the only write ends now
        done = _merge_until_done(
            procs, wake_r, tail, aggregate, restore, metrics, progress,
            total, done, deadline,
        )
    except BaseException:
        stop.set()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        raise
    finally:
        stop.set()  # idle workers leave their wait now, not on its timeout
        os.close(wake_r)
        _reap(procs)
    if progress is not None:
        progress(done, total, [aggregate])
    return done


def _merge_until_done(
    procs, wake_r, tail, aggregate, restore, metrics, progress,
    total, done, deadline,
) -> int:
    """Fold worker results into ``aggregate`` as they land.

    The parent sleeps in one ``wait`` on the wake pipe and the sentinels
    of its live workers: a published chunk or a worker exit wakes it
    immediately; the ``_POLL_S`` timeout only catches chunks completed
    by foreign invocations sharing the directory.
    """
    while True:
        done = _drain_tail(tail, aggregate, restore, metrics, done)
        if progress is not None:
            progress(done, total, [aggregate])
        if done >= total:
            return done
        live = [proc for proc in procs if proc.is_alive()]
        if not live:
            done = _drain_tail(tail, aggregate, restore, metrics, done)
            if done >= total:
                return done
            if deadline is not None and time.monotonic() >= deadline:
                return done  # budget lapsed: a clean partial stop
            failed = [proc.exitcode for proc in procs if proc.exitcode]
            raise EngineError(
                f"checkpoint workers exited with {total - done} chunk(s) "
                f"unfinished (exit codes {failed or 'clean'}); the job "
                f"directory is resumable"
            )
        wait([wake_r] + [proc.sentinel for proc in live], timeout=_POLL_S)
        _drain_pipe(wake_r)


def _drain_pipe(fd: int) -> None:
    """Consume every pending wake-up byte (the manifest says what landed)."""
    try:
        while os.read(fd, 4096):
            pass
    except BlockingIOError:
        pass


def _reap(procs) -> None:
    """Join every worker (terminating stragglers) and free its sentinel."""
    for proc in procs:
        if proc.pid is None:
            continue  # never started
        proc.join(timeout=_JOIN_TIMEOUT_S)
        if proc.is_alive():  # pragma: no cover - defensive
            proc.terminate()
            proc.join(timeout=_JOIN_TIMEOUT_S)
        if not proc.is_alive():
            proc.close()


def _fold_stats(store: CheckpointStore) -> Dict[str, StreamingMoments]:
    """Merge per-run worker stat drops into the cumulative ``stats.json``."""
    stats = store.read_stats()
    stats.setdefault("chunk_s", StreamingMoments())
    stats.setdefault("checkpoint_s", StreamingMoments())
    drops = store.directory / "stats"
    try:
        names = sorted(os.listdir(drops))
    except OSError:
        names = []
    for name in names:
        path = drops / name
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            payload = None
        if isinstance(payload, dict):
            for key in ("chunk_s", "checkpoint_s"):
                value = payload.get(key)
                if isinstance(value, dict):
                    try:
                        stats[key].merge(StreamingMoments.from_dict(value))
                    except (KeyError, TypeError, ValueError):
                        pass
        try:
            os.unlink(path)
        except OSError:
            pass
    store.write_stats(stats)
    return stats
