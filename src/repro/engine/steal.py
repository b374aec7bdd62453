"""Work-stealing execution of checkpointed jobs.

The scheduler state *is* the filesystem, so it composes across process
boundaries for free: the parent and the workers it forks in one
``run_checkpointed`` call, workers of a second concurrent invocation
pointed at the same directory, and a resumed run after a SIGKILL all
coordinate through the same two structures —

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
manifest, then runs the one claim/compute/publish loop
(:func:`_claim_loop`) itself as steal-worker 0.  With ``workers >= 2`` it
first forks ``workers - 1`` more steal-workers running the same loop.
The parent's scheduler reads the manifest through the same
:class:`~repro.engine.checkpoint.ManifestTail` that restored it and folds
every new record — its own and its workers' — into one merged
accumulator, the only per-sample state it holds, so memory stays O(1) in
samples.  The parent and its workers also signal each other directly: a
worker writes a byte to a wake pipe per published chunk, which wakes a
parent with nothing left to claim, and the parent sets a completion
event that idle workers wait on, so nobody sleeps out a poll tick on the
completion path.  An interrupted run (Ctrl-C, SIGTERM, SIGKILL, power
loss) resumes to a final aggregate bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence

from repro.engine.checkpoint import (
    CheckpointStore,
    ManifestTail,
    TailRecord,
    _atomic_write,
    _unlink_quietly,
    _write_temp,
)
from repro.engine.metrics import EngineMetrics
from repro.engine.runner import EngineError, _sigterm_interrupts
from repro.netlist import _accel
from repro.obs.accumulator import StreamingMoments

#: How long a lease from an unreachable owner (another host, or an
#: undecidable pid) stays respected before its chunk is stolen.
DEFAULT_LEASE_TTL = 60.0

#: Fallback timeout of the parent's wait once every pending chunk is
#: leased elsewhere.  Its own workers wake it through a pipe; only chunks
#: completed by a foreign invocation sharing the directory surface on
#: this tick.
_POLL_S = 0.05

#: Fallback timeout of an idle wait while every pending chunk is leased
#: elsewhere and no forked worker can signal.  Job completion wakes a
#: forked worker at once; only a sibling dying on its lease (stale-lease
#: reclaim) or a foreign claim holder is noticed on this tick.
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
    only through the job directory, never through shared memory.  The
    done set is ``tail``'s seen set; ``on_record`` (if given) receives
    every newly verified record exactly once, whether read off the
    manifest or published through :meth:`complete`.
    """

    def __init__(
        self,
        store: CheckpointStore,
        total: int,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        tail: Optional[ManifestTail] = None,
        on_record: Optional[Callable[[TailRecord], None]] = None,
    ):
        if total < 0:
            raise ValueError(f"total chunks must be >= 0, got {total}")
        self.store = store
        self.total = total
        self.lease_ttl = lease_ttl
        self._tail = tail if tail is not None else ManifestTail(store)
        self._on_record = on_record
        self._host = os.uname().nodename
        store.leases_dir.mkdir(parents=True, exist_ok=True)

    # -- done tracking ----------------------------------------------------

    def refresh(self) -> None:
        """Fold newly manifested chunks into the local done set."""
        for record in self._tail.poll():
            if self._on_record is not None:
                self._on_record(record)

    def pending(self) -> int:
        """Chunks not yet known complete (after a refresh)."""
        self.refresh()
        return self.total - len(self._tail.seen)

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
        tmp = _write_temp(path, self._lease_body())
        try:
            os.link(tmp, path)
        finally:
            os.unlink(tmp)

    def release(self, index: int) -> None:
        """Drop a claim (also called after completion; errors ignored)."""
        _unlink_quietly(self._lease_path(index))

    # -- claims -----------------------------------------------------------

    def claim(self) -> Optional[int]:
        """The next chunk this worker should run, or None when every
        pending chunk is done or freshly leased elsewhere.

        Scans in index order so co-operating workers contend only at the
        frontier; stale leases encountered on the way are stolen.
        """
        self.refresh()
        done = self._tail.seen
        for index in range(self.total):
            if index in done:
                continue
            if self.try_claim(index):
                # Late dedup: the chunk may have completed (and released)
                # between our refresh and the claim.
                self.refresh()
                if index in done:
                    self.release(index)
                    continue
                return index
        return None

    def complete(self, index: int, payload: Dict[str, Any]) -> None:
        """Publish a chunk result and drop its lease."""
        digest = self.store.append(index, payload)
        if self._tail.mark(index, digest) and self._on_record is not None:
            self._on_record(TailRecord(index=index, digest=digest, payload=payload))
        self.release(index)


# ---------------------------------------------------------------------------
# The claim loop, and the forked workers that run it
# ---------------------------------------------------------------------------


def _claim_loop(
    job: Any,
    specs: Sequence[Any],
    scheduler: StealScheduler,
    rank: int,
    keep_going: Callable[[], bool],
    idle: Callable[[], Any],
    published: Callable[[], Any],
    budget: Optional[int] = None,
) -> None:
    """Claim, compute, publish, repeat — every steal-worker's one loop.

    Ends when every chunk is done, ``keep_going`` turns false, or
    ``budget`` chunks were computed; ``idle`` waits while every pending
    chunk is leased elsewhere, and ``published`` runs after each chunk.
    A failing chunk releases its lease before the exception propagates.
    Per-run timing moments are dropped in ``stats/`` for the parent to
    fold into the cumulative ``stats.json``.
    """
    chunk_s = StreamingMoments()
    checkpoint_s = StreamingMoments()
    try:
        while keep_going() and (budget is None or chunk_s.count < budget):
            index = scheduler.claim()
            if index is None:
                if scheduler.pending() == 0:
                    return
                idle()
                continue
            try:
                start = time.perf_counter()
                payload = job.run_chunk(specs[index]).to_payload()
                computed = time.perf_counter()
                scheduler.complete(index, payload)
            except BaseException:
                scheduler.release(index)
                raise
            chunk_s.record(computed - start)
            checkpoint_s.record(time.perf_counter() - computed)
            published()
    finally:
        _write_worker_stats(scheduler.store, rank, chunk_s, checkpoint_s)


def _steal_worker_main(
    job: Any,
    tail: ManifestTail,
    rank: int,
    lease_ttl: float,
    deadline: Optional[float],
    parent_pid: int,
    wake_fd: int,
    stop: Any,
) -> None:
    """A forked steal-worker: :func:`_claim_loop` with a wake-up per chunk.

    Every published chunk writes one byte to ``wake_fd`` so a waiting
    parent merges it at once.  Exits when the job is complete (or the
    parent sets ``stop``), the time budget lapses, or the parent
    disappears (a SIGKILLed parent must not leave computing orphans).
    A failing parent terminates its workers: the SIGTERM handler a worker
    inherits (:func:`repro.engine.runner._sigterm_interrupts`) raises
    :class:`KeyboardInterrupt`, and the worker exits quietly, its lease
    already released by :func:`_claim_loop`.  Any other exception prints
    its traceback.
    """

    def keep_going() -> bool:
        return (
            not stop.is_set()
            and os.getppid() == parent_pid
            and (deadline is None or time.monotonic() < deadline)
        )

    try:
        specs = job.chunk_specs()
        scheduler = StealScheduler(tail.store, len(specs), lease_ttl, tail=tail)
        _claim_loop(
            job, specs, scheduler, rank, keep_going,
            idle=lambda: stop.wait(_IDLE_SLEEP_S),
            published=lambda: _wake(wake_fd),
        )
    except KeyboardInterrupt:
        sys.exit(1)
    except BaseException:
        traceback.print_exc(file=sys.stderr)
        sys.exit(1)


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
    recomputed; the parent computes the remainder as steal-worker 0,
    alongside ``workers - 1`` forked steal-workers when ``workers >= 2``.
    ``time_budget`` (seconds) and ``max_chunks`` (newly computed chunks
    this run; it keeps the run in-process, so the cap is exact) both stop
    the run early with ``partial=True`` — the directory stays resumable,
    and a later call continues to a final aggregate bit-identical to an
    uninterrupted run.  A failure in the parent raises :class:`EngineError`
    with the directory resumable.  ``progress`` is invoked from the parent
    with ``(done, total, [merged_aggregate])``.
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
    # same tail then feeds the scheduler, so a resumed and an
    # uninterrupted run share one merge path.
    tail = ManifestTail(store)
    aggregate = job.new_aggregate()
    restore = type(aggregate).from_payload
    with metrics.phase("restore"):
        for record in tail.poll():
            aggregate.merge(restore(record.payload))
    resumed = len(tail.seen)
    metrics.add("chunks_resumed", resumed)
    metrics.add("workers", workers if workers >= 2 and resumed < total else 0)

    def merge(record: TailRecord) -> None:
        aggregate.merge(restore(record.payload))
        metrics.add("chunks")

    def report() -> None:
        if progress is not None:
            progress(len(tail.seen), total, [aggregate])

    report()
    scheduler = StealScheduler(store, total, lease_ttl, tail=tail, on_record=merge)
    with metrics.phase("simulate"), _sigterm_interrupts():
        if resumed < total and (max_chunks is None or max_chunks > 0):
            _run(job, specs, scheduler, workers, deadline, max_chunks, report)
            report()

    stats = _fold_stats(store)
    samples = getattr(aggregate, "samples", None)
    if isinstance(samples, int) and samples:
        metrics.add("samples", samples)
    done = len(tail.seen)
    return CheckpointResult(
        job=job,
        aggregate=aggregate,
        metrics=metrics,
        total_chunks=total,
        done_chunks=done,
        resumed_chunks=resumed,
        state_digest=tail.state_digest(),
        partial=done < total,
        stats=stats,
    )


def _run(job, specs, scheduler, workers, deadline, budget, report) -> None:
    """The parent as steal-worker 0, after forking ``workers - 1`` more.

    A chunk cap is a debugging/test knob: it keeps the run in-process,
    where the cap is exact (forked workers would race it).
    """
    procs: list = []
    stop = wake_r = wake_w = None
    if workers >= 2 and budget is None and "fork" in mp.get_all_start_methods():
        ctx = mp.get_context("fork")
        _accel.load()  # open the C library once here; the workers inherit it
        stop = ctx.Event()
        wake_r, wake_w = os.pipe()
        os.set_blocking(wake_r, False)
        os.set_blocking(wake_w, False)
        # The workers inherit the parent's tail, so none re-reads the
        # records restored before the fork.
        procs = [
            ctx.Process(
                target=_steal_worker_main,
                args=(job, scheduler._tail, rank, scheduler.lease_ttl, deadline,
                      os.getpid(), wake_w, stop),
                daemon=True,
            )
            for rank in range(1, workers)
        ]

    def idle() -> None:
        # A worker's publish or exit wakes this wait at once; reaping the
        # dead here (is_alive) also makes their leases stealable.
        live = [proc.sentinel for proc in procs if proc.is_alive()]
        if live:
            wait([wake_r] + live, timeout=_POLL_S)
            _drain_pipe(wake_r)
        else:
            time.sleep(_IDLE_SLEEP_S)  # another process holds the rest
        scheduler.refresh()
        report()

    try:
        if procs:
            try:
                for proc in procs:
                    proc.start()
            finally:
                os.close(wake_w)  # the workers hold the only write ends now
        _claim_loop(
            job, specs, scheduler, 0,
            keep_going=lambda: deadline is None or time.monotonic() < deadline,
            idle=idle, published=report, budget=budget,
        )
    except BaseException as exc:
        for proc in procs:  # the parent is failing: stop the workers at once
            stop.set()
            if proc.is_alive():
                proc.terminate()
        if not isinstance(exc, Exception):
            raise  # KeyboardInterrupt (or a translated SIGTERM) as it came
        raise EngineError(
            f"checkpointed run stopped on {type(exc).__name__}: {exc}; the job "
            f"directory is resumable"
        ) from exc
    finally:
        if procs:
            stop.set()  # idle workers leave their wait now, not on its timeout
            _reap(procs)
            os.close(wake_r)
        scheduler.refresh()  # what the workers published before they left


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
