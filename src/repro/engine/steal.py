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

``run_checkpointed`` is the manifest store's driver: it restores
completed chunks from the manifest, then runs the engine's one claim loop
(:func:`repro.engine.runner._claim_loop`) over :class:`_ManifestStore`,
itself as worker 0 and, with ``workers >= 2``, beside ``workers - 1``
children of an ephemeral :class:`~repro.engine.runner.WorkerPool`.  The
parent reads the manifest through the same
:class:`~repro.engine.checkpoint.ManifestTail` that restored it and folds
every new record — its own and its children's — into one merged
accumulator, the only per-sample state it holds, so memory stays O(1) in
samples.  A child's pipe message per published chunk wakes a parent with
nothing left to claim, and the parent's stop wakes an idle child, so
nobody sleeps out a poll tick on the completion path.  An interrupted run
(Ctrl-C, SIGTERM, SIGKILL, power loss) resumes to a final aggregate
bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.engine.checkpoint import (
    CheckpointStore,
    ManifestTail,
    TailRecord,
    _atomic_write,
    _unlink_quietly,
    _write_temp,
)
from repro.engine.metrics import EngineMetrics
from repro.engine.runner import ProgressFn, WorkerPool, _drive, _new_stats
from repro.obs.accumulator import StreamingMoments

#: How long a lease from an unreachable owner (another host, or an
#: undecidable pid) stays respected before its chunk is stolen.
DEFAULT_LEASE_TTL = 60.0


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


class _ManifestStore:
    """Completion store of a checkpointed job: leases and a manifest.

    Claims are :class:`StealScheduler` leases; a finished chunk is
    appended to the manifest and published as its index.  Pickles as the
    job and its manifest tail, so a pool child starts from the records
    the parent restored instead of re-reading them.
    """

    durable = True

    def __init__(self, job: Any, tail: ManifestTail,
                 on_record: Optional[Callable[[TailRecord], None]] = None):
        self.job, self.tail = job, tail
        self.specs = job.chunk_specs()
        self.scheduler = StealScheduler(tail.store, len(self.specs), tail=tail,
                                        on_record=on_record)

    def __reduce__(self):
        return _ManifestStore, (self.job, self.tail)

    def claim(self) -> Optional[int]:
        return self.scheduler.claim()

    def finished(self) -> bool:
        return self.scheduler.pending() == 0

    def compute(self, index: int) -> Dict[str, Any]:
        return self.job.run_chunk(self.specs[index]).to_payload()

    def commit(self, index: int, payload: Dict[str, Any]) -> int:
        self.scheduler.complete(index, payload)
        return index

    def release(self, index: int) -> None:
        self.scheduler.release(index)


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
) -> CheckpointResult:
    """Execute ``job`` with durable chunk results under ``directory``.

    Completed chunks found in the manifest are restored instead of
    recomputed; the parent computes the remainder as worker 0, beside
    the ``workers - 1`` children of an ephemeral :class:`WorkerPool` when
    ``workers >= 2`` (forked after the restore, and only when chunks are
    pending).  ``time_budget`` (seconds) and ``max_chunks`` (newly
    computed chunks this run; it keeps the run in-process, so the cap is
    exact) both stop the run early with ``partial=True`` — the directory
    stays resumable, and a later call continues to a final aggregate
    bit-identical to an uninterrupted run.  A failing chunk raises
    :class:`~repro.engine.runner.EngineError` with the directory
    resumable.  ``progress`` is invoked from the parent with ``(done,
    total, [merged_aggregate])``.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if max_chunks is not None and max_chunks < 0:
        raise ValueError(f"max_chunks must be >= 0, got {max_chunks}")
    _require_payload_protocol(job)
    metrics = metrics if metrics is not None else EngineMetrics()
    store = CheckpointStore(directory)
    store.initialize(job)
    deadline = time.monotonic() + time_budget if time_budget is not None else None

    # Restore: stream every durable record into a fresh aggregate.  The
    # same tail then feeds the store, so a resumed and an uninterrupted
    # run share one merge path.
    tail = ManifestTail(store)
    aggregate = job.new_aggregate()
    restore = type(aggregate).from_payload
    with metrics.phase("restore"):
        for record in tail.poll():
            aggregate.merge(restore(record.payload))

    def merge(record: TailRecord) -> None:
        aggregate.merge(restore(record.payload))
        metrics.add("chunks")

    def report(_published: Optional[int] = None) -> None:
        # Also every published chunk's absorb: the record is merged already
        # (the parent's own) or by the next claim's manifest refresh.
        if progress is not None:
            progress(len(tail.seen), total, [aggregate])

    manifest = _ManifestStore(job, tail, on_record=merge)
    total, resumed = len(manifest.specs), len(tail.seen)
    metrics.add("chunks_resumed", resumed)
    pending = resumed < total and (max_chunks is None or max_chunks > 0)
    pooled = pending and workers >= 2 and max_chunks is None
    metrics.add("workers", workers if pooled else 0)
    report()
    moments = _new_stats()
    with metrics.phase("simulate"):
        if pooled:
            with WorkerPool(workers) as pool:
                moments = pool._run(manifest, report, metrics, deadline)
        elif pending:
            moments = _drive(manifest, report, metrics, deadline=deadline, budget=max_chunks)
        if pending:
            report()

    stats = store.read_stats()
    for key, value in moments.items():  # the cumulative stats across runs
        stats.setdefault(key, StreamingMoments()).merge(value)
    store.write_stats(stats)
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
