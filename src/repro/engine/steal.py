"""Checkpointed execution: claims in memory, completion in the manifest.

A checkpointed run is the engine's one claim loop
(:func:`repro.engine.runner._claim_loop`) over :class:`_ManifestStore`:

* **claims** come off the pool's shared cursor over the work list of
  chunks still pending after the restore, exactly as an in-memory group
  claims (the list is pickled with the store, so every child holds the
  same one); a claim skips any chunk the store's
  :class:`~repro.engine.checkpoint.ManifestTail` has already seen;
* **completion** is one manifest append (see
  :mod:`repro.engine.checkpoint`): a chunk with a verified manifest
  record is done, forever.

``run_checkpointed`` restores completed chunks from the manifest, then
runs the claim loop itself as worker 0 and, with ``workers >= 2``,
beside ``workers - 1`` children of an ephemeral
:class:`~repro.engine.runner.WorkerPool`.  The parent polls the same
tail that restored the job as it folds chunks in, its own and its
children's, into one merged accumulator, the only per-sample state it
holds, so memory stays O(1) in samples and progress streams.  A child
that dies mid-group never records the chunk it held: once the children
have ended, the parent computes every pending chunk still missing from
the manifest, alone, through the same loop.

Nothing holds a claim across processes, so an interrupted run (Ctrl-C,
SIGTERM, SIGKILL, power loss) leaves nothing to release: the manifest
already has every finished chunk, and a resumed run lands on a final
aggregate bit-identical to an uninterrupted one.  Two invocations on one
directory each compute the chunks they have not seen: execution is
at-least-once, and the manifest reader deduplicates first-wins.  Both
are safe because a chunk's payload is a pure function of ``(job, chunk
index)`` and aggregates merge exact integers commutatively.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, Sequence

from repro.engine.checkpoint import CheckpointStore, ManifestTail, TailRecord
from repro.engine.metrics import EngineMetrics
from repro.engine.runner import ProgressFn, WorkerPool, _drive, _new_stats
from repro.obs.accumulator import StreamingMoments


class _ManifestStore:
    """Completion store of a checkpointed job: a work list and a manifest.

    Claims come off ``cursor`` over ``work`` (by default the chunks
    ``tail`` has not seen), one chunk per claim, skipping chunks seen
    since; a pool swaps in its shared cursor.  A finished chunk is
    appended to the manifest, marked seen, handed to ``on_record`` and
    published as its index.  Pickles as the job, its tail and its work
    list, so a pool child starts from the parent's restore.
    """

    durable = True

    def __init__(self, job: Any, tail: ManifestTail,
                 on_record: Optional[Callable[[TailRecord], None]] = None,
                 work: Optional[Sequence[int]] = None):
        self.job, self.tail, self.on_record = job, tail, on_record
        self.specs = job.chunk_specs()
        if work is None:
            work = [i for i in range(len(self.specs)) if i not in tail.seen]
        self.work = work
        self.cursor: Iterator[int] = itertools.count()

    def __reduce__(self):
        return _ManifestStore, (self.job, self.tail, None, self.work)

    def claim(self) -> Optional[int]:
        seen = self.tail.seen
        while True:
            position = next(self.cursor)
            if position >= len(self.work):
                return None
            index = self.work[position]
            if index not in seen:
                return index

    def compute(self, index: int) -> Dict[str, Any]:
        return self.job.run_chunk(self.specs[index]).to_payload()

    def commit(self, index: int, payload: Dict[str, Any]) -> int:
        digest = self.tail.store.append(index, payload)
        if self.tail.mark(index, digest) and self.on_record is not None:
            self.on_record(TailRecord(index=index, digest=digest, payload=payload))
        return index


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
    bit-identical to an uninterrupted run.  A child that dies mid-group
    leaves the parent its chunk: once the pool has ended, the parent
    computes every pending chunk the manifest still lacks.  A failing
    chunk raises :class:`~repro.engine.runner.EngineError` with the
    directory resumable.  ``progress`` is invoked from the parent with
    ``(done, total, [merged_aggregate])``.
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

    def absorb(_published: Optional[int] = None) -> None:
        # Every published chunk: the parent's own is merged at its commit,
        # its children's (and a concurrent invocation's) are read off the
        # manifest here.
        for record in tail.poll():
            merge(record)
        if progress is not None:
            progress(len(tail.seen), total, [aggregate])

    manifest = _ManifestStore(job, tail, on_record=merge)
    total, resumed = len(manifest.specs), len(tail.seen)
    metrics.add("chunks_resumed", resumed)
    pending = resumed < total and (max_chunks is None or max_chunks > 0)
    pooled = pending and workers >= 2 and max_chunks is None
    metrics.add("workers", workers if pooled else 0)
    absorb()
    moments = _new_stats()
    with metrics.phase("simulate"):
        if pooled:
            with WorkerPool(workers) as pool:
                moments = pool._run(manifest, absorb, metrics, deadline)
            absorb()  # a child may die between its append and its message
            # A child that died mid-chunk never recorded it: the parent
            # computes every pending chunk still missing, alone.
            manifest = _ManifestStore(job, tail, on_record=merge)
        if pending and manifest.work:
            swept = _drive(manifest, absorb, metrics, deadline=deadline, budget=max_chunks)
            for key, value in swept.items():
                moments[key].merge(value)

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
