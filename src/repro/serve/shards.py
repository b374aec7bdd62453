"""Warm worker shards: persistent executor threads.

A shard is one long-lived worker thread plus its work queue.  Work
routed to it (by the affinity hash) executes serially in arrival order;
because the engine's chunk streams depend only on ``(seed, index)``, the
shard-serial execution is bit-identical to any other schedule.  The
payoff of shard persistence is cache locality: all shard threads share
the process-level :class:`ElaborationCache` (and the compiled-kernel and
measure-function memos underneath), so a repeat design point skips
elaboration entirely — and routing repeats to the *same* shard keeps
them next to their warm state.

The queue is unbounded on purpose: the server's admission cap is the
only bound.  Every queued batch has waiters counted against
``max_pending``, so :meth:`WorkerShard.submit` always succeeds.  Each
shard counts executed batches, failed batches and busy seconds.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs.collector import Collector
from repro.serve import protocol


class WorkerShard:
    """One persistent executor thread running submitted work in order."""

    def __init__(self, index: int, collector: Collector):
        self.index = index
        self._queue: "queue.SimpleQueue[Optional[Callable[[], None]]]" = (
            queue.SimpleQueue()
        )
        self._collector = collector
        self._thread = threading.Thread(
            target=self._run, name=f"serve-shard-{index}", daemon=True
        )
        self._thread.start()

    def submit(self, work: Callable[[], None]) -> None:
        """Enqueue ``work`` behind everything already submitted."""
        self._queue.put(work)

    def _run(self) -> None:
        while True:
            work = self._queue.get()
            if work is None:
                return
            try:
                with self._collector.timer(f"shard{self.index}.busy"):
                    work()
            except BaseException:  # executor thread must survive anything
                self._collector.add(f"shard{self.index}.work_errors")
            finally:
                self._collector.add(f"shard{self.index}.executed")

    def drain(self, timeout: float = 10.0) -> bool:
        """Stop the shard after the queued work finishes; True on clean exit."""
        self._queue.put(None)
        self._thread.join(timeout=timeout)
        return not self._thread.is_alive()


# ---------------------------------------------------------------------------
# Batch execution (runs on a shard thread)
# ---------------------------------------------------------------------------


def execute_entries(
    kind: str,
    entries: Sequence[Any],
    collector: Collector,
    pool: Optional[Any] = None,
    cache_dir: Optional[str] = None,
    job_root: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Evaluate one batch of deduplicated entries; one result dict each.

    ``errors`` entries become one engine job *group* (a single
    ``run_jobs`` submission — the coalescing payoff); ``measure`` entries
    run through the process elaboration cache, whose hit/miss deltas feed
    the service's cache-hit-rate SLO; ``longrun`` entries execute through
    the durable checkpointed runner under ``job_root``, so a shard or
    whole-server restart resumes them from their manifests.
    """
    if kind == "errors":
        return _execute_errors(entries, collector, pool)
    if kind == "measure":
        return _execute_measure(entries, collector, cache_dir)
    if kind == "sim":
        return _execute_sim(entries, collector)
    if kind == "longrun":
        return _execute_longrun(entries, collector, job_root)
    raise ValueError(f"unknown batch kind {kind!r}")


def _execute_errors(entries, collector, pool) -> List[Dict[str, Any]]:
    from repro.engine import EngineMetrics, run_jobs

    jobs = [protocol.request_to_job(entry.request) for entry in entries]
    metrics = EngineMetrics()
    results = run_jobs(jobs, metrics=metrics, pool=pool if pool is not None else None)
    collector.add("engine_jobs", len(jobs))
    collector.add("engine_groups", 1)
    collector.add("mc_samples", metrics.counters.get("samples", 0))
    return [protocol.errors_result(result.aggregate) for result in results]


def _execute_longrun(entries, collector, job_root) -> List[Dict[str, Any]]:
    from repro.engine import EngineMetrics, job_digest, run_checkpointed
    from pathlib import Path

    if job_root is None:
        raise ValueError(
            "longrun requests need a durable job root; start the server "
            "with --job-root DIR"
        )
    rows: List[Dict[str, Any]] = []
    for entry in entries:
        job = protocol.request_to_job(entry.request)
        # The directory name is the job's content digest, so a client
        # re-submitting the identical request — to this server or its
        # restarted successor — lands on the same durable state.
        directory = Path(job_root) / job_digest(job)[:16]
        metrics = EngineMetrics()
        ckpt = run_checkpointed(job, directory, metrics=metrics)
        collector.add("longrun_jobs", 1)
        collector.add("longrun_chunks", ckpt.done_chunks - ckpt.resumed_chunks)
        collector.add("longrun_chunks_resumed", ckpt.resumed_chunks)
        collector.add("mc_samples", metrics.counters.get("samples", 0))
        rows.append(protocol.longrun_result(ckpt))
    return rows


def _execute_measure(entries, collector, cache_dir) -> List[Dict[str, Any]]:
    from repro.engine.cache import process_cache
    from repro.engine.elab import measure_design

    cache = process_cache(cache_dir)
    rows: List[Dict[str, Any]] = []
    for entry in entries:
        params = entry.request.param_dict()
        before = dict(cache.counters())
        metrics = measure_design(
            params["architecture"],
            params["width"],
            params.get("window"),
            cache=cache,
        )
        delta = {
            name: value - before.get(name, 0) for name, value in cache.counters().items()
        }
        hit = bool(delta.get("cache_hits", 0) or delta.get("cache_disk_hits", 0))
        collector.add("cache_hits" if hit else "cache_misses")
        row = protocol.measure_result(metrics)
        row["cache_hit"] = hit
        rows.append(row)
    return rows


def _execute_sim(entries, collector) -> List[Dict[str, Any]]:
    from repro.engine.elab import simulate_design

    rows: List[Dict[str, Any]] = []
    for entry in entries:
        params = entry.request.param_dict()
        row = simulate_design(
            params["architecture"],
            params["width"],
            params.get("window"),
            vectors=params["vectors"],
            seed=entry.request.seed,
            backend=params["backend"],
        )
        collector.add("sim_requests")
        collector.add("sim_vectors", params["vectors"])
        rows.append(row)
    return rows
