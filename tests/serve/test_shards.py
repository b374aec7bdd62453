"""Warm shards: in-order execution, failure survival, batch execution."""

import threading
import time

from repro.obs.collector import Collector
from repro.serve.coalescer import admit, plan_batches
from repro.serve.protocol import errors_result, parse_request, request_to_job
from repro.serve.shards import WorkerShard, execute_entries


def test_shard_executes_in_order_and_counts():
    collector = Collector()
    shard = WorkerShard(0, collector)
    seen = []
    done = threading.Event()
    for i in range(3):
        shard.submit(lambda i=i: seen.append(i))
    shard.submit(done.set)
    assert done.wait(5)
    assert seen == [0, 1, 2]
    assert collector.counters["shard0.executed"] >= 3
    assert shard.drain(timeout=5)


def test_shard_survives_raising_work():
    collector = Collector()
    shard = WorkerShard(2, collector)

    def boom():
        raise RuntimeError("work failed")

    done = threading.Event()
    shard.submit(boom)
    shard.submit(done.set)
    assert done.wait(5)  # the thread survived the exception
    assert collector.counters["shard2.work_errors"] == 1
    assert shard.drain(timeout=5)


def test_execute_errors_batch_matches_direct_run():
    """One coalesced batch == each job run one-shot, bit for bit."""
    from repro.engine import run_job

    requests = [
        parse_request(
            {"kind": "errors",
             "params": {"width": 32, "window": 8, "samples": 2048},
             "seed": seed}
        )
        for seed in (5, 6)
    ]
    pending = {}
    for i, request in enumerate(requests):
        admit(pending, request, f"w{i}", shards=1)
    (batch,) = plan_batches(list(pending.values()), max_batch=8)
    rows = execute_entries("errors", batch.entries, Collector())
    direct = [errors_result(run_job(request_to_job(r)).aggregate) for r in requests]
    assert rows == direct


def test_execute_measure_tracks_cache_hits(tmp_path):
    request = parse_request(
        {"kind": "measure",
         "params": {"architecture": "scsa1", "width": 24, "window": 4}}
    )
    pending = {}
    admit(pending, request, "w", shards=1)
    (batch,) = plan_batches(list(pending.values()), max_batch=8)
    collector = Collector()
    cache_dir = str(tmp_path / "cache")
    first = execute_entries("measure", batch.entries, collector, cache_dir=cache_dir)
    second = execute_entries("measure", batch.entries, collector, cache_dir=cache_dir)
    assert first[0]["cache_hit"] is False
    assert second[0]["cache_hit"] is True
    assert first[0]["delay"] == second[0]["delay"]
    assert collector.counters["cache_hits"] == 1
    assert collector.counters["cache_misses"] == 1


def test_shard_busy_time_is_recorded():
    collector = Collector()
    shard = WorkerShard(0, collector)
    shard.submit(lambda: time.sleep(0.02))
    assert shard.drain(timeout=5)
    assert collector.timers["shard0.busy"] >= 0.02


def test_execute_sim_digest_is_backend_independent():
    """The sim kind's digest is the cross-backend identity witness."""
    requests = [
        parse_request(
            {"kind": "sim",
             "params": {"architecture": "vlcsa1", "width": 16,
                        "vectors": 200, "backend": backend},
             "seed": 12}
        )
        for backend in ("auto", "vectorized", "reference")
    ]
    collector = Collector()
    rows = []
    for request in requests:
        pending = {}
        admit(pending, request, "w", shards=1)
        (batch,) = plan_batches(list(pending.values()), max_batch=8)
        rows.extend(execute_entries("sim", batch.entries, collector))
    assert rows[0]["digest"] == rows[1]["digest"] == rows[2]["digest"]
    assert rows[0]["vectors"] == 200
    assert collector.counters["sim_requests"] == 3
    assert collector.counters["sim_vectors"] == 600
