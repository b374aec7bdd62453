"""Work-stealing checkpointed runner tests.

The load-bearing claims: a checkpointed run is bit-identical to a plain
``run_jobs`` pass, a killed-and-resumed run is bit-identical to an
uninterrupted one (including a real SIGKILL of a pooled subprocess), and
stale leases from dead workers are stolen rather than waited on.
"""

import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.engine.checkpoint import CheckpointStore
from repro.engine.jobs import MonteCarloErrorJob
from repro.engine.runner import EngineError, run_job
from repro.engine.steal import StealScheduler, run_checkpointed


def _job(samples=4096, chunk=512, **kw):
    return MonteCarloErrorJob(
        width=16, window=4, samples=samples, chunk_size=chunk, **kw
    )


def _reference(job):
    """The bit-exact answer an uninterrupted one-shot run gives."""
    return run_job(job).aggregate.to_payload()


# -- scheduler ------------------------------------------------------------


def _scheduler(tmp_path, total=4):
    store = CheckpointStore(tmp_path)
    store.initialize(_job(samples=total * 512))
    return StealScheduler(store, total=total)


def test_claim_is_exclusive(tmp_path):
    a = _scheduler(tmp_path)
    b = StealScheduler(a.store, total=a.total)
    assert a.try_claim(0)
    assert not b.try_claim(0)  # fresh lease from a live process holds
    a.release(0)
    assert b.try_claim(0)


def test_claim_walks_past_done_and_leased(tmp_path):
    a = _scheduler(tmp_path)
    b = StealScheduler(a.store, total=a.total)
    a.complete(0, {"samples": 512})
    assert a.claim() == 1
    assert b.claim() == 2  # 0 done, 1 leased by a
    a.complete(1, {"samples": 512})
    b.complete(2, {"samples": 512})
    assert b.claim() == 3
    b.complete(3, {"samples": 512})
    assert a.claim() is None
    assert a.pending() == 0


def test_dead_owner_lease_is_stolen(tmp_path):
    sched = _scheduler(tmp_path)
    # A real pid that is guaranteed dead: a reaped child of ours.
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    lease = sched.store.leases_dir / "0"
    lease.write_text(json.dumps(
        {"pid": child.pid, "host": os.uname().nodename, "time": time.time()}
    ))
    assert sched.try_claim(0)  # takeover, not a wait


def test_foreign_host_lease_respects_ttl(tmp_path):
    sched = _scheduler(tmp_path)
    sched.lease_ttl = 3600.0
    lease = sched.store.leases_dir / "0"
    fresh = {"pid": 1, "host": "another-box", "time": time.time()}
    lease.write_text(json.dumps(fresh))
    assert not sched.try_claim(0)  # unreachable owner, fresh: respected
    stale = dict(fresh, time=time.time() - 7200.0)
    lease.write_text(json.dumps(stale))
    assert sched.try_claim(0)  # past the TTL: stolen


def test_unreadable_lease_is_stolen(tmp_path):
    sched = _scheduler(tmp_path)
    (sched.store.leases_dir / "0").write_text("not json")
    assert sched.try_claim(0)


def test_empty_lease_with_fresh_mtime_is_live(tmp_path):
    """An empty lease is one whose creator has not written its body yet."""
    sched = _scheduler(tmp_path)
    lease = sched.store.leases_dir / "0"
    lease.write_bytes(b"")
    assert not sched._lease_is_stale(lease)
    assert not sched.try_claim(0)


def test_empty_lease_past_ttl_is_stolen(tmp_path):
    sched = _scheduler(tmp_path)
    sched.lease_ttl = 60.0
    lease = sched.store.leases_dir / "0"
    lease.write_bytes(b"")
    old = time.time() - 120.0
    os.utime(lease, (old, old))
    assert sched._lease_is_stale(lease)
    assert sched.try_claim(0)
    assert json.loads(lease.read_bytes())["pid"] == os.getpid()


def test_claimed_lease_is_complete_and_leaves_no_temp_files(tmp_path):
    sched = _scheduler(tmp_path)
    assert sched.try_claim(0)
    assert not sched.try_claim(0)  # our own live lease: link refuses
    record = json.loads((sched.store.leases_dir / "0").read_bytes())
    assert record["pid"] == os.getpid()
    assert sorted(p.name for p in sched.store.leases_dir.iterdir()) == ["0"]


def _claim_every_chunk(directory, total, start, results, done):
    sched = StealScheduler(CheckpointStore(directory), total=total)
    start.wait(60)
    results.put([i for i in range(total) if sched.try_claim(i)])
    done.wait(60)  # stay alive: a dead owner's leases are rightly stealable


def test_racing_claimers_win_each_chunk_once(tmp_path):
    """More claimers than cores race for every lease; each chunk must have
    exactly one winner (a reader that saw a half-written lease used to
    call it orphaned and take it over)."""
    total, claimers = 400, 4
    _scheduler(tmp_path, total=total)
    ctx = mp.get_context("spawn")
    start, done, results = ctx.Barrier(claimers), ctx.Event(), ctx.Queue()
    procs = [
        ctx.Process(
            target=_claim_every_chunk,
            args=(str(tmp_path), total, start, results, done),
        )
        for _ in range(claimers)
    ]
    for proc in procs:
        proc.start()
    try:
        won = [results.get(timeout=120) for _ in procs]
    finally:
        done.set()
        for proc in procs:
            proc.join(timeout=30)
    assert not any(proc.is_alive() for proc in procs)
    assert sorted(i for chunk in won for i in chunk) == list(range(total))


# -- run_checkpointed: bit-identity ---------------------------------------


def test_serial_matches_one_shot(tmp_path):
    job = _job()
    result = run_checkpointed(job, tmp_path / "ckpt")
    assert result.aggregate.to_payload() == _reference(job)
    assert not result.partial
    assert result.done_chunks == result.total_chunks == 8
    assert result.resumed_chunks == 0


def test_pooled_matches_one_shot(tmp_path):
    job = _job(samples=8192)
    result = run_checkpointed(job, tmp_path / "ckpt", workers=3)
    assert result.aggregate.to_payload() == _reference(job)
    assert not result.partial


def test_resume_is_bit_identical(tmp_path):
    job = _job()
    clean = run_checkpointed(job, tmp_path / "clean")

    first = run_checkpointed(job, tmp_path / "ckpt", max_chunks=3)
    assert first.partial
    assert first.done_chunks == 3
    assert first.resumed_chunks == 0

    second = run_checkpointed(job, tmp_path / "ckpt")
    assert not second.partial
    assert second.resumed_chunks == 3
    assert second.aggregate.to_payload() == clean.aggregate.to_payload()
    assert second.state_digest == clean.state_digest


def test_resume_over_corrupted_directory(tmp_path):
    """Satellite contract: truncated manifest lines, garbage chunk files
    and duplicate records degrade to recomputation, never to wrong
    merged statistics."""
    job = _job()
    clean = run_checkpointed(job, tmp_path / "clean")

    store = CheckpointStore(tmp_path / "ckpt")
    partial = run_checkpointed(job, store.directory, max_chunks=4)
    assert partial.partial
    records = list(store.iter_manifest())
    # Garbage one chunk file (forces recompute of that chunk) ...
    (store.chunks_dir / f"{records[0][1]}.json").write_text("bit rot")
    with open(store.manifest_path, "a") as handle:
        # ... duplicate a healthy record and tear a final append.
        handle.write(json.dumps({"chunk": records[1][0], "digest": records[1][1]}) + "\n")
        handle.write('{"chunk": 99, "dig')

    resumed = run_checkpointed(job, store.directory)
    assert not resumed.partial
    assert resumed.resumed_chunks == 3  # 4 recorded - 1 rotted
    assert resumed.aggregate.to_payload() == clean.aggregate.to_payload()
    assert resumed.state_digest == clean.state_digest


def test_completed_directory_restores_without_compute(tmp_path):
    job = _job()
    first = run_checkpointed(job, tmp_path / "ckpt")
    again = run_checkpointed(job, tmp_path / "ckpt")
    assert again.resumed_chunks == again.total_chunks
    assert again.aggregate.to_payload() == first.aggregate.to_payload()


# -- budgets and progress -------------------------------------------------


def test_max_chunks_zero_is_restore_only(tmp_path):
    job = _job()
    run_checkpointed(job, tmp_path / "ckpt", max_chunks=2)
    peek = run_checkpointed(job, tmp_path / "ckpt", max_chunks=0)
    assert peek.partial
    assert peek.done_chunks == peek.resumed_chunks == 2


def test_time_budget_stops_early_but_resumable(tmp_path):
    job = _job(samples=65536, chunk=256)  # 256 chunks: cannot finish in 0 s
    early = run_checkpointed(job, tmp_path / "ckpt", time_budget=0.0)
    assert early.partial
    assert early.done_chunks < early.total_chunks
    done = run_checkpointed(job, tmp_path / "ckpt")
    assert not done.partial
    assert done.aggregate.to_payload() == _reference(job)


def test_progress_callback_streams_done_counts(tmp_path):
    job = _job()
    seen = []
    result = run_checkpointed(
        job, tmp_path / "ckpt",
        progress=lambda done, total, aggs: seen.append((done, total)),
    )
    assert seen[-1] == (result.total_chunks, result.total_chunks)
    counts = [done for done, _ in seen]
    assert counts == sorted(counts)  # monotone non-decreasing
    assert all(total == result.total_chunks for _, total in seen)


def test_checkpoint_overhead_is_measured(tmp_path):
    result = run_checkpointed(_job(), tmp_path / "ckpt")
    overhead = result.checkpoint_overhead
    assert overhead is not None and 0.0 <= overhead < 1.0
    assert result.to_dict()["checkpoint_overhead"] == overhead
    # The cumulative stats survive on disk for the next run to extend.
    stats = CheckpointStore(tmp_path / "ckpt").read_stats()
    assert stats["chunk_s"].count == result.total_chunks


# -- failure modes --------------------------------------------------------


def test_rejects_jobs_without_payload_codec(tmp_path):
    class Opaque:
        def new_aggregate(self):
            return object()

    with pytest.raises(TypeError, match="to_payload"):
        run_checkpointed(Opaque(), tmp_path / "ckpt")


def test_worker_failure_raises_resumable_error(tmp_path, monkeypatch):
    if "fork" not in __import__("multiprocessing").get_all_start_methods():
        pytest.skip("needs fork start method")

    def boom(self, spec):
        raise RuntimeError("injected chunk failure")

    monkeypatch.setattr(MonteCarloErrorJob, "run_chunk", boom)
    with pytest.raises(EngineError, match="resumable"):
        run_checkpointed(_job(), tmp_path / "ckpt", workers=2)


# -- the SIGKILL drill ----------------------------------------------------

_KILL_SCRIPT = """
import sys
from repro.engine import run_checkpointed
from repro.engine.jobs import MonteCarloErrorJob

job = MonteCarloErrorJob(width=16, window=4, samples=1 << 17, chunk_size=256)
run_checkpointed(job, sys.argv[1], workers=2)
"""


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_sigkill_then_resume_is_bit_identical(tmp_path):
    """The acceptance-criterion drill: SIGKILL a pooled run mid-flight
    (workers included, via the process group), resume from the manifest,
    and land on the byte-exact uninterrupted answer."""
    job = MonteCarloErrorJob(width=16, window=4, samples=1 << 17, chunk_size=256)
    total = 512
    clean = run_checkpointed(job, tmp_path / "clean")

    killed_mid_flight = False
    for attempt in range(3):
        directory = tmp_path / f"kill-{attempt}"
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILL_SCRIPT, str(directory)],
            start_new_session=True,  # one process group: parent + workers
        )
        manifest = directory / "manifest.jsonl"
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break  # finished before we could kill: retry
                try:
                    lines = manifest.read_bytes().count(b"\n")
                except OSError:
                    lines = 0
                if lines >= 3:
                    os.killpg(proc.pid, signal.SIGKILL)
                    break
                time.sleep(0.005)
        finally:
            proc.wait()
        done = CheckpointStore(directory).done_indices()
        if 0 < len(done) < total:
            killed_mid_flight = True
            break

    assert killed_mid_flight, "run never caught mid-flight; chunking too fast?"
    resumed = run_checkpointed(job, directory)
    assert resumed.resumed_chunks >= 1
    assert not resumed.partial
    assert resumed.aggregate.to_payload() == clean.aggregate.to_payload()
    assert resumed.state_digest == clean.state_digest
