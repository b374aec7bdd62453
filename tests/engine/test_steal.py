"""Checkpointed runner tests.

The load-bearing claims: a checkpointed run is bit-identical to a plain
``run_jobs`` pass, a killed-and-resumed run is bit-identical to an
uninterrupted one (including a real SIGKILL of a pooled subprocess), the
parent computes the chunk of a child that died instead of leaving the
run partial, each chunk of a pooled run is computed once, and a pooled
run completes on its pipes' wake-ups, streaming progress as chunks land.
"""

import json
import multiprocessing as mp
import multiprocessing.context
import os
import pickle
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineMetrics, runner
from repro.engine.checkpoint import CheckpointMismatch, CheckpointStore, ManifestTail
from repro.engine.jobs import MonteCarloErrorJob
from repro.engine.runner import EngineError, run_job
from repro.engine.steal import _ManifestStore, run_checkpointed

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork start method"
)


def _job(samples=4096, chunk=512, **kw):
    return MonteCarloErrorJob(
        width=16, window=4, samples=samples, chunk_size=chunk, **kw
    )


def _reference(job):
    """The bit-exact answer an uninterrupted one-shot run gives."""
    return run_job(job).aggregate.to_payload()


# -- claims ---------------------------------------------------------------


def _stores(tmp_path, total=4):
    """Two manifest stores of one job sharing a tail and a claim cursor."""
    job = _job(samples=total * 512)
    store = CheckpointStore(tmp_path)
    store.initialize(job)
    tail = ManifestTail(store)
    a, b = _ManifestStore(job, tail), _ManifestStore(job, tail)
    b.cursor = a.cursor
    return a, b


def test_claim_is_exclusive(tmp_path):
    a, b = _stores(tmp_path)
    claims = [a.claim(), b.claim(), b.claim(), a.claim()]
    assert sorted(claims) == [0, 1, 2, 3]
    assert a.claim() is None and b.claim() is None


def test_claim_walks_past_done_and_leased(tmp_path):
    a, b = _stores(tmp_path)
    a.commit(0, {"samples": 512})
    assert a.claim() == 1
    assert b.claim() == 2  # 0 done, 1 claimed by a
    a.commit(1, {"samples": 512})
    b.commit(2, {"samples": 512})
    assert b.claim() == 3
    b.commit(3, {"samples": 512})
    assert a.claim() is None
    assert sorted(CheckpointStore(tmp_path).done_indices()) == [0, 1, 2, 3]


def _claim_every_chunk(pickled, cursor, start, results):
    store = pickle.loads(pickled)
    store.cursor = cursor
    start.wait(60)
    results.put(list(iter(store.claim, None)))


@needs_fork
def test_racing_claimers_win_each_chunk_once(tmp_path):
    """More claimers than cores race on one shared cursor, each holding a
    pickled copy of the store as a pool child does; each chunk must have
    exactly one winner, and the restored chunks none."""
    total, claimers = 400, 4
    job = _job(samples=total * 512)
    store = CheckpointStore(tmp_path)
    store.initialize(job)
    for index in (0, 7, 399):
        store.append(index, {"samples": 512})
    tail = ManifestTail(store)
    tail.poll()
    pickled = pickle.dumps(_ManifestStore(job, tail))
    ctx = mp.get_context("fork")
    cursor, start, results = runner._SharedCursor(ctx), ctx.Barrier(claimers), ctx.Queue()
    procs = [
        ctx.Process(target=_claim_every_chunk, args=(pickled, cursor, start, results))
        for _ in range(claimers)
    ]
    for proc in procs:
        proc.start()
    try:
        won = [results.get(timeout=120) for _ in procs]
    finally:
        for proc in procs:
            proc.join(timeout=30)
    assert not any(proc.is_alive() for proc in procs)
    assert sorted(i for chunk in won for i in chunk) == [
        i for i in range(total) if i not in (0, 7, 399)
    ]


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
    """Satellite contract: truncated manifest lines, rotted records and
    duplicate records degrade to recomputation, never to wrong merged
    statistics."""
    job = _job()
    clean = run_checkpointed(job, tmp_path / "clean")

    store = CheckpointStore(tmp_path / "ckpt")
    partial = run_checkpointed(job, store.directory, max_chunks=4)
    assert partial.partial
    lines = store.manifest_path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 4
    # Rot one record's payload (forces recompute of that chunk) ...
    rotted = bytearray(lines[0])
    rotted[rotted.index(b'"samples":512') + len(b'"samples":')] ^= 0x01  # 5 -> 4
    # ... duplicate a healthy record and tear a final append.
    store.manifest_path.write_bytes(
        bytes(rotted) + b"".join(lines[1:]) + lines[1] + b'{"chunk": 99, "dig'
    )

    resumed = run_checkpointed(job, store.directory)
    assert not resumed.partial
    assert resumed.resumed_chunks == 3  # 4 recorded - 1 rotted
    assert resumed.aggregate.to_payload() == clean.aggregate.to_payload()
    assert resumed.state_digest == clean.state_digest


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A completed checkpoint directory and the one-shot answer for it."""
    job = _job(samples=8 * 256, chunk=256)
    directory = tmp_path_factory.mktemp("finished")
    result = run_checkpointed(job, directory)
    return job, directory, result, _reference(job)


_DAMAGE = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(1, 255)),
        st.tuples(st.just("truncate"), st.integers(0, 1 << 20)),
        st.tuples(st.just("duplicate"), st.integers(0, 1 << 20)),
    ),
    max_size=6,
)


def _damage(data: bytes, ops) -> bytes:
    buf = bytearray(data)
    for op in ops:
        if op[0] == "flip" and buf:
            buf[op[1] % len(buf)] ^= op[2]
        elif op[0] == "truncate":
            del buf[op[1] % (len(buf) + 1):]
        elif op[0] == "duplicate":
            lines = bytes(buf).split(b"\n")
            at = op[1] % len(lines)
            lines.insert(at, lines[at])
            buf = bytearray(b"\n".join(lines))
    return bytes(buf)


@settings(max_examples=40, deadline=None)
@given(ops=_DAMAGE)
def test_damaged_manifest_restores_exactly_its_intact_records(finished_run, ops):
    """Byte flips, truncations and duplicated lines anywhere in a manifest:
    the store restores exactly the newline-terminated lines that still
    carry an original record (first one per chunk wins), and a resume
    lands on the one-shot answer bit for bit."""
    job, directory, clean, reference = finished_run
    original = (directory / "manifest.jsonl").read_bytes()
    records = {line: json.loads(line) for line in original.split(b"\n")[:-1]}
    originals = [(r["chunk"], r["digest"], r["payload"]) for r in records.values()]
    damaged = _damage(original, ops)

    expected = {}
    for line in damaged.split(b"\n")[:-1]:  # the last piece has no newline
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if not isinstance(record, dict):
            continue
        key = (record.get("chunk"), record.get("digest"), record.get("payload"))
        if key in originals:
            expected.setdefault(key[0], key[2])

    with tempfile.TemporaryDirectory() as scratch:
        store = CheckpointStore(scratch)
        shutil.copy(directory / "job.json", store.directory / "job.json")
        store.manifest_path.write_bytes(damaged)
        assert list(store.iter_records()) == list(expected.items())

        resumed = run_checkpointed(job, store.directory)
    assert resumed.resumed_chunks == len(expected)
    assert not resumed.partial
    assert resumed.aggregate.to_payload() == reference
    assert resumed.state_digest == clean.state_digest


def test_completed_directory_restores_without_compute(tmp_path):
    job = _job()
    first = run_checkpointed(job, tmp_path / "ckpt")
    again = run_checkpointed(job, tmp_path / "ckpt")
    assert again.resumed_chunks == again.total_chunks
    assert again.aggregate.to_payload() == first.aggregate.to_payload()


def test_magnitude_job_resumes_bit_identically(tmp_path):
    job = MonteCarloErrorJob(width=160, window=9, samples=4096, chunk_size=512,
                             counters=("scsa1", "magnitude"))
    first = run_checkpointed(job, tmp_path / "ckpt", max_chunks=3)
    assert first.partial
    resumed = run_checkpointed(job, tmp_path / "ckpt", workers=2)
    assert resumed.resumed_chunks == 3
    payload = resumed.aggregate.to_payload()
    assert payload == _reference(job)
    assert payload["sum_abs_error"] > 1 << 150


#: A directory the removed ``MonteCarloMagnitudeJob`` (widths <= 63)
#: checkpointed: its ``job.json`` and its two manifest lines, verbatim.
_MAGNITUDE_JOB_JSON = {
    "job_class": "MonteCarloMagnitudeJob",
    "job_digest": "0801ed2bebbb62e7001f05d34808eb463dacfd244e6073bd674b8cd3cde3dec5",
    "job_repr": "MonteCarloMagnitudeJob(width=32, window=8, samples=4000, "
                "distribution='uniform', sigma=None, remainder='lsb', seed=3, "
                "chunk_size=2000)",
    "schema": 2,
    "seed": 3,
    "total_chunks": 2,
    "total_samples": 4000,
}
_MAGNITUDE_MANIFEST = (
    '{"chunk":0,"digest":"04712c9cb2eabc3d07c403c29eaceda6d2e3c5a4ce66ab188b981098bbb192a2",'
    '"payload":{"errors":15,"max_abs_error":4294967296,"samples":2000,'
    '"sum_abs_error":21525626880}}\n'
    '{"chunk":1,"digest":"3b4de67c02b883ec8fb840fce97a4ac331abe43f645cace06e7e16c29373f007",'
    '"payload":{"errors":9,"max_abs_error":4294967296,"samples":2000,'
    '"sum_abs_error":21491810304}}\n'
)


@pytest.mark.parametrize("counters", [("scsa1", "magnitude"), ("scsa1",)])
def test_directory_of_the_removed_magnitude_job_is_refused(tmp_path, counters):
    """Its payloads lack the error job's keys: the header check refuses the
    directory before any record is read."""
    directory = tmp_path / "mag"
    directory.mkdir()
    (directory / "job.json").write_text(json.dumps(_MAGNITUDE_JOB_JSON))
    (directory / "manifest.jsonl").write_text(_MAGNITUDE_MANIFEST)
    job = MonteCarloErrorJob(width=32, window=8, samples=4000, seed=3, chunk_size=2000,
                             counters=counters)
    with pytest.raises(CheckpointMismatch, match="MonteCarloMagnitudeJob"):
        run_checkpointed(job, directory)
    assert len(CheckpointStore(directory).done_indices()) == 2  # left untouched


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


@needs_fork
def test_parent_chunk_failure_stops_workers_without_a_traceback(
    tmp_path, monkeypatch, capfd
):
    """A chunk that fails in the parent ends the run with ``EngineError``;
    the forked worker, terminated while it computes, leaves quietly
    instead of printing its ``KeyboardInterrupt: SIGTERM`` traceback."""
    parent = os.getpid()
    run_chunk = MonteCarloErrorJob.run_chunk

    def parent_fails(self, spec):
        if os.getpid() == parent:
            time.sleep(0.3)  # the worker is inside its claim loop by now
            raise RuntimeError("injected parent chunk failure")
        time.sleep(0.05)
        return run_chunk(self, spec)

    monkeypatch.setattr(MonteCarloErrorJob, "run_chunk", parent_fails)
    with pytest.raises(EngineError, match="resumable"):
        run_checkpointed(_job(), tmp_path / "ckpt", workers=2)
    assert "Traceback" not in capfd.readouterr().err


# -- the event-driven pooled path -----------------------------------------


@needs_fork
def test_pooled_completion_does_not_ride_a_timeout(tmp_path, monkeypatch):
    """A child's published chunk wakes the parent and the parent's stop
    ends the child's group, both over the child's pipe, so the run takes
    no timeout.  The join timeout is raised, or it would cut a stuck
    child short."""
    monkeypatch.setattr(runner, "_JOIN_TIMEOUT_S", 30.0)
    run_chunk = MonteCarloErrorJob.run_chunk

    def slow_chunk(self, spec):
        time.sleep(0.02)  # chunks land well apart, while workers still run
        return run_chunk(self, spec)

    monkeypatch.setattr(MonteCarloErrorJob, "run_chunk", slow_chunk)
    job = _job()
    seen = []
    start = time.monotonic()
    result = run_checkpointed(
        job, tmp_path / "ckpt", workers=2,
        progress=lambda done, total, aggs: seen.append(done),
    )
    assert time.monotonic() - start < 10.0
    assert result.total_chunks == 8 and not result.partial
    assert result.aggregate.to_payload() == _reference(job)
    # The parent merged chunks as they landed, not only once workers exited.
    assert any(0 < done < 8 for done in seen)


@needs_fork
def test_parent_recomputes_the_chunk_of_a_child_that_died(tmp_path, monkeypatch):
    """A forked child dies mid-chunk, so its chunk never reaches the
    manifest; once the pool has ended the parent computes it, and the run
    lands on the one-shot answer, not partial.  The death is injected only
    outside this process, which computes chunks too."""
    job = _job()
    clean = run_checkpointed(job, tmp_path / "clean")
    marker = tmp_path / "died"
    parent = os.getpid()
    run_chunk = MonteCarloErrorJob.run_chunk

    def dies_once(self, spec):
        time.sleep(0.02)  # slow enough that the forked worker claims chunks
        if os.getpid() != parent:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                os._exit(1)
        return run_chunk(self, spec)

    monkeypatch.setattr(MonteCarloErrorJob, "run_chunk", dies_once)
    result = run_checkpointed(job, tmp_path / "ckpt", workers=2)
    assert marker.exists()
    assert not result.partial
    assert result.aggregate.to_payload() == clean.aggregate.to_payload()
    assert result.state_digest == clean.state_digest


@needs_fork
def test_pooled_run_computes_each_chunk_once_and_leaves_no_leases(tmp_path):
    job = _job(samples=8192)
    result = run_checkpointed(job, tmp_path / "ckpt", workers=2)
    assert not result.partial
    assert result.stats["chunk_s"].count == result.total_chunks == 16
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == [
        "job.json", "manifest.jsonl", "stats.json",
    ]


def test_leases_left_by_an_older_run_are_ignored(tmp_path):
    """A ``leases/`` directory from before claims moved into memory: a
    live owner's, a dead owner's and a garbage lease hold nothing back."""
    job = _job()
    clean = run_checkpointed(job, tmp_path / "clean")
    directory = tmp_path / "ckpt"
    run_checkpointed(job, directory, max_chunks=3)
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # a reaped child: a pid guaranteed dead
    leases = directory / "leases"
    leases.mkdir()
    host = os.uname().nodename
    for index, body in ((3, {"pid": os.getpid(), "host": host, "time": time.time()}),
                        (4, {"pid": child.pid, "host": host, "time": time.time()})):
        (leases / str(index)).write_text(json.dumps(body))
    (leases / "5").write_text("not json")
    resumed = run_checkpointed(job, directory, workers=2)
    assert not resumed.partial
    assert resumed.resumed_chunks == 3
    assert resumed.aggregate.to_payload() == clean.aggregate.to_payload()
    assert resumed.state_digest == clean.state_digest


@needs_fork
def test_serial_pooled_and_resumed_runs_agree(tmp_path):
    job = _job(samples=8192)
    serial = run_checkpointed(job, tmp_path / "serial")
    pooled = run_checkpointed(job, tmp_path / "pooled", workers=3)
    run_checkpointed(job, tmp_path / "resumed", max_chunks=5)
    resumed = run_checkpointed(job, tmp_path / "resumed", workers=2)
    assert resumed.resumed_chunks == 5
    runs = (serial, pooled, resumed)
    assert not any(run.partial for run in runs)
    assert {json.dumps(run.aggregate.to_payload(), sort_keys=True) for run in runs} == {
        json.dumps(_reference(job), sort_keys=True)
    }
    assert len({run.state_digest for run in runs}) == 1


@needs_fork
def test_parent_is_steal_worker_zero(tmp_path, monkeypatch):
    """``workers=2`` forks exactly one steal-worker; the parent is the other."""
    starts = []
    start = multiprocessing.context.ForkProcess.start

    def counting_start(self):
        starts.append(self)
        return start(self)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting_start)
    job = _job(samples=8192)
    result = run_checkpointed(job, tmp_path / "ckpt", workers=2)
    assert len(starts) == 1
    assert result.aggregate.to_payload() == _reference(job)


@needs_fork
def test_stats_count_every_computed_chunk(tmp_path):
    """The parent's moments join its child's end-of-group moments:
    ``chunk_s`` counts each chunk computed, across runs of one directory."""
    job = _job(samples=8192)
    first = run_checkpointed(job, tmp_path / "ckpt", max_chunks=3)
    assert first.stats["chunk_s"].count == 3
    result = run_checkpointed(job, tmp_path / "ckpt", workers=2)
    assert result.resumed_chunks == 3
    assert result.stats["chunk_s"].count == result.total_chunks == 16
    assert result.checkpoint_overhead is not None


@needs_fork
def test_pooled_run_ships_worker_details(tmp_path):
    """The forked child sends its chunk count and busy time back with its
    end of group, beside the parent's own as rank 0."""
    metrics = EngineMetrics()
    result = run_checkpointed(_job(samples=8192), tmp_path / "ckpt", workers=2,
                              metrics=metrics)
    assert set(metrics.worker_details) == {0, 1}
    chunks = [d["counters"]["chunks"] for d in metrics.worker_details.values()]
    assert sum(chunks) == result.total_chunks
    assert metrics.timers["chunks"] > 0


@needs_fork
def test_rerun_after_an_interrupted_pooled_run_completes(tmp_path, monkeypatch):
    """Ctrl-C in the parent's own chunk leaves nothing held: a rerun in the
    same process (same pid) computes that chunk and every other one the
    manifest lacks."""
    job = _job()
    parent = os.getpid()
    run_chunk = MonteCarloErrorJob.run_chunk
    calls = []

    def interrupted(self, spec):
        if os.getpid() == parent:
            calls.append(spec.index)
            if len(calls) == 2:
                raise KeyboardInterrupt
        return run_chunk(self, spec)

    monkeypatch.setattr(MonteCarloErrorJob, "run_chunk", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_checkpointed(job, tmp_path / "ckpt", workers=2)
    monkeypatch.setattr(MonteCarloErrorJob, "run_chunk", run_chunk)
    assert len(CheckpointStore(tmp_path / "ckpt").done_indices()) < 8

    result = run_checkpointed(job, tmp_path / "ckpt", workers=2, time_budget=60.0)
    assert not result.partial
    assert result.aggregate.to_payload() == _reference(job)


_CONCURRENT_SCRIPT = """
import json, os, sys, time
from repro.engine import run_checkpointed
from repro.engine.jobs import MonteCarloErrorJob

directory, go = sys.argv[1], sys.argv[2]
job = MonteCarloErrorJob(width=64, window=8, samples=64 * 8192, chunk_size=8192)
open(go + "." + str(os.getpid()), "w").close()
while not os.path.exists(go):
    time.sleep(0.005)
result = run_checkpointed(job, directory, workers=2)
print(json.dumps({"payload": result.aggregate.to_payload(),
                  "digest": result.state_digest, "partial": result.partial}))
"""


@needs_fork
def test_concurrent_pooled_invocations_share_a_directory(tmp_path):
    """Two pooled runs on one directory: each computes the chunks it has
    not seen (at-least-once), and the manifest dedups first-wins."""
    job = MonteCarloErrorJob(width=64, window=8, samples=64 * 8192, chunk_size=8192)
    clean = run_checkpointed(job, tmp_path / "clean")
    directory, go = tmp_path / "shared", tmp_path / "go"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _CONCURRENT_SCRIPT, str(directory), str(go)],
            stdout=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    try:
        deadline = time.monotonic() + 60.0
        while len(list(tmp_path.glob("go.*"))) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        go.touch()
        outputs = [proc.communicate(timeout=120)[0] for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    assert [proc.returncode for proc in procs] == [0, 0]
    for output in outputs:
        report = json.loads(output)
        assert not report["partial"]
        assert report["payload"] == clean.aggregate.to_payload()
        assert report["digest"] == clean.state_digest


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_pooled_runs_leak_no_file_descriptors(tmp_path):
    job = _job(samples=2048)
    run_checkpointed(job, tmp_path / "warm", workers=2)
    before = len(os.listdir("/proc/self/fd"))
    for i in range(50):
        result = run_checkpointed(job, tmp_path / f"ckpt-{i}", workers=2)
        assert not result.partial
    assert len(os.listdir("/proc/self/fd")) == before


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
