"""Checkpoint-store tests: durability, corruption tolerance, dedup.

The store's contract is that *any* on-disk damage short of losing valid
manifest records degrades to recomputation, never to wrong statistics:
truncated manifest lines are skipped, records whose payload no longer
hashes to their digest are ignored and recomputed, and duplicate chunk
records (two invocations sharing a directory) deduplicate first-wins.
"""

import json

import pytest

from repro.engine.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    CheckpointMismatch,
    CheckpointStore,
    ManifestTail,
    canonical_json,
    chunk_digest,
    job_digest,
)
from repro.engine.jobs import MonteCarloErrorJob
from repro.obs.accumulator import StreamingMoments


def _job(samples=2048, chunk=512, **kw):
    return MonteCarloErrorJob(
        width=16, window=4, samples=samples, chunk_size=chunk, **kw
    )


def _payload(i):
    return {"samples": 512, "scsa1_errors": i, "vlcsa1_nominal": 2 * i}


def _record(index, payload, digest=None):
    """One manifest line as ``append`` writes it."""
    digest = chunk_digest(index, payload) if digest is None else digest
    body = {"chunk": index, "digest": digest, "payload": payload}
    return canonical_json(body) + "\n"


# -- header ---------------------------------------------------------------


def test_initialize_writes_header(tmp_path):
    job = _job()
    store = CheckpointStore(tmp_path / "ckpt")
    header = store.initialize(job)
    assert header["total_chunks"] == 4
    assert header["total_samples"] == 2048
    assert header["job_digest"] == job_digest(job)
    # Idempotent for the same job.
    assert store.initialize(job)["job_digest"] == header["job_digest"]
    assert store.header() == header


def test_initialize_refuses_foreign_directory(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    store.initialize(_job(seed=1))
    with pytest.raises(CheckpointMismatch):
        store.initialize(_job(seed=2))


def test_initialize_refuses_records_without_a_header(tmp_path):
    """A corrupt or missing job.json must not let another job adopt the
    records: their random streams belong to whatever job wrote them."""
    store = CheckpointStore(tmp_path / "ckpt")
    store.initialize(_job(samples=2048))
    store.append(0, _payload(0))
    (store.directory / "job.json").write_text("garbage\n")
    with pytest.raises(CheckpointError, match="missing or unreadable"):
        store.initialize(_job(samples=4096))
    (store.directory / "job.json").unlink()
    with pytest.raises(CheckpointError, match="missing or unreadable"):
        store.initialize(_job(samples=2048))


def test_initialize_accepts_a_headerless_empty_directory(tmp_path):
    """A run killed before its header landed left nothing to protect."""
    store = CheckpointStore(tmp_path / "ckpt")
    store.directory.mkdir()
    store.manifest_path.write_bytes(b"")
    assert store.initialize(_job())["schema"] == CHECKPOINT_SCHEMA


def test_initialize_names_both_schemas_for_an_old_directory(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    store.initialize(_job())
    header = json.loads((store.directory / "job.json").read_text())
    header["schema"] = 1
    (store.directory / "job.json").write_text(json.dumps(header))
    (store.directory / "chunks").mkdir()
    with pytest.raises(CheckpointError) as excinfo:
        store.initialize(_job())
    assert not isinstance(excinfo.value, CheckpointMismatch)
    message = str(excinfo.value)
    assert "schema 1" in message and f"schema {CHECKPOINT_SCHEMA}" in message


def test_job_digest_separates_jobs():
    assert job_digest(_job(seed=1)) != job_digest(_job(seed=2))
    assert job_digest(_job()) == job_digest(_job())


# -- append / read --------------------------------------------------------


def test_append_round_trips(tmp_path):
    store = CheckpointStore(tmp_path)
    store.initialize(_job())
    digest = store.append(0, _payload(0))
    assert digest == chunk_digest(0, _payload(0))
    # The manifest line is the whole record: no other file per chunk.
    assert store.manifest_path.read_text() == _record(0, _payload(0))
    assert list(store.iter_records()) == [(0, _payload(0))]
    assert store.done_indices() == {0}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json", "manifest.jsonl"]


def test_record_under_wrong_index_fails_digest(tmp_path):
    """The digest covers the index: a record moved to another chunk slot
    (a flipped index digit) must not be merged as that chunk."""
    store = CheckpointStore(tmp_path)
    store.initialize(_job())
    digest = store.append(3, _payload(3))
    store.manifest_path.write_text(_record(2, _payload(3), digest))
    assert store.done_indices() == set()


# -- corruption tolerance -------------------------------------------------


def test_truncated_manifest_line_is_skipped(tmp_path):
    store = CheckpointStore(tmp_path)
    store.initialize(_job())
    store.append(0, _payload(0))
    store.append(1, _payload(1))
    # A torn final append: a fragment with no terminating newline.
    with open(store.manifest_path, "a") as handle:
        handle.write('{"chunk": 2, "dig')
    assert store.done_indices() == {0, 1}
    # Unparsable *complete* lines are skipped too.
    with open(store.manifest_path, "a") as handle:
        handle.write("est...\n")  # the torn line, now closed but garbage
        handle.write("not json at all\n")
        handle.write('["wrong", "shape"]\n')
        handle.write('{"chunk": true, "digest": "x"}\n')  # bool is not an index
        handle.write('{"chunk": -1, "digest": "x"}\n')
    assert store.done_indices() == {0, 1}


def test_append_heals_a_torn_tail(tmp_path):
    """A record appended after a predecessor's torn final line must not
    fuse with the fragment — the resumed process's first result would
    otherwise be silently lost (and the run would never converge)."""
    store = CheckpointStore(tmp_path)
    store.initialize(_job())
    store.append(0, _payload(0))
    with open(store.manifest_path, "a") as handle:
        handle.write('{"chunk": 1, "dig')  # SIGKILL mid-append
    store.append(2, _payload(2))
    assert store.done_indices() == {0, 2}
    # The tail reader sees the healed record too.
    tail = ManifestTail(store)
    assert {r.index for r in tail.poll()} == {0, 2}


def test_bit_rot_record_fails_digest_and_is_recomputed(tmp_path):
    store = CheckpointStore(tmp_path)
    store.initialize(_job())
    store.append(0, _payload(0))
    store.append(1, _payload(1))
    data = bytearray(store.manifest_path.read_bytes())
    data[data.index(b'"scsa1_errors":0') + len(b'"scsa1_errors":')] ^= 0x01  # 0 -> 1
    store.manifest_path.write_bytes(bytes(data))
    assert store.done_indices() == {1}  # chunk 0 reads as not-done


def test_tampered_chunk_payload_fails_digest(tmp_path):
    store = CheckpointStore(tmp_path)
    store.initialize(_job())
    digest = store.append(0, _payload(0))
    # Valid JSON of the right shape, but the payload no longer hashes to
    # the record's digest — silently merging it would poison the stats.
    store.manifest_path.write_text(_record(0, _payload(999), digest))
    assert store.done_indices() == set()


def test_duplicate_records_dedupe_first_wins(tmp_path):
    store = CheckpointStore(tmp_path)
    store.initialize(_job())
    store.append(0, _payload(0))
    # A concurrent invocation publishes a *different* payload for the same
    # chunk (cannot happen for pure chunk functions, but the reader must
    # still pick exactly one — the first).
    with open(store.manifest_path, "a") as handle:
        handle.write(_record(0, _payload(7)))
    records = list(store.iter_records())
    assert records == [(0, _payload(0))]
    assert store.done_indices() == {0}


def test_missing_manifest_reads_as_empty(tmp_path):
    store = CheckpointStore(tmp_path / "never-initialized")
    assert list(store.iter_records()) == []
    assert store.done_indices() == set()
    assert store.header() is None


# -- state digest ---------------------------------------------------------


def test_state_digest_is_order_independent(tmp_path):
    a = CheckpointStore(tmp_path / "a")
    b = CheckpointStore(tmp_path / "b")
    for store in (a, b):
        store.initialize(_job())
    for i in (0, 1, 2):
        a.append(i, _payload(i))
    for i in (2, 0, 1):
        b.append(i, _payload(i))
    assert a.state_digest() == b.state_digest()
    # Duplicates do not change the digest.
    b.append(1, _payload(1))
    assert a.state_digest() == b.state_digest()
    # A different chunk set does.
    a.append(3, _payload(3))
    assert a.state_digest() != b.state_digest()


# -- manifest tail --------------------------------------------------------


def test_tail_streams_incrementally(tmp_path):
    store = CheckpointStore(tmp_path)
    store.initialize(_job())
    tail = ManifestTail(store)
    assert tail.poll() == []
    store.append(0, _payload(0))
    first = tail.poll()
    assert [(r.index, r.payload) for r in first] == [(0, _payload(0))]
    assert tail.poll() == []  # nothing new
    store.append(1, _payload(1))
    store.append(0, _payload(0))  # duplicate: already seen
    second = tail.poll()
    assert [(r.index, r.payload) for r in second] == [(1, _payload(1))]
    assert tail.seen == {0, 1}


def test_tail_retries_torn_final_line(tmp_path):
    store = CheckpointStore(tmp_path)
    store.initialize(_job())
    store.append(0, _payload(0))
    line = _record(0, _payload(0))
    # Rewrite the manifest so the only record is torn mid-line.
    store.manifest_path.write_text(line[: len(line) // 2])
    tail = ManifestTail(store)
    assert tail.poll() == []  # incomplete: left in place
    store.manifest_path.write_text(line)  # the append completes
    assert [(r.index, r.payload) for r in tail.poll()] == [(0, _payload(0))]


# -- cumulative stats -----------------------------------------------------


def test_stats_round_trip(tmp_path):
    store = CheckpointStore(tmp_path)
    moments = StreamingMoments()
    moments.record(0.25)
    moments.record(0.75)
    store.write_stats({"chunk_s": moments})
    back = store.read_stats()
    assert back["chunk_s"].to_dict() == moments.to_dict()


def test_corrupt_stats_read_as_empty(tmp_path):
    store = CheckpointStore(tmp_path)
    assert store.read_stats() == {}
    store.stats_path.parent.mkdir(parents=True, exist_ok=True)
    store.stats_path.write_text("{broken")
    assert store.read_stats() == {}
    store.stats_path.write_text(json.dumps({"chunk_s": {"bogus": 1}}))
    assert store.read_stats() == {}  # per-entry tolerance
