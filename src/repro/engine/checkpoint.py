"""Checkpoint store: an append-only manifest of self-verifying chunk records.

A *job directory* is the durable state of one huge Monte Carlo job:

```
jobdir/
  job.json          # header: schema, job digest, chunk count, sample budget
  manifest.jsonl    # append-only: one {"chunk", "digest", "payload"} line per result
  leases/<i>        # work-stealing claims (see repro.engine.steal)
  stats.json        # cumulative StreamingMoments telemetry across runs
```

The manifest is the single source of truth: a chunk is *done* iff a
newline-terminated manifest line carries its payload and the digest that
payload hashes to (``chunk_digest(index, payload)``).  Everything else
is recoverable garbage:

* a **torn manifest line** (a process died mid-append, or a short write
  on a full disk) has no newline yet and is skipped; the next append
  starts with a newline, so the fragment becomes its own garbage line;
* a **damaged record** (bit rot, a tampered payload, a line that does
  not parse or has the wrong shape) fails its digest check, so it is
  ignored and the chunk is simply recomputed;
* **duplicate chunk records** (two workers racing on a stolen chunk) are
  deduplicated first-wins — harmless anyway, because a chunk's payload is
  a pure function of ``(job, chunk index)``, so duplicates are identical.

Each record is one ``os.write`` on an ``O_APPEND`` descriptor, so a crash
leaves at most one torn line and no other file to reconcile.  A SIGKILL
at any instant leaves a directory that resumes to a bit-identical final
aggregate, because aggregates merge exact integers associatively and
commutatively.

``state_digest`` reuses the fuzz corpus's order-independent hashing
idiom: a SHA-256 over the *sorted* chunk record digests, so two runs that
completed the same chunk set in different orders (different worker
schedules, interrupt points, steal patterns) report the same state hash.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.obs.accumulator import StreamingMoments

#: Bump when the job header / manifest record layout changes.  Schema 1
#: kept payloads in content-addressed ``chunks/<digest>.json`` files.
CHECKPOINT_SCHEMA = 2

MANIFEST_NAME = "manifest.jsonl"
JOB_NAME = "job.json"
LEASES_DIR = "leases"
STATS_NAME = "stats.json"


class CheckpointError(RuntimeError):
    """The job directory is unusable (not corruption — a real conflict)."""


class CheckpointMismatch(CheckpointError):
    """The directory holds a different job's state; refuse to mix streams."""


def canonical_json(payload: Any) -> str:
    """The one serialization chunk digests are computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def chunk_digest(index: int, payload: Dict[str, Any]) -> str:
    """Content address of one chunk result."""
    body = canonical_json({"chunk": index, "payload": payload})
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def job_digest(job: Any) -> str:
    """Content hash of a job's full identity (class + frozen field repr).

    Two jobs with equal digests decompose into the same chunk list with
    the same per-chunk random streams, so their checkpoint directories
    are interchangeable; anything else must not share a directory.
    """
    canon = repr((CHECKPOINT_SCHEMA, type(job).__qualname__, job))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def state_digest(digests: Iterable[str]) -> str:
    """Order-independent hash of a completed-chunk set's record digests."""
    h = hashlib.sha256()
    for digest in sorted(digests):
        h.update(digest.encode())
    return h.hexdigest()


def _write_temp(path: Path, data: bytes) -> Path:
    """Write ``data`` to a temporary file beside ``path``, named by this
    process and thread so concurrent writers never share one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    except BaseException:
        _unlink_quietly(tmp)
        raise
    finally:
        os.close(fd)
    return tmp


def _unlink_quietly(path: Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _write_temp(path, data)
    try:
        os.replace(tmp, path)
    except BaseException:
        _unlink_quietly(tmp)
        raise


class CheckpointStore:
    """One job directory: header, manifest of chunk records, leases."""

    def __init__(self, directory: os.PathLike):
        self.directory = Path(directory)
        self.manifest_path = self.directory / MANIFEST_NAME
        self.leases_dir = self.directory / LEASES_DIR
        self.stats_path = self.directory / STATS_NAME

    # -- header -----------------------------------------------------------

    def header(self) -> Optional[dict]:
        """The persisted job header, or None when missing or corrupt."""
        try:
            payload = json.loads((self.directory / JOB_NAME).read_text())
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def initialize(self, job: Any) -> dict:
        """Create (or validate) the directory for ``job``; returns the header.

        Raises :class:`CheckpointError` when the directory was written by
        another checkpoint schema, or holds records but no readable
        header, and :class:`CheckpointMismatch` when it belongs to a
        different job — resuming someone else's manifest would silently
        merge unrelated random streams.
        """
        digest = job_digest(job)
        existing = self.header()
        if existing is not None:
            schema = existing.get("schema")
            if schema != CHECKPOINT_SCHEMA:
                raise CheckpointError(
                    f"checkpoint directory {self.directory} was written with "
                    f"checkpoint schema {schema!r}; this version reads schema "
                    f"{CHECKPOINT_SCHEMA} only; use a fresh directory"
                )
            if existing.get("job_digest") != digest:
                raise CheckpointMismatch(
                    f"checkpoint directory {self.directory} belongs to a "
                    f"different job (its {existing.get('job_class')!r} digest "
                    f"{str(existing.get('job_digest'))[:12]}... != this "
                    f"{type(job).__qualname__!r} digest {digest[:12]}...); "
                    f"use a fresh directory"
                )
            return existing
        try:
            recorded = self.manifest_path.stat().st_size > 0
        except OSError:
            recorded = False
        if recorded:
            raise CheckpointError(
                f"checkpoint directory {self.directory} holds chunk records "
                f"but its {JOB_NAME} is missing or unreadable, so they cannot "
                f"be matched to this job; use a fresh directory"
            )
        specs = job.chunk_specs()
        header = {
            "schema": CHECKPOINT_SCHEMA,
            "job_digest": digest,
            "job_class": type(job).__qualname__,
            "job_repr": repr(job),
            "total_chunks": len(specs),
            "total_samples": sum(spec.size for spec in specs),
            "seed": getattr(job, "seed", None),
        }
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(
            self.directory / JOB_NAME,
            (json.dumps(header, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )
        return header

    # -- writing ----------------------------------------------------------

    def append(self, index: int, payload: Dict[str, Any]) -> str:
        """Record one chunk result; returns its content digest.

        The record is one ``os.write`` on an ``O_APPEND`` descriptor.  If
        the manifest ends in a torn line (a predecessor died mid-append),
        a leading newline heals it first — the fragment becomes its own
        garbage line (skipped by every reader) instead of corrupting this
        record.  A short write raises ``OSError``: its fragment is a torn
        line like any other.
        """
        digest = chunk_digest(index, payload)
        line = canonical_json({"chunk": index, "digest": digest, "payload": payload})
        data = (line + "\n").encode("utf-8")
        fd = os.open(self.manifest_path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                data = b"\n" + data
            written = os.write(fd, data)
        finally:
            os.close(fd)
        if written != len(data):
            raise OSError(
                f"short write to {self.manifest_path}: {written} of {len(data)} bytes"
            )
        return digest

    # -- reading ----------------------------------------------------------

    def iter_records(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Valid, deduplicated ``(index, payload)`` records (first wins)."""
        for record in ManifestTail(self).poll():
            yield record.index, record.payload

    def done_indices(self) -> Set[int]:
        """Chunk indices with a verified result on disk."""
        return {index for index, _ in self.iter_records()}

    def state_digest(self) -> str:
        """Order-independent hash of the completed-chunk set on disk."""
        tail = ManifestTail(self)
        tail.poll()
        return tail.state_digest()

    # -- cumulative run telemetry -----------------------------------------

    def read_stats(self) -> Dict[str, StreamingMoments]:
        """The cumulative per-chunk timing moments (corrupt reads as empty)."""
        try:
            payload = json.loads(self.stats_path.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(payload, dict):
            return {}
        stats: Dict[str, StreamingMoments] = {}
        for name, value in payload.items():
            try:
                stats[name] = StreamingMoments.from_dict(value)
            except (KeyError, TypeError, ValueError):
                continue
        return stats

    def write_stats(self, stats: Dict[str, StreamingMoments]) -> None:
        """Atomically persist the cumulative timing moments."""
        payload = {name: m.to_dict() for name, m in sorted(stats.items())}
        _atomic_write(
            self.stats_path,
            (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )


@dataclass
class TailRecord:
    """One newly observed manifest record (already verified + deduped)."""

    index: int
    digest: str
    payload: Dict[str, Any]


class ManifestTail:
    """Incremental manifest reader: the streamed-reduction input side.

    ``poll()`` returns the verified, deduplicated records appended since
    the previous call, so a long-running parent merges results as workers
    land them — O(1) memory in samples, and the *same* code path whether
    a record was written seconds ago (live run) or by a previous
    interrupted process (resume).  A partially appended final line is
    left in the file and re-examined on the next poll once its newline
    arrives.  Lines for chunks already seen are skipped before their
    digest is checked.
    """

    def __init__(self, store: CheckpointStore):
        self.store = store
        self._offset = 0
        self._digests: Dict[int, str] = {}

    @property
    def seen(self):
        """Indices of every verified record observed so far (a live view)."""
        return self._digests.keys()

    def mark(self, index: int, digest: str) -> bool:
        """Note a record this process appended itself; False when the
        chunk was already seen (its earlier record wins)."""
        if index in self._digests:
            return False
        self._digests[index] = digest
        return True

    def state_digest(self) -> str:
        """:func:`state_digest` of every record observed so far."""
        return state_digest(self._digests.values())

    def poll(self) -> List[TailRecord]:
        """Verified new records since the last poll (possibly empty)."""
        try:
            with open(self.store.manifest_path, "rb") as handle:
                handle.seek(self._offset)
                data = handle.read()
        except OSError:
            return []
        # Consume only whole lines; a torn tail is retried next poll.
        end = data.rfind(b"\n")
        if end < 0:
            return []
        self._offset += end + 1
        fresh: List[TailRecord] = []
        for line in data[:end].split(b"\n"):
            try:
                record = json.loads(line)
            except (ValueError, RecursionError):
                continue
            if not isinstance(record, dict):
                continue
            index = record.get("chunk")
            if not (isinstance(index, int) and not isinstance(index, bool)
                    and index >= 0) or index in self._digests:
                continue
            digest, payload = record.get("digest"), record.get("payload")
            if not isinstance(payload, dict) or chunk_digest(index, payload) != digest:
                continue
            self._digests[index] = digest
            fresh.append(TailRecord(index=index, digest=digest, payload=payload))
        return fresh
