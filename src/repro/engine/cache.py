"""Elaboration cache: in-process LRU plus an optional on-disk store.

Elaborating a design — building the ``Circuit``, running the peephole
optimizer, levelizing, and running STA — is pure in ``(architecture, n, k,
options)``, so its results are cached under a content hash of exactly that
tuple.  The in-process layer is an LRU over recently used designs; the
optional disk layer persists entries across processes (and across the
workers of a multiprocessing run, which share the directory).

Disk entries are self-checking: each file stores a SHA-256 digest of its
pickle payload, and a corrupted or truncated entry is silently discarded
and re-elaborated rather than crashing the run (the file is unlinked so it
is repaired by the next write).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

#: Bump when the cached payload layout changes; old entries then miss.
SCHEMA_VERSION = 1

_DIGEST_BYTES = 32


def default_cache_dir() -> Path:
    """The on-disk store used by the CLI (override with REPRO_ENGINE_CACHE)."""
    env = os.environ.get("REPRO_ENGINE_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-engine"


def cache_key(
    architecture: str,
    width: int,
    window: Optional[int] = None,
    options: Optional[Dict[str, Any]] = None,
) -> str:
    """Content hash of an elaboration's full parameter tuple.

    Distinct ``(architecture, n, k, options)`` tuples map to distinct keys
    (SHA-256 over an unambiguous ``repr``); options are sorted so dict
    ordering cannot split the cache.
    """
    canon = repr(
        (
            SCHEMA_VERSION,
            str(architecture),
            int(width),
            None if window is None else int(window),
            tuple(sorted((str(k), repr(v)) for k, v in (options or {}).items())),
        )
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class ElaborationCache:
    """Two-level (memory LRU, optional disk) cache for elaboration results.

    Values must be picklable.  ``hits``/``misses``/``disk_hits``/
    ``disk_discards`` are plain counters the metrics layer snapshots.
    """

    def __init__(self, capacity: int = 128, directory: Optional[os.PathLike] = None):
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.directory = Path(directory) if directory is not None else None
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_discards = 0

    # -- plumbing ---------------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.pkl"

    def _remember(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

    def _load_disk(self, key: str) -> Tuple[bool, Any]:
        if self.directory is None:
            return False, None
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return False, None
        digest, payload = blob[:_DIGEST_BYTES], blob[_DIGEST_BYTES:]
        if len(digest) < _DIGEST_BYTES or hashlib.sha256(payload).digest() != digest:
            self._discard_disk(path)
            return False, None
        try:
            return True, pickle.loads(payload)
        except Exception:
            self._discard_disk(path)
            return False, None

    def _discard_disk(self, path: Path) -> None:
        self.disk_discards += 1
        try:
            path.unlink()
        except OSError:
            pass

    def _store_disk(self, key: str, value: Any) -> None:
        if self.directory is None:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            blob = hashlib.sha256(payload).digest() + payload
            # Atomic publish: concurrent workers only ever see whole files.
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError):
            pass  # a cold cache is a correctness no-op

    # -- public API -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._memory)

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(found, value)``; promotes disk entries into the memory LRU.

        With observability enabled, each lookup's latency is recorded in
        the ``engine.cache.lookup_us`` histogram (memory hits sit orders
        of magnitude below disk hits — the histogram's bimodality is the
        cheapest check that the LRU layer is actually doing its job).
        """
        from repro.obs import spans as _obs

        if not _obs.is_enabled():
            return self._get(key)
        start = time.perf_counter()
        try:
            return self._get(key)
        finally:
            _obs.record(
                "engine.cache.lookup_us", (time.perf_counter() - start) * 1e6
            )

    def _get(self, key: str) -> Tuple[bool, Any]:
        if key in self._memory:
            self._memory.move_to_end(key)
            self.hits += 1
            return True, self._memory[key]
        found, value = self._load_disk(key)
        if found:
            self.disk_hits += 1
            self.hits += 1
            self._remember(key, value)
            return True, value
        self.misses += 1
        return False, None

    def put(self, key: str, value: Any) -> None:
        """Store a value in the memory LRU and (if configured) on disk."""
        self._remember(key, value)
        self._store_disk(key, value)

    def get_or_build(self, key: str, builder: Callable[[], Any]) -> Any:
        """Return the cached value, building and caching it on a miss."""
        found, value = self.get(key)
        if found:
            return value
        value = builder()
        self.put(key, value)
        return value

    def counters(self) -> Dict[str, int]:
        """Hit/miss counters in the naming the metrics layer merges."""
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_disk_hits": self.disk_hits,
            "cache_disk_discards": self.disk_discards,
        }


#: Per-process elaboration caches, keyed by disk directory (lazy; workers
#: of one run share the directory and therefore each other's disk entries).
_PROCESS_CACHES: Dict[Optional[str], ElaborationCache] = {}


def process_cache(directory: Optional[str], capacity: int = 128) -> ElaborationCache:
    """The calling process's cache bound to ``directory`` (created lazily)."""
    if directory not in _PROCESS_CACHES:
        _PROCESS_CACHES[directory] = ElaborationCache(
            capacity=capacity, directory=directory
        )
    return _PROCESS_CACHES[directory]
