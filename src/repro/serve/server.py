"""The asyncio evaluation server: accept → coalesce → shard → respond.

One event loop accepts HTTP/1.1 connections (TCP and/or a unix socket),
parses requests through :mod:`repro.serve.protocol`, and parks each
evaluation on an asyncio future.  A dispatcher task hands an idle shard
its pending entries at once, planned into batches by
:func:`plan_batches`.  Entries for a busy shard stay pending, gathering
dedup joiners, until the shard's batches in flight answer; the shard then
takes them as its next batch.  Load alone sets batch size: one request
when traffic is light, full batches under a burst.  An opt-in linger
(``coalesce_ms``) holds a request for company at most that long after
admission, time parked behind a busy shard included.  The shard resolves
every waiter's future from its thread via ``call_soon_threadsafe``.

Admission control is two-layered and always answers — never hangs:

* a global in-flight cap (``max_pending``): past it, new evaluations get
  an immediate 429 with a well-formed ``overloaded`` error body;
* bounded shard queues: a batch routed to a saturated shard is shed the
  same way (the clients that coalesced into it all get the 429).

Shutdown is graceful: SIGTERM/SIGINT stop the listeners, flush the
pending set through the dispatcher, wait for in-flight evaluations to
answer, then drain the shard threads (and the resident engine pool, when
configured) — no orphaned processes, no dropped responses.

SLOs are measured, not asserted: every response latency lands in a
mergeable histogram, coalescing and cache efficiency are counters, queue
depths are gauges, and ``GET /metrics`` reports p50/p99 latency and
shard queue wait (admission to shard start), the coalescing factor,
cache hit rate, and shed rate as one JSON object.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro._version import __version__
from repro.obs.collector import Collector
from repro.serve import protocol
from repro.serve.coalescer import Batch, PendingEntry, admit, plan_batches
from repro.serve.shards import ShardSet, execute_entries

#: Largest request body the server will read (a request is a few hundred
#: bytes of JSON; anything larger is a client bug, answered 413).
MAX_BODY_BYTES = 1 << 20

#: Most header lines the server will read before answering 431 (a client
#: sends a handful).  Each line is bounded by the stream reader's limit.
MAX_HEADER_LINES = 100

#: Longest a request may take from its first byte to its last body byte
#: before it is answered 408 and its connection closed: a client stalled
#: mid-request must not hold its connection and task forever.  Idle
#: keep-alive time between requests is not bounded.
REQUEST_READ_TIMEOUT_S = 10.0

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BadRequest(Exception):
    """A malformed HTTP request: answered with ``status`` and a protocol
    error, then the connection is closed (its framing cannot be trusted)."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


async def _read_head_line(reader: asyncio.StreamReader) -> bytes:
    """One request or header line; a line past the reader's limit is 431."""
    try:
        return await reader.readline()
    except ValueError:  # readline's form of LimitOverrunError
        raise _BadRequest(
            431, "headers-too-large", "a request or header line exceeds the line limit"
        ) from None


def _content_length(text: str) -> int:
    """The body length a ``Content-Length`` value announces, or _BadRequest."""
    if not (text.isascii() and text.isdigit()):
        raise _BadRequest(
            400, "bad-content-length", f"Content-Length {text!r} is not a non-negative integer"
        )
    length = int(text)
    if length > MAX_BODY_BYTES:
        raise _BadRequest(
            413,
            "body-too-large",
            f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit",
        )
    return length


class OverloadedError(RuntimeError):
    """Raised into a waiter when its batch was shed (maps to 429)."""


class WorkError(RuntimeError):
    """Raised into a waiter when its batch failed (maps to 500)."""


@dataclass
class ServeConfig:
    """Server tunables; the CLI maps its flags straight onto these."""

    host: str = "127.0.0.1"
    port: Optional[int] = None  # None = no TCP listener
    uds: Optional[str] = None  # unix-socket path (None = no UDS listener)
    shards: int = 2
    shard_depth: int = 8  # bounded per-shard batch queue
    max_batch: int = 8  # entries per engine submission
    coalesce_ms: float = 0.0  # opt-in linger: max wait for company after admission
    max_pending: int = 64  # global in-flight request cap
    pool_workers: int = 0  # >= 2 enables the shared resident WorkerPool
    cache_dir: Optional[str] = None  # elaboration disk cache (None = memory)
    job_root: Optional[str] = None  # durable longrun checkpoints (None = off)
    drain_timeout_s: float = 15.0

    def validate(self) -> None:
        """Reject contradictory or out-of-range settings early."""
        if self.port is None and self.uds is None:
            raise ValueError("serve needs a TCP port and/or a unix-socket path")
        for name in ("shards", "shard_depth", "max_batch", "max_pending"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.drain_timeout_s < 0:
            raise ValueError(f"drain_timeout_s must be >= 0, got {self.drain_timeout_s}")
        if self.coalesce_ms < 0:
            raise ValueError(f"coalesce_ms must be >= 0, got {self.coalesce_ms}")
        if self.pool_workers == 1:
            raise ValueError("pool_workers is 0 (in-shard serial) or >= 2 (pool)")


class Server:
    """The evaluation service: listeners, dispatcher, shard fleet."""

    def __init__(self, config: ServeConfig):
        config.validate()
        self.config = config
        self.collector = Collector()
        self.shards: Optional[ShardSet] = None
        self._pending: Dict[str, PendingEntry] = {}
        self._busy: List[int] = []  # batches in flight, per shard
        self._pending_event: Optional[asyncio.Event] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._inflight = 0
        self._draining = False
        #: Filled by :meth:`start` — the bound TCP port (useful with port=0).
        self.bound_port: Optional[int] = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind listeners, start the shard fleet and the dispatcher."""
        self._loop = asyncio.get_running_loop()
        self._pending_event = asyncio.Event()
        self._stop_event = asyncio.Event()
        pool = None
        if self.config.pool_workers >= 2:
            from repro.engine import WorkerPool

            pool = WorkerPool(self.config.pool_workers)
        self.shards = ShardSet(
            self.config.shards,
            self.config.shard_depth,
            collector=self.collector,
            pool=pool,
            cache_dir=self.config.cache_dir,
        )
        self._busy = [0] * len(self.shards)
        if self.config.port is not None:
            server = await asyncio.start_server(
                self._handle_connection, host=self.config.host, port=self.config.port
            )
            self.bound_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        if self.config.uds is not None:
            # Listen under a temporary name, then rename it into place
            # (over any stale socket of a dead server): a client that
            # connects as soon as the path exists finds it listening.
            staging = f"{self.config.uds}.{os.getpid()}"
            if os.path.exists(staging):
                os.unlink(staging)
            server = await asyncio.start_unix_server(
                self._handle_connection, path=staging
            )
            os.replace(staging, self.config.uds)
            self._servers.append(server)
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())

    def request_stop(self) -> None:
        """Signal-safe shutdown trigger (idempotent)."""
        if self._stop_event is not None and not self._stop_event.is_set():
            self._stop_event.set()

    async def stop(self) -> None:
        """Graceful drain: stop accepting, flush pending, answer in-flight,
        then stop the shard threads (and resident pool)."""
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:  # pragma: no cover - listener already gone
                pass
        self._servers.clear()
        # Flush whatever is pending, busy shards included, then wait for
        # every in-flight evaluation to answer (bounded by drain_timeout_s).
        if self._pending_event is not None:
            self._pending_event.set()
        deadline = time.monotonic() + self.config.drain_timeout_s
        while (self._inflight or self._pending) and time.monotonic() < deadline:
            if self._pending_event is not None:
                self._pending_event.set()
            await asyncio.sleep(0.02)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except (asyncio.CancelledError, Exception):
                pass
            self._dispatcher = None
        if self.shards is not None:
            self.shards.drain(timeout=self.config.drain_timeout_s)
        if self.config.uds is not None and os.path.exists(self.config.uds):
            os.unlink(self.config.uds)

    async def run(self, on_ready=None) -> None:
        """CLI entrypoint body: start, wait for SIGTERM/SIGINT, drain."""
        await self.start()
        if on_ready is not None:
            on_ready(self)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        assert self._stop_event is not None
        await self._stop_event.wait()
        await self.stop()

    # -- dispatcher -------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._pending_event is not None
        while True:
            await self._pending_event.wait()
            self._pending_event.clear()
            linger_s = self._dispatch_ready()
            if linger_s is not None:
                await self._linger(linger_s)

    def _dispatch_ready(self) -> Optional[float]:
        """Hand every idle shard its pending entries (every shard while
        draining); a busy shard's entries stay pending as its next batch.

        With a linger, an idle shard waits until its oldest entry is
        ``coalesce_ms`` past admission.  Returns the seconds until the next
        such shard is due, or None when no idle shard is lingering.
        """
        linger_s = 0.0 if self._draining else self.config.coalesce_ms / 1000.0
        now = time.monotonic()
        due: Dict[int, float] = {}
        for entry in self._pending.values():  # admission order: oldest first
            due.setdefault(entry.shard, entry.admitted + linger_s)
        idle = [shard for shard in due if self._draining or not self._busy[shard]]
        ready = {shard for shard in idle if due[shard] <= now}
        entries = [entry for entry in self._pending.values() if entry.shard in ready]
        for entry in entries:
            del self._pending[entry.key]
        if entries:
            try:
                self._dispatch(entries)
            except Exception as exc:  # the dispatcher must outlive one bad plan
                traceback.print_exc()
                self.collector.add(
                    "serve.work_failures", sum(entry.fanout for entry in entries)
                )
                self._fail(entries, WorkError(f"dispatch failed: {type(exc).__name__}: {exc}"))
        waits = [due[shard] - now for shard in idle if shard not in ready]
        return min(waits) if waits else None

    async def _linger(self, seconds: float) -> None:
        """Hold dispatch for ``seconds``, or less if an admission, a freed
        shard or a stop wakes the dispatcher first."""
        assert self._pending_event is not None
        try:
            await asyncio.wait_for(self._pending_event.wait(), seconds)
        except asyncio.TimeoutError:
            self._pending_event.set()

    def _dispatch(self, entries: List[PendingEntry]) -> None:
        assert self.shards is not None
        batches = plan_batches(entries, self.config.max_batch)
        for batch in batches:
            self.collector.add("serve.batches")
            self.collector.add("serve.batch_requests", batch.requests)
            self.collector.add("serve.batch_entries", len(batch.entries))
            if self.shards.try_submit(batch.shard, self._make_work(batch)):
                self._busy[batch.shard] += 1
            else:
                self._shed_batch(batch)

    def _shed_batch(self, batch: Batch) -> None:
        self.collector.add("serve.shed", batch.requests)
        self._fail(
            batch.entries,
            OverloadedError(f"shard {batch.shard} queue is full; retry with backoff"),
        )

    def _fail(self, entries, exc: Exception) -> None:
        """Raise ``exc`` into every waiter of ``entries`` not yet answered."""
        for entry in entries:
            for waiter in entry.waiters:
                if not waiter.done():
                    waiter.set_exception(exc)

    def _make_work(self, batch: Batch):
        loop = self._loop
        assert loop is not None and self.shards is not None
        pool = self.shards.pool

        def work() -> None:  # runs on the shard thread
            started = time.monotonic()
            try:
                rows = execute_entries(
                    batch.kind,
                    batch.entries,
                    self.collector,
                    pool=pool,
                    cache_dir=self.config.cache_dir,
                    job_root=self.config.job_root,
                )
            except BaseException as exc:
                message = f"{type(exc).__name__}: {exc}"
                loop.call_soon_threadsafe(self._resolve_error, batch, started, message)
                raise  # shard counts it under shardN.work_errors
            loop.call_soon_threadsafe(self._resolve_ok, batch, started, rows)

        return work

    def _batch_done(self, batch: Batch, started: float) -> None:
        """Free the batch's slot on its shard and wake the dispatcher for
        whatever is parked there; record each entry's queue wait."""
        self._busy[batch.shard] -= 1
        for entry in batch.entries:
            self.collector.record("serve.queue_wait_ms", (started - entry.admitted) * 1000.0)
        if self._pending and self._pending_event is not None:
            self._pending_event.set()

    def _resolve_ok(
        self, batch: Batch, started: float, rows: List[Dict[str, Any]]
    ) -> None:
        self._batch_done(batch, started)
        for entry, row in zip(batch.entries, rows):
            cache_hit = row.pop("cache_hit", None)
            value = {
                "result": row,
                "shard": batch.shard,
                "coalesced": batch.requests,
                "cache_hit": cache_hit,
            }
            for waiter in entry.waiters:
                if not waiter.done():
                    waiter.set_result(value)

    def _resolve_error(self, batch: Batch, started: float, message: str) -> None:
        self._batch_done(batch, started)
        self.collector.add("serve.work_failures", batch.requests)
        self._fail(batch.entries, WorkError(message))

    # -- HTTP -------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    self.collector.add("serve.bad_requests")
                    error = protocol.error_response(exc.code, str(exc))
                    await self._write_response(writer, exc.status, error, keep_alive=False)
                    break
                if request is None:
                    break
                method, path, headers, body = request
                status, payload = await self._route(method, path, body)
                keep_alive = headers.get("connection", "keep-alive") != "close"
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        first = await reader.read(1)  # idle keep-alive wait: unbounded
        if not first:
            return None
        try:
            return await asyncio.wait_for(
                self._read_rest(reader, first), REQUEST_READ_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            raise _BadRequest(
                408, "request-timeout",
                f"request not complete {REQUEST_READ_TIMEOUT_S:g} s after its first byte",
            ) from None

    async def _read_rest(
        self, reader: asyncio.StreamReader, first: bytes
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        line = first if first == b"\n" else first + await _read_head_line(reader)
        if line in (b"\r\n", b"\n"):
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for count in range(MAX_HEADER_LINES + 1):
            raw = await _read_head_line(reader)
            if not raw or raw in (b"\r\n", b"\n"):
                break
            if count == MAX_HEADER_LINES:
                raise _BadRequest(
                    431, "headers-too-large",
                    f"more than {MAX_HEADER_LINES} header lines",
                )
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = _content_length(headers.get("content-length", "0") or "0")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        keep_alive: bool,
    ) -> None:
        body = protocol.dumps(payload)
        head = (
            f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        if method == "GET" and path == "/":
            return 200, self.hello()
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True, "draining": self._draining}
        if method == "GET" and path == "/metrics":
            return 200, self.metrics_snapshot()
        if method == "POST" and path == "/v1/eval":
            return await self._handle_eval(body)
        return 404, protocol.error_response("not-found", f"no route {method} {path}")

    async def _handle_eval(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        start = time.perf_counter()
        self.collector.add("serve.requests")
        try:
            payload = json.loads(body)
        except (ValueError, UnicodeDecodeError):
            self.collector.add("serve.bad_requests")
            return 400, protocol.error_response("bad-json", "request body is not JSON")
        try:
            request = protocol.parse_request(payload)
        except protocol.ProtocolError as exc:
            self.collector.add("serve.bad_requests")
            request_id = payload.get("id", "") if isinstance(payload, dict) else ""
            if not isinstance(request_id, str):
                request_id = ""
            return 400, protocol.error_response(exc.code, str(exc), request_id)

        if request.kind == "longrun" and self.config.job_root is None:
            self.collector.add("serve.bad_requests")
            return 400, protocol.error_response(
                "longrun-disabled",
                "this server has no durable job root; start it with --job-root",
                request.request_id,
            )
        if self._draining:
            self.collector.add("serve.shed")
            return 503, protocol.error_response(
                "draining", "server is draining; retry elsewhere", request.request_id
            )
        if self._inflight >= self.config.max_pending:
            self.collector.add("serve.shed")
            return 429, protocol.error_response(
                "overloaded",
                f"{self._inflight} requests in flight (cap {self.config.max_pending}); "
                "retry with backoff",
                request.request_id,
            )

        assert self._loop is not None and self._pending_event is not None
        waiter: asyncio.Future = self._loop.create_future()
        entry = admit(
            self._pending, request, waiter, len(self.shards or ()) or 1, time.monotonic()
        )
        if entry.fanout > 1:
            self.collector.add("serve.dedup_joins")
        self._inflight += 1
        self.collector.gauge("serve.inflight", self._inflight)
        self._pending_event.set()
        try:
            value = await waiter
        except OverloadedError as exc:
            # already counted under serve.shed by the dispatcher
            return 429, protocol.error_response(
                "overloaded", str(exc), request.request_id
            )
        except WorkError as exc:
            return 500, protocol.error_response(
                "internal", str(exc), request.request_id
            )
        finally:
            self._inflight -= 1
            self.collector.gauge("serve.inflight", self._inflight)

        server = protocol.server_block(
            __version__,
            shard=value["shard"],
            coalesced=value["coalesced"],
            cache_hit=value["cache_hit"],
        )
        response = protocol.ok_response(request, value["result"], server)
        latency_ms = (time.perf_counter() - start) * 1000.0
        self.collector.record("serve.latency_ms", latency_ms)
        self.collector.add("serve.ok")
        return 200, response

    # -- reporting --------------------------------------------------------

    def _summary(self, name: str) -> Optional[Dict[str, float]]:
        """count/mean/p50/p99/max of histogram ``name`` (None when empty)."""
        hist = self.collector.histograms.get(name)
        if hist is None or not hist.count:
            return None
        return {
            "count": hist.count,
            "mean": hist.mean,
            "p50": hist.percentile(0.50),
            "p99": hist.percentile(0.99),
            "max": hist.max,
        }

    def hello(self) -> Dict[str, Any]:
        """The ``GET /`` body: service identity + protocol version."""
        block = protocol.server_block(__version__)
        block["endpoints"] = ["/", "/healthz", "/metrics", "/v1/eval"]
        block["shards"] = len(self.shards) if self.shards is not None else 0
        return block

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The ``GET /metrics`` body: SLOs derived from the collector."""
        counters = dict(self.collector.counters)
        requests = counters.get("serve.requests", 0)
        ok = counters.get("serve.ok", 0)
        shed = counters.get("serve.shed", 0)
        batches = counters.get("serve.batches", 0)
        batch_requests = counters.get("serve.batch_requests", 0)
        hits = counters.get("cache_hits", 0)
        misses = counters.get("cache_misses", 0)
        slo: Dict[str, Any] = {
            "requests": requests,
            "ok": ok,
            "shed": shed,
            "bad_requests": counters.get("serve.bad_requests", 0),
            "work_failures": counters.get("serve.work_failures", 0),
            "dedup_joins": counters.get("serve.dedup_joins", 0),
            "shed_rate": (shed / requests) if requests else 0.0,
            "coalescing_factor": (batch_requests / batches) if batches else None,
            "cache_hit_rate": (hits / (hits + misses)) if (hits + misses) else None,
            # admission to shard start, for every entry of every batch
            "queue_wait_ms": self._summary("serve.queue_wait_ms"),
            "latency_ms": self._summary("serve.latency_ms"),
        }
        block = protocol.server_block(__version__)
        block["draining"] = self._draining
        block["shards"] = len(self.shards) if self.shards is not None else 0
        return {"server": block, "slo": slo, "obs": self.collector.to_dict()}
