"""The asyncio evaluation server: accept → coalesce → shard → respond.

One event loop accepts HTTP/1.1 connections (TCP and/or a unix socket),
parses requests through :mod:`repro.serve.protocol`, and parks each
evaluation on an asyncio future.  A dispatcher task wakes on the first
pending request, sleeps one *coalescing window*, then plans the
accumulated set into per-shard batches (:func:`plan_batches`) and hands
them to the warm shard threads; the shard resolves every waiter's future
from its thread via ``call_soon_threadsafe``.

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
depths are gauges, and ``GET /metrics`` reports p50/p99 latency, the
coalescing factor, cache hit rate, and shed rate as one JSON object.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
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

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
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
    coalesce_ms: float = 5.0  # how long the dispatcher gathers requests
    max_pending: int = 64  # global in-flight request cap
    pool_workers: int = 0  # >= 2 enables the shared resident WorkerPool
    cache_dir: Optional[str] = None  # elaboration disk cache (None = memory)
    job_root: Optional[str] = None  # durable longrun checkpoints (None = off)
    drain_timeout_s: float = 15.0

    def validate(self) -> None:
        """Reject contradictory or out-of-range settings early."""
        if self.port is None and self.uds is None:
            raise ValueError("serve needs a TCP port and/or a unix-socket path")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be positive, got {self.max_pending}")
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
        if self.config.port is not None:
            server = await asyncio.start_server(
                self._handle_connection, host=self.config.host, port=self.config.port
            )
            self.bound_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        if self.config.uds is not None:
            if os.path.exists(self.config.uds):
                os.unlink(self.config.uds)  # stale socket from a dead server
            server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.uds
            )
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
        # Flush whatever the dispatcher was still coalescing, then wait for
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
            if self._pending and self.config.coalesce_ms > 0 and not self._draining:
                await asyncio.sleep(self.config.coalesce_ms / 1000.0)
            entries = list(self._pending.values())
            self._pending.clear()
            if entries:
                self._dispatch(entries)

    def _dispatch(self, entries: List[PendingEntry]) -> None:
        assert self.shards is not None
        batches = plan_batches(entries, self.config.max_batch)
        for batch in batches:
            self.collector.add("serve.batches")
            self.collector.add("serve.batch_requests", batch.requests)
            self.collector.add("serve.batch_entries", len(batch.entries))
            if not self.shards.try_submit(batch.shard, self._make_work(batch)):
                self._shed_batch(batch)

    def _shed_batch(self, batch: Batch) -> None:
        self.collector.add("serve.shed", batch.requests)
        exc = OverloadedError(
            f"shard {batch.shard} queue is full; retry with backoff"
        )
        for entry in batch.entries:
            for waiter in entry.waiters:
                if not waiter.done():
                    waiter.set_exception(exc)

    def _make_work(self, batch: Batch):
        loop = self._loop
        assert loop is not None and self.shards is not None
        pool = self.shards.pool

        def work() -> None:  # runs on the shard thread
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
                loop.call_soon_threadsafe(self._resolve_error, batch, message)
                raise  # shard counts it under shardN.work_errors
            loop.call_soon_threadsafe(self._resolve_ok, batch, rows)

        return work

    def _resolve_ok(self, batch: Batch, rows: List[Dict[str, Any]]) -> None:
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

    def _resolve_error(self, batch: Batch, message: str) -> None:
        self.collector.add("serve.work_failures", batch.requests)
        exc = WorkError(message)
        for entry in batch.entries:
            for waiter in entry.waiters:
                if not waiter.done():
                    waiter.set_exception(exc)

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
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if not raw or raw in (b"\r\n", b"\n"):
                break
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
        entry = admit(self._pending, request, waiter, len(self.shards or ()) or 1)
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
        latency = self.collector.histograms.get("serve.latency_ms")
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
            "latency_ms": None,
        }
        if latency is not None and latency.count:
            slo["latency_ms"] = {
                "count": latency.count,
                "mean": latency.mean,
                "p50": latency.percentile(0.50),
                "p99": latency.percentile(0.99),
                "max": latency.max,
            }
        block = protocol.server_block(__version__)
        block["draining"] = self._draining
        block["shards"] = len(self.shards) if self.shards is not None else 0
        return {"server": block, "slo": slo, "obs": self.collector.to_dict()}
