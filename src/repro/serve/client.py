"""Clients for the evaluation service: sync (sockets) and async (asyncio).

Both speak the same minimal HTTP/1.1 + JSON dialect as the server and
keep their connection alive across calls, so a warm client pays one
round-trip per evaluation — the number the latency SLO measures.  A
non-2xx answer (shed, protocol error, internal failure) raises
:class:`ServeError` carrying the server's stable error code; transport
failures reconnect once before giving up.
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.serve import protocol


class ServeError(RuntimeError):
    """A non-2xx service answer; carries the HTTP status and error code."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(f"[{status}/{code}] {message}")
        self.status = status
        self.code = code

    @staticmethod
    def from_payload(status: int, payload: Any) -> "ServeError":
        if isinstance(payload, dict) and isinstance(payload.get("error"), dict):
            error = payload["error"]
            return ServeError(
                status, str(error.get("code", "unknown")), str(error.get("message", ""))
            )
        return ServeError(status, "unknown", f"unexpected response body: {payload!r}")


def _loads(body: bytes) -> Any:
    """Decode a response body with interned object keys, so a caller that
    keeps many results holds one copy of each field name rather than one
    per response (about half of a kept ``errors`` result's memory)."""
    return json.loads(body, object_pairs_hook=_interned_dict)


def _interned_dict(pairs) -> Dict[str, Any]:
    return {sys.intern(key): value for key, value in pairs}


def _eval_body(
    kind: str,
    params: Mapping[str, Any],
    seed: Optional[int],
    request_id: str,
) -> bytes:
    body: Dict[str, Any] = {
        "proto": protocol.PROTOCOL_VERSION,
        "kind": kind,
        "params": dict(params),
    }
    if seed is not None:
        body["seed"] = seed
    if request_id:
        body["id"] = request_id
    return protocol.dumps(body)


class ServeClient:
    """Blocking client over a persistent raw socket (unix or TCP)."""

    def __init__(
        self,
        uds: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        timeout: float = 60.0,
    ):
        if (uds is None) == (port is None):
            raise ValueError("pass exactly one of uds= or port=")
        self._uds = uds
        self._host = host
        self._port = port
        self._timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._rfile = None

    # -- connection -------------------------------------------------------

    def _connect(self) -> None:
        if self._uds is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self._timeout)
            sock.connect(self._uds)
        else:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def close(self) -> None:
        """Close the connection; the next request reconnects lazily."""
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- HTTP -------------------------------------------------------------

    def _request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, Any]:
        try:
            return self._request_once(method, path, body)
        except (OSError, EOFError):
            self.close()  # stale keep-alive connection: reconnect once
            return self._request_once(method, path, body)

    def _request_once(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Any]:
        if self._sock is None:
            self._connect()
        assert self._sock is not None and self._rfile is not None
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: repro-serve\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n"
            "\r\n"
        ).encode("latin-1")
        self._sock.sendall(head + body)
        status_line = self._rfile.readline()
        if not status_line:
            raise EOFError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            raw = self._rfile.readline()
            if not raw or raw in (b"\r\n", b"\n"):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = _loads(self._rfile.read(length)) if length else None
        return status, payload

    # -- API --------------------------------------------------------------

    def hello(self) -> Dict[str, Any]:
        """``GET /``: the server's service/version/endpoints banner."""
        status, payload = self._request("GET", "/")
        if status != 200:
            raise ServeError.from_payload(status, payload)
        return payload

    def health(self) -> Dict[str, Any]:
        """``GET /healthz``: liveness plus the draining flag."""
        status, payload = self._request("GET", "/healthz")
        if status != 200:
            raise ServeError.from_payload(status, payload)
        return payload

    def metrics(self) -> Dict[str, Any]:
        """``GET /metrics``: the live SLO + collector snapshot."""
        status, payload = self._request("GET", "/metrics")
        if status != 200:
            raise ServeError.from_payload(status, payload)
        return payload

    def evaluate(
        self,
        kind: str,
        params: Mapping[str, Any],
        seed: Optional[int] = None,
        request_id: str = "",
    ) -> Dict[str, Any]:
        """One evaluation round-trip; the full response body on success."""
        body = _eval_body(kind, params, seed, request_id)
        status, payload = self._request("POST", "/v1/eval", body)
        if status != 200:
            raise ServeError.from_payload(status, payload)
        return payload


class AsyncServeClient:
    """Asyncio client over persistent streams; same API, awaitable."""

    def __init__(
        self,
        uds: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
    ):
        if (uds is None) == (port is None):
            raise ValueError("pass exactly one of uds= or port=")
        self._uds = uds
        self._host = host
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        if self._uds is not None:
            self._reader, self._writer = await asyncio.open_unix_connection(self._uds)
        else:
            self._reader, self._writer = await asyncio.open_connection(
                self._host, self._port
            )

    async def close(self) -> None:
        """Close the connection; the next request reconnects lazily."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except Exception:
                pass
        self._reader = None
        self._writer = None

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def _request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, Any]:
        try:
            return await self._request_once(method, path, body)
        except (OSError, EOFError, asyncio.IncompleteReadError):
            await self.close()
            return await self._request_once(method, path, body)

    async def _request_once(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Any]:
        if self._writer is None:
            await self._connect()
        assert self._reader is not None and self._writer is not None
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: repro-serve\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n"
            "\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise EOFError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            raw = await self._reader.readline()
            if not raw or raw in (b"\r\n", b"\n"):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = _loads(await self._reader.readexactly(length)) if length else None
        return status, payload

    async def hello(self) -> Dict[str, Any]:
        """``GET /``: the server's service/version/endpoints banner."""
        status, payload = await self._request("GET", "/")
        if status != 200:
            raise ServeError.from_payload(status, payload)
        return payload

    async def health(self) -> Dict[str, Any]:
        """``GET /healthz``: liveness plus the draining flag."""
        status, payload = await self._request("GET", "/healthz")
        if status != 200:
            raise ServeError.from_payload(status, payload)
        return payload

    async def metrics(self) -> Dict[str, Any]:
        """``GET /metrics``: the live SLO + collector snapshot."""
        status, payload = await self._request("GET", "/metrics")
        if status != 200:
            raise ServeError.from_payload(status, payload)
        return payload

    async def evaluate(
        self,
        kind: str,
        params: Mapping[str, Any],
        seed: Optional[int] = None,
        request_id: str = "",
    ) -> Dict[str, Any]:
        """One evaluation round-trip; the full response body on success."""
        body = _eval_body(kind, params, seed, request_id)
        status, payload = await self._request("POST", "/v1/eval", body)
        if status != 200:
            raise ServeError.from_payload(status, payload)
        return payload
