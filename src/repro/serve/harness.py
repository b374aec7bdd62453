"""Embedding harness: run a :class:`Server` on a background thread.

Tests, benchmarks, and host applications that are not themselves async
use this to stand a real server up (own event loop, real sockets) and
talk to it with the blocking :class:`ServeClient`:

    with ServerThread(ServeConfig(uds=path)) as handle:
        client = ServeClient(uds=path)
        client.evaluate("errors", {...})

``__exit__`` performs the same graceful drain as SIGTERM would: pending
work is flushed, in-flight requests answer, shard threads stop, then the
server's resident pool (``handle.server.pool``, when configured) closes.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from repro.serve.server import ServeConfig, Server


class ServerThread:
    """A live server on a daemon thread; start/stop are synchronous."""

    def __init__(self, config: ServeConfig):
        self.server = Server(config)
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    @property
    def bound_port(self) -> Optional[int]:
        return self.server.bound_port

    def start(self, timeout: float = 10.0) -> "ServerThread":
        """Start the thread; raise if the server fails to come up."""
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), name="serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server thread did not come up")
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error}")
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.server.stop()

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the server and join the thread."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
