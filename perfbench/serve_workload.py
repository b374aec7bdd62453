"""The ``serve-closed`` workload: ``repro serve`` under a closed loop.

A ``python -m repro serve --uds ... --shards 2`` subprocess is driven by
two persistent connections from one asyncio client thread; each sends its
next request only after the previous answer arrived.  The request menu
mixes Monte Carlo ``errors``, gate-level ``sim`` and repeated ``measure``
points; request seeds are drawn from 2**31, so identical requests (and
with them deduplication) are rare.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from report import Metric, Summary, latency_metrics
from tracing import measured_pass

#: (weight, kind, params) of the request menu.
MENU = (
    (2, "errors", {"width": 64, "window": 8, "samples": 16384}),
    (1, "errors", {"width": 256, "window": 12, "samples": 4096}),
    (2, "sim", {"architecture": "vlcsa1", "width": 64, "window": 8, "vectors": 1024}),
    (1, "sim", {"architecture": "vlcsa2", "width": 64, "window": 8, "vectors": 64}),
    (1, "measure", {"architecture": "vlcsa1", "width": 64, "window": 8}),
    (1, "measure", {"architecture": "designware", "width": 64}),
)

#: Smaller errors/sim requests for the smoke test.
TINY_MENU = (
    (1, "errors", {"width": 64, "window": 8, "samples": 1024}),
    (1, "sim", {"architecture": "vlcsa1", "width": 64, "window": 8, "vectors": 64}),
    (1, "measure", {"architecture": "vlcsa1", "width": 64, "window": 8}),
)

CONNECTIONS = 2

#: Responses of each kind re-evaluated in-process after the timed phase.
CHECKED_RESPONSES = 8

#: Requests in the (single-connection) traced pass.
TRACE_REQUESTS = 150

_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0


class ServeClosed:
    """Two closed-loop connections against a ``repro serve`` subprocess."""

    name = "serve-closed"

    def __init__(self, seed: int, workdir, tiny: bool = False, plant: str = ""):
        self.rng = random.Random(seed)
        self.check_rng = random.Random(seed ^ 0x5EED)
        self.trace_seed = seed
        self.workdir = workdir
        self.menu = TINY_MENU if tiny else MENU
        self.trace_requests = 12 if tiny else TRACE_REQUESTS
        self.plant = plant
        self.socket = os.path.relpath(workdir / f"serve-{os.getpid()}.sock")
        self.proc: Optional[subprocess.Popen] = None
        self.log = None
        self.loop = None
        self.clients: list = []
        # One entry per request: (kind, params, seed, latency_ms, result|None).
        self.records: List[tuple] = []
        self.wall_s = 0.0
        self.slo: Dict[str, object] = {}

    def _draw(self, rng: random.Random) -> Tuple[str, dict, int]:
        weights = [w for w, _, _ in self.menu]
        _, kind, params = rng.choices(self.menu, weights=weights)[0]
        return kind, params, rng.getrandbits(31)

    # -- set-up and tear-down ---------------------------------------------

    def setup(self) -> None:
        """Start the server, connect both clients, warm every menu entry."""
        import asyncio

        from repro.serve.client import AsyncServeClient

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        self.log = open(self.workdir / f"serve-{os.getpid()}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--uds", self.socket,
             "--shards", "2", "--no-disk-cache"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.log,
        )
        deadline = time.perf_counter() + _START_TIMEOUT_S
        while not os.path.exists(self.socket):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("repro serve did not come up; see its log")
            time.sleep(0.005)
        self.loop = asyncio.new_event_loop()
        self.clients = [AsyncServeClient(uds=self.socket) for _ in range(CONNECTIONS)]
        for client in self.clients:
            self.loop.run_until_complete(client.health())
        for _, kind, params in self.menu:
            self.loop.run_until_complete(self.clients[0].evaluate(kind, params, seed=1))

    def close(self) -> None:
        """Close the clients, SIGTERM the server and wait for it to drain."""
        if self.loop is not None:
            for client in self.clients:
                self.loop.run_until_complete(client.close())
            self.loop.close()
            self.loop = None
        clean = False
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                clean = self.proc.wait(timeout=_STOP_TIMEOUT_S) == 0
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc = None
        if self.log is not None:
            self.log.close()
            if clean:  # keep the server's log only when it did not drain cleanly
                os.unlink(self.log.name)
            self.log = None

    # -- timed phase -------------------------------------------------------

    async def _connection(self, client, deadline: float) -> None:
        from repro.serve.client import ServeError

        sent = 0
        while sent == 0 or time.perf_counter() < deadline:
            sent += 1
            kind, params, seed = self._draw(self.rng)
            start = time.perf_counter()
            try:
                response = await client.evaluate(kind, params, seed=seed)
                result = response["result"]
            except (ServeError, OSError, EOFError, KeyError):
                result = None
            latency_ms = (time.perf_counter() - start) * 1e3
            self.records.append((kind, params, seed, latency_ms, result))

    async def _closed_loop(self, seconds: float) -> None:
        import asyncio

        start = time.perf_counter()
        deadline = start + seconds
        await asyncio.gather(*(self._connection(c, deadline) for c in self.clients))
        self.wall_s = time.perf_counter() - start
        self.slo = (await self.clients[0].metrics())["slo"]

    def run(self, seconds: float) -> None:
        self.loop.run_until_complete(self._closed_loop(seconds))

    # -- checks and figures -----------------------------------------------

    def check(self) -> List[str]:
        """Sampled ``errors`` and ``sim`` answers, recomputed in-process."""
        from repro.engine import run_job
        from repro.engine.elab import simulate_design
        from repro.serve import protocol

        problems = []
        for kind in ("errors", "sim"):
            answered = [r for r in self.records if r[0] == kind and r[4] is not None]
            picked = self.check_rng.sample(answered, min(CHECKED_RESPONSES, len(answered)))
            for n, (_, params, seed, _, result) in enumerate(picked):
                if self.plant == "sim" and kind == "sim" and n == 0:
                    result = dict(result, digest="0" * 64)
                request = protocol.parse_request(
                    {"kind": kind, "params": params, "seed": seed}
                )
                if kind == "errors":
                    aggregate = run_job(protocol.request_to_job(request)).aggregate
                    expected = protocol.errors_result(aggregate)
                else:
                    p = request.param_dict()
                    expected = simulate_design(
                        p["architecture"], p["width"], p.get("window"),
                        vectors=p["vectors"], seed=seed, backend=p["backend"],
                    )
                if expected != result:
                    problems.append(f"{kind} {params} seed {seed}: served result "
                                    f"differs from the in-process evaluation")
        return problems

    def summary(self) -> Summary:
        ok = [r[3] for r in self.records if r[4] is not None]
        failed = len(self.records) - len(ok)
        extra = [Metric("serve_rps", len(ok) / self.wall_s, "1/s", len(ok),
                        f"answered requests, {CONNECTIONS} closed-loop connections")]
        extra += latency_metrics("serve_ms", ok, "request latency")
        for name in ("coalescing_factor", "cache_hit_rate", "shed"):
            value = self.slo.get(name)
            extra.append(Metric(f"server.{name}", float(value or 0.0), "ratio"
                                if name != "shed" else "count",
                                int(self.slo.get("requests", 0)), "from GET /metrics"))
        return Summary(
            work=len(ok), work_s=self.wall_s, work_unit="answered requests",
            op_ms=ok, op_label="request latency",
            attempted=len(self.records), failed=failed, extra=extra,
        )

    def layer_counters(self) -> Dict[str, float]:
        """The server's own coalescing, cache and shed counters."""
        return {
            "serve.coalescing_factor": float(self.slo.get("coalescing_factor") or 0.0),
            "serve.cache_hit_rate": float(self.slo.get("cache_hit_rate") or 0.0),
            "serve.shed": float(self.slo.get("shed") or 0.0),
        }

    # -- traced pass --------------------------------------------------------

    def trace_pass(self, tracer) -> Dict[str, float]:
        """A fixed request list over one connection to an in-process server.

        One request in flight at a time keeps the spans of the event-loop
        thread (parse) and the shard thread (execute) inside the client's
        request span, so self times add up.
        """
        import repro.engine.elab as elab
        from repro.engine.jobs import process_cache
        from repro.serve.client import ServeClient
        from repro.serve.harness import ServerThread
        from repro.serve.server import ServeConfig

        rng = random.Random(self.trace_seed)
        requests = [self._draw(rng) for _ in range(self.trace_requests)]
        sock = os.path.relpath(self.workdir / f"trace-{os.getpid()}.sock")
        handle = ServerThread(ServeConfig(uds=sock, shards=2)).start()
        out: Dict[str, float] = {}
        try:
            client = ServeClient(uds=sock)
            for _, kind, params in self.menu:
                client.evaluate(kind, params, seed=1)
            sim_before = elab._sim_circuit.cache_info()
            measure_before = dict(process_cache(None).counters())
            with measured_pass(tracer, out):
                for kind, params, seed in requests:
                    with tracer.span("serve.client_request"):
                        client.evaluate(kind, params, seed=seed)
            sim_after = elab._sim_circuit.cache_info()
            measure_after = process_cache(None).counters()
            client.close()
        finally:
            handle.stop()
        hits = (sim_after.hits - sim_before.hits) + (
            measure_after.get("cache_hits", 0) - measure_before.get("cache_hits", 0))
        misses = (sim_after.misses - sim_before.misses) + (
            measure_after.get("cache_misses", 0) - measure_before.get("cache_misses", 0))
        out["elab.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        if tracer.enabled:
            execute = {}
            for _, parent, dur in tracer.durations("serve.execute"):
                execute[parent] = execute.get(parent, 0.0) + dur
            overhead = [dur - execute.get(sid, 0.0)
                        for sid, _, dur in tracer.durations("serve.client_request")]
            out["serve.overhead_ms"] = 1e3 * sum(overhead) / len(overhead)
        return out
