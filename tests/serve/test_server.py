"""End-to-end server tests over real sockets.

The asyncio tests run inside ``asyncio.run`` from sync test functions
(no pytest-asyncio dependency); the sync-client tests use the
:class:`ServerThread` harness.
"""

import asyncio
import gc
import json
import math
import os
import socket
import threading
import time
import warnings

import pytest

from repro._version import package_version
from repro.serve import server as server_module
from repro.serve.client import AsyncServeClient, ServeClient, ServeError
from repro.serve.harness import ServerThread
from repro.serve.protocol import errors_result, parse_request, request_to_job
from repro.serve.server import MAX_HEADER_LINES, ServeConfig, Server

SAMPLES = 2048

#: Requests with this seed hold their shard until the ``gate`` fixture opens.
SLOW_SEED = 99


def _uds(tmp_path) -> str:
    return str(tmp_path / "serve.sock")


def _errors_params(width=32, window=8, samples=SAMPLES):
    return {"width": width, "window": window, "samples": samples}


def _direct_result(params, seed):
    """The bit-exact answer a one-shot engine run gives for a request."""
    from repro.engine import run_job

    request = parse_request({"kind": "errors", "params": params, "seed": seed})
    return errors_result(run_job(request_to_job(request)).aggregate)


@pytest.fixture
def gate(monkeypatch):
    """Hold every batch holding a ``SLOW_SEED`` request on its shard thread
    until ``gate.set()``, so a test decides how long the shard stays busy."""
    opened = threading.Event()
    real = server_module.execute_entries

    def gated(kind, entries, *args, **kwargs):
        if any(entry.request.seed == SLOW_SEED for entry in entries):
            assert opened.wait(30), "gate never opened"
        return real(kind, entries, *args, **kwargs)

    monkeypatch.setattr(server_module, "execute_entries", gated)
    yield opened
    opened.set()


async def _evaluate(uds, seed, samples=SAMPLES):
    client = AsyncServeClient(uds=uds)
    try:
        return await client.evaluate("errors", _errors_params(samples=samples), seed=seed)
    finally:
        await client.close()


async def _until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        await asyncio.sleep(0.005)


def test_config_requires_a_listener():
    with pytest.raises(ValueError):
        ServeConfig(port=None, uds=None).validate()
    with pytest.raises(ValueError):
        Server(ServeConfig(uds="/tmp/x.sock", pool_workers=1))


@pytest.mark.parametrize(
    "field, value",
    [("shards", 0), ("shard_depth", 0), ("max_batch", 0), ("drain_timeout_s", -1.0)],
)
def test_config_rejects_out_of_range_sizes(field, value):
    with pytest.raises(ValueError, match=field):
        ServeConfig(uds="/tmp/x.sock", **{field: value}).validate()


def test_requests_parked_behind_a_busy_shard_become_its_next_batch(tmp_path, gate):
    """Under the default config nothing lingers: requests that arrive while
    the only shard is busy wait and leave together as its next batch, and
    answer exactly as the same requests sent solo."""
    uds = _uds(tmp_path)
    seeds = [11, 12, 13, 14, 15, 16]

    async def scenario():
        server = Server(ServeConfig(uds=uds, shards=1))
        await server.start()
        try:
            slow = asyncio.ensure_future(_evaluate(uds, SLOW_SEED))
            await _until(lambda: server._busy[0] == 1)
            burst = [asyncio.ensure_future(_evaluate(uds, seed)) for seed in seeds]
            await _until(lambda: len(server._pending) == len(seeds))
            gate.set()
            parked = await asyncio.gather(*burst)
            await slow
            snapshot = server.metrics_snapshot()
            solo = [await _evaluate(uds, seed) for seed in seeds]
            return parked, solo, snapshot
        finally:
            await server.stop()

    parked, solo, snapshot = asyncio.run(scenario())
    assert [r["result"] for r in parked] == [r["result"] for r in solo]
    burst_batches = snapshot["obs"]["counters"]["serve.batches"] - 1  # minus the slow one
    assert burst_batches <= math.ceil(len(seeds) / ServeConfig.max_batch)
    assert snapshot["slo"]["coalescing_factor"] > 1.0
    assert all(r["server"]["coalesced"] == len(seeds) for r in parked)
    assert all(r["server"]["coalesced"] == 1 for r in solo)


def _linger_spy(monkeypatch):
    """Record every linger the dispatcher enters (and still linger)."""
    lingered = []
    real = Server._linger

    async def spy(self, seconds):
        lingered.append(seconds)
        await real(self, seconds)

    monkeypatch.setattr(Server, "_linger", spy)
    return lingered


def test_idle_shard_takes_a_request_without_lingering(tmp_path, monkeypatch):
    lingered = _linger_spy(monkeypatch)
    uds = _uds(tmp_path)
    with ServerThread(ServeConfig(uds=uds, shards=1)) as handle:
        with ServeClient(uds=uds) as client:
            for seed in (1, 2, 3):
                client.evaluate("errors", _errors_params(samples=64), seed=seed)
        counters = handle.server.metrics_snapshot()["obs"]["counters"]
    assert lingered == []
    assert counters["serve.batches"] == 3

    # The opt-in linger is the path the spy watches, bounded by coalesce_ms.
    with ServerThread(ServeConfig(uds=uds, shards=1, coalesce_ms=5)):
        with ServeClient(uds=uds) as client:
            client.evaluate("errors", _errors_params(samples=64), seed=1)
    assert lingered and all(0 < seconds <= 0.005 for seconds in lingered)


def test_linger_counts_time_parked_behind_a_busy_shard(tmp_path, monkeypatch, gate):
    """A request parked behind a busy shard for longer than coalesce_ms is
    dispatched as soon as the shard frees, without a second linger."""
    lingered = _linger_spy(monkeypatch)
    uds = _uds(tmp_path)

    async def scenario():
        server = Server(ServeConfig(uds=uds, shards=1, coalesce_ms=100))
        await server.start()
        try:
            slow = asyncio.ensure_future(_evaluate(uds, SLOW_SEED, samples=64))
            await _until(lambda: server._busy[0] == 1)
            parked = asyncio.ensure_future(_evaluate(uds, 5, samples=64))
            await _until(lambda: len(server._pending) == 1)
            await asyncio.sleep(0.15)  # parked past its 100 ms linger
            before = len(lingered)
            gate.set()
            await asyncio.gather(slow, parked)
            return before
        finally:
            await server.stop()

    before = asyncio.run(scenario())
    assert before >= 1  # the slow request lingered on the idle shard
    assert len(lingered) == before


def test_stop_flushes_entries_parked_behind_a_busy_shard(tmp_path, gate):
    uds = _uds(tmp_path)

    async def scenario():
        server = Server(ServeConfig(uds=uds, shards=1))
        await server.start()
        slow = asyncio.ensure_future(_evaluate(uds, SLOW_SEED, samples=64))
        await _until(lambda: server._busy[0] == 1)
        parked = [asyncio.ensure_future(_evaluate(uds, seed, samples=64)) for seed in (1, 2, 3)]
        await _until(lambda: len(server._pending) == 3)
        stopping = asyncio.ensure_future(server.stop())
        await _until(lambda: not server._pending)  # flushed while the shard is busy
        gate.set()
        responses = await asyncio.gather(slow, *parked)
        await stopping
        return responses

    responses = asyncio.run(scenario())
    assert [r["seed"] for r in responses] == [SLOW_SEED, 1, 2, 3]
    assert all(r["ok"] for r in responses)


def test_failed_dispatch_answers_500_and_the_dispatcher_survives(tmp_path, monkeypatch):
    real = server_module.plan_batches
    calls = []

    def flaky(entries, max_batch):
        calls.append(len(entries))
        if len(calls) == 1:
            raise ValueError("planted planning failure")
        return real(entries, max_batch)

    monkeypatch.setattr(server_module, "plan_batches", flaky)
    uds = _uds(tmp_path)
    with ServerThread(ServeConfig(uds=uds, shards=1)) as handle:
        with ServeClient(uds=uds) as client:
            with pytest.raises(ServeError) as excinfo:
                client.evaluate("errors", _errors_params(samples=64), seed=1)
            assert excinfo.value.status == 500
            assert excinfo.value.code == "internal"
            assert client.evaluate("errors", _errors_params(samples=64), seed=1)["ok"]
        assert handle.server.metrics_snapshot()["slo"]["work_failures"] == 1


def test_served_errors_on_a_resident_pool_match_one_shot(tmp_path):
    """``pool_workers=2``: each shard computes beside the pool's one forked
    child.  A served ``errors`` request spanning several chunks answers
    exactly as ``run_job`` does, and no pool process outlives the server."""
    uds = _uds(tmp_path)
    params = _errors_params(samples=4 << 16)  # four default-size chunks
    with ServerThread(ServeConfig(uds=uds, shards=1, pool_workers=2)) as handle:
        procs = list(handle.server.shards.pool._procs)
        assert len(procs) == 1 and procs[0].is_alive()
        with ServeClient(uds=uds) as client:
            served = [client.evaluate("errors", params, seed=seed) for seed in (3, 4)]
    assert [r["result"] for r in served] == [_direct_result(params, seed) for seed in (3, 4)]
    assert not any(proc.is_alive() for proc in procs)


def test_coalesced_equals_solo_equals_one_shot(tmp_path):
    """The tentpole determinism claim: N concurrent requests coalesced
    into one batch answer bit-identically to a solo request and to a
    direct one-shot engine run."""
    uds = _uds(tmp_path)

    async def scenario():
        server = Server(
            ServeConfig(uds=uds, shards=2, coalesce_ms=40, max_pending=256)
        )
        await server.start()
        try:
            async def one(seed):
                client = AsyncServeClient(uds=uds)
                try:
                    return await client.evaluate(
                        "errors", _errors_params(), seed=seed
                    )
                finally:
                    await client.close()

            # Burst: several seeds, duplicated, all inside one coalescing
            # window -> dedup + batching both engage.
            seeds = [5, 6, 5, 7, 6, 5]
            coalesced = await asyncio.gather(*(one(seed) for seed in seeds))
            # Solo: same requests far apart (each its own batch).
            solo = [await one(seed) for seed in (5, 6, 7)]
            metrics = server.metrics_snapshot()
            return coalesced, solo, metrics
        finally:
            await server.stop()

    coalesced, solo, metrics = asyncio.run(scenario())
    by_seed = {response["seed"]: response["result"] for response in solo}
    for response in coalesced:
        assert response["result"] == by_seed[response["seed"]]
    for seed in (5, 6, 7):
        assert by_seed[seed] == _direct_result(_errors_params(), seed)
    # The burst coalesced: nine requests cannot have taken nine batches.
    assert metrics["slo"]["coalescing_factor"] > 1.0
    assert metrics["slo"]["dedup_joins"] >= 2


def test_backpressure_sheds_with_wellformed_error(tmp_path):
    """Past the admission cap requests get an immediate, well-formed 429
    — the overload path answers, never hangs."""
    uds = _uds(tmp_path)

    async def scenario():
        server = Server(
            ServeConfig(uds=uds, shards=1, coalesce_ms=300, max_pending=3)
        )
        await server.start()
        try:
            async def one(i):
                client = AsyncServeClient(uds=uds)
                try:
                    return await client.evaluate(
                        "errors", _errors_params(samples=256), seed=i
                    )
                except ServeError as exc:
                    return exc
                finally:
                    await client.close()

            return await asyncio.gather(*(one(i) for i in range(8)))
        finally:
            await server.stop()

    outcomes = asyncio.run(scenario())
    ok = [o for o in outcomes if isinstance(o, dict)]
    shed = [o for o in outcomes if isinstance(o, ServeError)]
    assert ok and shed, "expected both served and shed requests"
    for error in shed:
        assert error.status == 429
        assert error.code == "overloaded"
    assert len(ok) <= 3  # nothing above the cap was admitted


def test_http_surface_and_version(tmp_path):
    uds = _uds(tmp_path)
    with ServerThread(ServeConfig(uds=uds, shards=1, coalesce_ms=0)):
        with ServeClient(uds=uds) as client:
            hello = client.hello()
            assert hello["service"] == "repro.serve"
            assert hello["version"] == package_version()
            assert "/v1/eval" in hello["endpoints"]

            health = client.health()
            assert health == {"ok": True, "draining": False}

            response = client.evaluate("errors", _errors_params(), seed=5)
            assert response["ok"] is True
            assert response["server"]["version"] == package_version()
            assert response["provenance"]["repro_version"] == package_version()
            assert response["result"]["samples"] == SAMPLES

            metrics = client.metrics()
            assert metrics["slo"]["ok"] == 1
            assert metrics["slo"]["latency_ms"]["p99"] > 0
            assert metrics["server"]["version"] == package_version()


def test_client_keeps_one_copy_of_each_field_name(tmp_path):
    uds = _uds(tmp_path)
    with ServerThread(ServeConfig(uds=uds, shards=1)):
        with ServeClient(uds=uds) as client:
            first, second = (
                client.evaluate("errors", _errors_params(samples=64), seed=seed)["result"]
                for seed in (1, 2)
            )
    assert first.keys() == second.keys()
    assert all(a is b for a, b in zip(first, second))


def test_http_error_paths(tmp_path):
    uds = _uds(tmp_path)
    with ServerThread(ServeConfig(uds=uds, shards=1)):
        with ServeClient(uds=uds) as client:
            with pytest.raises(ServeError) as excinfo:
                client.evaluate("errors", {"width": 32})  # samples missing
            assert excinfo.value.status == 400
            assert excinfo.value.code == "bad-param"

            # Jobs that cannot run are refused at parse time, not as 500s.
            for params in ({"width": 128, "window": 70, "samples": 16},
                           {"width": 32, "distribution": "gaussian", "samples": 16}):
                with pytest.raises(ServeError) as excinfo:
                    client.evaluate("errors", params)
                assert excinfo.value.status == 400
                assert excinfo.value.code == "bad-param"

            status, payload = client._request("POST", "/v1/eval", b"not json")
            assert status == 400 and payload["error"]["code"] == "bad-json"

            status, payload = client._request("GET", "/nope")
            assert status == 404 and payload["error"]["code"] == "not-found"


def test_magnitude_is_not_a_served_counter(tmp_path):
    """``"magnitude"`` is a library and CLI counter only: a served request
    for it is a 400, like any unknown counter."""
    uds = _uds(tmp_path)
    with ServerThread(ServeConfig(uds=uds, shards=1)):
        with ServeClient(uds=uds) as client:
            for counters in (["magnitude"], ["scsa1", "magnitude"]):
                with pytest.raises(ServeError) as excinfo:
                    client.evaluate("errors", dict(_errors_params(), counters=counters))
                assert excinfo.value.status == 400
                assert excinfo.value.code == "bad-param"


def test_served_measure_of_a_plain_adder(tmp_path):
    """Every design ``build_design`` builds is measurable over the wire,
    with the same row ``measure_design`` gives."""
    from repro.engine.elab import measure_design
    from repro.serve.protocol import measure_result

    uds = _uds(tmp_path)
    with ServerThread(ServeConfig(uds=uds, shards=1)):
        with ServeClient(uds=uds) as client:
            body = client.evaluate("measure", {"architecture": "brent_kung", "width": 16})
    expected = measure_result(measure_design("brent_kung", 16))
    assert {k: body["result"][k] for k in expected} == expected
    assert body["result"]["t_spec"] is None


def test_tcp_listener(tmp_path):
    with ServerThread(ServeConfig(port=0, shards=1)) as handle:
        assert handle.bound_port
        with ServeClient(port=handle.bound_port) as client:
            assert client.hello()["service"] == "repro.serve"


def test_graceful_drain_answers_inflight_and_removes_socket(tmp_path):
    uds = _uds(tmp_path)

    async def scenario():
        server = Server(ServeConfig(uds=uds, shards=1, coalesce_ms=100))
        await server.start()

        async def one():
            client = AsyncServeClient(uds=uds)
            try:
                return await client.evaluate("errors", _errors_params(), seed=5)
            finally:
                await client.close()

        task = asyncio.ensure_future(one())
        await asyncio.sleep(0.02)  # request is parked in the coalescer
        await server.stop()  # drain must flush and answer it
        return await task

    response = asyncio.run(scenario())
    assert response["ok"] is True
    import os

    assert not os.path.exists(uds)


def test_stop_closes_idle_keep_alive_connections(tmp_path):
    """A keep-alive client idling between requests sees EOF once stop()
    has drained, and no socket or transport is left unclosed."""
    uds = _uds(tmp_path)

    async def scenario():
        server = Server(ServeConfig(uds=uds, shards=1))
        await server.start()
        reader, writer = await asyncio.open_unix_connection(uds)
        try:
            writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
            head = await reader.readuntil(b"\r\n\r\n")
            length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
            await reader.readexactly(length)
            await asyncio.wait_for(server.stop(), 10)
            return head, await asyncio.wait_for(reader.read(), 10)
        finally:
            writer.close()
            await writer.wait_closed()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        head, rest = asyncio.run(scenario())
        gc.collect()
    assert b"Connection: keep-alive" in head
    assert rest == b""
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_draining_server_refuses_new_work(tmp_path):
    uds = _uds(tmp_path)

    async def scenario():
        server = Server(ServeConfig(uds=uds, shards=1))
        await server.start()
        server._draining = True  # as during stop()
        client = AsyncServeClient(uds=uds)
        try:
            await client.evaluate("errors", _errors_params(samples=64))
        except ServeError as exc:
            return exc
        finally:
            await client.close()
            server._draining = False
            await server.stop()

    error = asyncio.run(scenario())
    assert error.status == 503 and error.code == "draining"


def test_stale_unix_socket_is_replaced(tmp_path):
    uds = _uds(tmp_path)
    stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    stale.bind(uds)
    stale.close()  # leaves the filesystem entry behind
    with ServerThread(ServeConfig(uds=uds, shards=1)):
        with ServeClient(uds=uds) as client:
            assert client.health()["ok"] is True


def test_socket_path_appears_only_once_it_accepts(tmp_path, monkeypatch):
    """A client that connects the moment the path exists is never refused,
    even with the bind-to-listen gap widened to 50 ms."""
    uds = _uds(tmp_path)
    listen = socket.socket.listen

    def slow_listen(sock, *args):
        time.sleep(0.05)
        return listen(sock, *args)

    monkeypatch.setattr(socket.socket, "listen", slow_listen)
    outcome = []

    def connect_on_sight():
        deadline = time.monotonic() + 30
        while not os.path.exists(uds):
            if time.monotonic() > deadline:
                outcome.append("no socket")
                return
            time.sleep(0.0002)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            try:
                client.connect(uds)
                outcome.append("connected")
            except ConnectionRefusedError:
                outcome.append("refused")

    watcher = threading.Thread(target=connect_on_sight)
    watcher.start()

    async def scenario():
        server = Server(ServeConfig(uds=uds, shards=1))
        try:
            await server.start()
            await asyncio.get_running_loop().run_in_executor(None, watcher.join)
        finally:
            await server.stop()

    asyncio.run(scenario())
    assert outcome == ["connected"]


def test_metrics_snapshot_counts_sheds(tmp_path):
    uds = _uds(tmp_path)
    with ServerThread(
        ServeConfig(uds=uds, shards=1, coalesce_ms=0, max_pending=1)
    ) as handle:
        with ServeClient(uds=uds) as client:
            client.evaluate("errors", _errors_params(samples=64), seed=1)
        snapshot = handle.server.metrics_snapshot()
        assert snapshot["slo"]["requests"] == 1
        assert snapshot["slo"]["shed_rate"] == 0.0
        queue_wait = snapshot["slo"]["queue_wait_ms"]
        assert queue_wait["count"] == 1
        assert 0 <= queue_wait["p50"] <= queue_wait["p99"]
        assert json.dumps(snapshot, default=float)  # JSON-serializable


def _raw_exchange(uds: str, head: bytes) -> tuple:
    """Send raw request bytes; return ``(status, json body)`` of the reply
    and whether the server then closed the connection."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(10)
        sock.connect(uds)
        sock.sendall(head)
        data = b""
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break  # the server closed with part of our request unread
            if not chunk:
                break
            data += chunk
    head_bytes, _, body = data.partition(b"\r\n\r\n")
    status_line, *header_lines = head_bytes.decode("latin-1").split("\r\n")
    headers = dict(
        (name.strip().lower(), value.strip())
        for name, _, value in (line.partition(":") for line in header_lines)
    )
    assert int(headers["content-length"]) == len(body)
    return int(status_line.split()[1]), json.loads(body), headers["connection"]


@pytest.mark.parametrize(
    "length, status, code",
    [
        ("twelve", 400, "bad-content-length"),
        ("-5", 400, "bad-content-length"),
        ("1e3", 400, "bad-content-length"),
        (str((1 << 20) + 1), 413, "body-too-large"),
    ],
)
def test_bad_content_length_gets_wellformed_error(tmp_path, length, status, code):
    uds = _uds(tmp_path)
    with ServerThread(ServeConfig(uds=uds, shards=1)):
        request = (
            f"POST /v1/eval HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        ).encode("latin-1")
        got_status, payload, connection = _raw_exchange(uds, request)
        assert got_status == status
        assert payload["ok"] is False
        assert payload["error"]["code"] == code
        assert connection == "close"
        # The server stays up and answers the next client normally.
        with ServeClient(uds=uds) as client:
            assert client.health()["ok"] is True
            assert client.metrics()["slo"]["bad_requests"] >= 1


@pytest.mark.parametrize(
    "head",
    [
        # One header line past the stream reader's 64 KiB line limit.
        b"POST /v1/eval HTTP/1.1\r\nX-Padding: " + b"a" * 70000 + b"\r\n\r\n",
        # An over-long request line.
        b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n",
        # More header lines than the server reads.
        b"GET / HTTP/1.1\r\n"
        + b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADER_LINES + 1))
        + b"\r\n",
    ],
    ids=["long-header-line", "long-request-line", "too-many-headers"],
)
def test_oversized_headers_get_431(tmp_path, head):
    uds = _uds(tmp_path)
    with ServerThread(ServeConfig(uds=uds, shards=1)):
        got_status, payload, connection = _raw_exchange(uds, head)
        assert got_status == 431
        assert payload["ok"] is False
        assert payload["error"]["code"] == "headers-too-large"
        assert connection == "close"
        with ServeClient(uds=uds) as client:
            assert client.health()["ok"] is True
            assert client.metrics()["slo"]["bad_requests"] == 1


def test_header_count_at_the_limit_is_served(tmp_path):
    uds = _uds(tmp_path)
    with ServerThread(ServeConfig(uds=uds, shards=1)):
        head = (
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n"
            + b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADER_LINES - 1))
            + b"\r\n"
        )
        got_status, payload, connection = _raw_exchange(uds, head)
        assert got_status == 200
        assert payload["ok"] is True


def test_request_stalled_mid_read_gets_408(tmp_path, monkeypatch):
    monkeypatch.setattr(server_module, "REQUEST_READ_TIMEOUT_S", 0.2)
    uds = _uds(tmp_path)
    with ServerThread(ServeConfig(uds=uds, shards=1)):
        got_status, payload, connection = _raw_exchange(uds, b"POST /v1/ev")
        assert got_status == 408
        assert payload["ok"] is False
        assert payload["error"]["code"] == "request-timeout"
        assert connection == "close"
        # The deadline starts at a request's first byte: an idle keep-alive
        # connection outlives it.
        with ServeClient(uds=uds) as client:
            assert client.health()["ok"] is True
            time.sleep(0.3)
            assert client.metrics()["slo"]["bad_requests"] == 1
