"""End-to-end server tests over real sockets.

The asyncio tests run inside ``asyncio.run`` from sync test functions
(no pytest-asyncio dependency); the sync-client tests use the
:class:`ServerThread` harness.
"""

import asyncio
import json
import socket

import pytest

from repro._version import package_version
from repro.serve.client import AsyncServeClient, ServeClient, ServeError
from repro.serve.harness import ServerThread
from repro.serve.protocol import errors_result, parse_request, request_to_job
from repro.serve.server import MAX_HEADER_LINES, ServeConfig, Server

SAMPLES = 2048


def _uds(tmp_path) -> str:
    return str(tmp_path / "serve.sock")


def _errors_params(width=32, window=8, samples=SAMPLES):
    return {"width": width, "window": window, "samples": samples}


def _direct_result(params, seed):
    """The bit-exact answer a one-shot engine run gives for a request."""
    from repro.engine import run_job

    request = parse_request({"kind": "errors", "params": params, "seed": seed})
    return errors_result(run_job(request_to_job(request)).aggregate)


def test_config_requires_a_listener():
    with pytest.raises(ValueError):
        ServeConfig(port=None, uds=None).validate()
    with pytest.raises(ValueError):
        Server(ServeConfig(uds="/tmp/x.sock", pool_workers=1))


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


def test_http_error_paths(tmp_path):
    uds = _uds(tmp_path)
    with ServerThread(ServeConfig(uds=uds, shards=1)):
        with ServeClient(uds=uds) as client:
            with pytest.raises(ServeError) as excinfo:
                client.evaluate("errors", {"width": 32})  # samples missing
            assert excinfo.value.status == 400
            assert excinfo.value.code == "bad-param"

            status, payload = client._request("POST", "/v1/eval", b"not json")
            assert status == 400 and payload["error"]["code"] == "bad-json"

            status, payload = client._request("GET", "/nope")
            assert status == 404 and payload["error"]["code"] == "not-found"


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
