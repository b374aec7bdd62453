"""repro.serve — adder evaluation as a service.

The paper's variable-latency trade (rare slow cases for high average
throughput) is a service-level idea, and the DesignWare-style "virtual
synthesis" selection flow is an online query workload: *given a width, an
input distribution, and an error target, evaluate this design point*.
This package turns the batch engine into that long-lived service:

* **protocol** (:mod:`repro.serve.protocol`) — versioned JSON request /
  response schemas with provenance blocks, plus the coalescing keys
  (identity for dedup, affinity for shard routing);
* **coalescer** (:mod:`repro.serve.coalescer`) — folds compatible pending
  requests into engine batch jobs: identical requests are deduplicated
  into one evaluation fanned out to every waiter, compatible ones ride
  one engine submission;
* **shards** (:mod:`repro.serve.shards`) — persistent worker shards with
  bounded queues; requests route by affinity hash so repeat design points
  land on warm :class:`ElaborationCache`/kernel caches — no per-request
  elaboration;
* **server** (:mod:`repro.serve.server`) — a stdlib-``asyncio`` HTTP/1.1
  server (TCP and/or unix socket) with admission control, 429-style shed
  responses, graceful drain on SIGTERM, and a ``/metrics`` JSON endpoint
  tracking SLOs (p50/p99 latency and shard queue wait, coalescing
  factor, cache hit rate, shed rate, per-shard saturation) through
  :mod:`repro.obs`;
* **client** (:mod:`repro.serve.client`) — sync and async clients;
* **loadgen** (:mod:`repro.serve.loadgen`) — a seeded open-loop workload
  driver emitting a provenance-stamped SLO report.

Determinism is preserved end to end: every request carries its own seed,
chunk streams depend only on ``(seed, chunk index)``, so a response is
bit-identical whether the request was coalesced into a batch, served
alone, or run through the one-shot ``repro engine`` CLI.
"""

from repro.serve.client import AsyncServeClient, ServeClient, ServeError
from repro.serve.coalescer import plan_batches
from repro.serve.harness import ServerThread
from repro.serve.loadgen import LoadgenConfig, run_loadgen
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    EvalRequest,
    ProtocolError,
    affinity_key,
    identity_key,
    parse_request,
    request_to_job,
)
from repro.serve.server import ServeConfig, Server
from repro.serve.shards import ShardSet, execute_entries

__all__ = [
    "AsyncServeClient",
    "EvalRequest",
    "LoadgenConfig",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "Server",
    "ServerThread",
    "ShardSet",
    "affinity_key",
    "execute_entries",
    "identity_key",
    "parse_request",
    "plan_batches",
    "request_to_job",
    "run_loadgen",
]
