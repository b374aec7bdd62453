"""Versioned JSON request/response schemas for the evaluation service.

A request names an evaluation *kind* plus its parameters and a seed; the
protocol layer validates it into a frozen :class:`EvalRequest`, derives
the two keys the scheduler needs —

* :func:`identity_key` — the full canonical parameter tuple *including*
  the seed and sample budget: two requests with equal identity keys are
  the same computation, so the coalescer runs it once and fans the result
  out to every waiter;
* :func:`affinity_key` — the elaboration/cache-locality tuple (no seed,
  no budget): requests sharing it route to the same shard, whose process
  caches stay warm for the design point;

— and renders responses.  Every successful response carries the engine
result, a ``server`` block (version, shard, coalescing factor, protocol
version), and a provenance block, so a served number is as auditable as a
``--json`` CLI report.

Schema evolution: ``PROTOCOL_VERSION`` is a single integer; a request may
pin it with ``"proto"`` and is rejected (HTTP 400, code
``unsupported-proto``) on mismatch rather than mis-parsed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

#: Bump on incompatible request/response layout changes.
PROTOCOL_VERSION = 1

#: Evaluation kinds the service understands.
KINDS = ("errors", "measure", "sim", "longrun")

#: Hard admission cap on the Monte Carlo budget of one request: larger
#: studies belong on the batch CLI, not a latency-bound service.
MAX_SAMPLES_PER_REQUEST = 1 << 24

#: Admission cap for ``longrun`` requests: these execute through the
#: durable checkpointed runner (server ``--job-root``), so a shard/server
#: restart resumes instead of restarting — billion-sample budgets are in
#: scope.
MAX_SAMPLES_PER_LONGRUN = 1 << 34

#: Hard admission cap on one ``sim`` request's vector budget: big enough
#: that the vectorized backend is exercised at scale, small enough that
#: a single request cannot hog a shard.
MAX_VECTORS_PER_REQUEST = 1 << 16

_DEFAULT_SEED = 2012


class ProtocolError(ValueError):
    """A malformed or unsupported request; carries a stable error code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class EvalRequest:
    """One validated evaluation request.

    ``params`` is canonicalized to a sorted tuple of ``(key, value)``
    pairs so the dataclass stays hashable and two requests with equal
    parameters compare equal regardless of client-side key order.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...]
    seed: int
    request_id: str = ""

    def param_dict(self) -> Dict[str, Any]:
        """The request parameters as a plain dict."""
        return dict(self.params)


def _canon_params(params: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    canon = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, list):
            value = tuple(value)
        canon.append((str(key), value))
    return tuple(canon)


def _require_int(params: Mapping[str, Any], name: str, minimum: int, maximum: int) -> int:
    value = params.get(name)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError("bad-param", f"{name!r} must be an integer")
    if not minimum <= value <= maximum:
        raise ProtocolError(
            "bad-param", f"{name!r} must be in [{minimum}, {maximum}], got {value}"
        )
    return value


def parse_request(payload: Any) -> EvalRequest:
    """Validate one decoded JSON request body into an :class:`EvalRequest`.

    Raises :class:`ProtocolError` (never a bare KeyError/TypeError) on any
    malformed input, so the server can answer 400 with a stable code.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("bad-request", "request body must be a JSON object")
    proto = payload.get("proto", PROTOCOL_VERSION)
    if proto != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported-proto",
            f"protocol version {proto!r} unsupported (server speaks {PROTOCOL_VERSION})",
        )
    kind = payload.get("kind")
    if kind not in KINDS:
        raise ProtocolError("bad-kind", f"unknown kind {kind!r}; choose from {KINDS}")
    params = payload.get("params")
    if not isinstance(params, dict):
        raise ProtocolError("bad-param", "'params' must be a JSON object")
    seed = payload.get("seed", _DEFAULT_SEED)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ProtocolError("bad-param", "'seed' must be a non-negative integer")
    request_id = payload.get("id", "")
    if not isinstance(request_id, str) or len(request_id) > 128:
        raise ProtocolError("bad-param", "'id' must be a string of <= 128 chars")

    if kind == "errors":
        params = _validate_errors_params(params)
    elif kind == "longrun":
        params = _validate_errors_params(params, samples_cap=MAX_SAMPLES_PER_LONGRUN)
    elif kind == "sim":
        params = _validate_sim_params(params)
    else:
        params = _validate_measure_params(params)
    request = EvalRequest(
        kind=kind, params=_canon_params(params), seed=seed, request_id=request_id
    )
    if kind in ("errors", "longrun"):
        try:
            request_to_job(request)  # the job's own checks: window, sigma headroom
        except ValueError as exc:
            raise ProtocolError("bad-param", str(exc)) from None
    return request


def _validate_errors_params(
    params: Mapping[str, Any], samples_cap: int = MAX_SAMPLES_PER_REQUEST
) -> Dict[str, Any]:
    from repro.engine.jobs import _DISTRIBUTIONS, _ERROR_COUNTERS

    width = _require_int(params, "width", 2, 4096)
    out: Dict[str, Any] = {"width": width}
    if params.get("window") is not None:
        out["window"] = _require_int(params, "window", 1, width)
    out["samples"] = _require_int(params, "samples", 1, samples_cap)
    distribution = params.get("distribution", "uniform")
    if distribution not in _DISTRIBUTIONS:
        raise ProtocolError(
            "bad-param",
            f"unknown distribution {distribution!r}; choose from {_DISTRIBUTIONS}",
        )
    out["distribution"] = distribution
    counters = params.get("counters")
    if counters is not None:
        if not isinstance(counters, (list, tuple)) or not all(
            c in _ERROR_COUNTERS for c in counters
        ):
            raise ProtocolError(
                "bad-param", f"'counters' must be a subset of {_ERROR_COUNTERS}"
            )
        out["counters"] = tuple(counters)
    unknown = set(params) - {"width", "window", "samples", "distribution", "counters"}
    if unknown:
        raise ProtocolError("bad-param", f"unknown errors params {sorted(unknown)}")
    return out


def _validate_measure_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.engine.elab import SWEEPABLE_DESIGNS, WINDOWED_DESIGNS

    architecture = params.get("architecture")
    known = list(SWEEPABLE_DESIGNS)
    if architecture not in known:
        raise ProtocolError(
            "bad-param", f"unknown architecture {architecture!r}; choose from {known}"
        )
    width = _require_int(params, "width", 2, 4096)
    out: Dict[str, Any] = {"architecture": architecture, "width": width}
    if architecture in WINDOWED_DESIGNS:
        if params.get("window") is not None:
            out["window"] = _require_int(params, "window", 1, width)
        else:
            from repro.analysis.sizing import default_window

            out["window"] = default_window(width)
    elif params.get("window") is not None:
        raise ProtocolError(
            "bad-param", f"design {architecture!r} takes no window parameter"
        )
    unknown = set(params) - {"architecture", "width", "window"}
    if unknown:
        raise ProtocolError("bad-param", f"unknown measure params {sorted(unknown)}")
    return out


def _validate_sim_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.engine.elab import WINDOWED_DESIGNS, grid_designs
    from repro.netlist.simulate import BACKENDS

    architecture = params.get("architecture")
    known = grid_designs()
    if architecture not in known:
        raise ProtocolError(
            "bad-param",
            f"unknown architecture {architecture!r}; choose from {list(known)}",
        )
    width = _require_int(params, "width", 2, 4096)
    out: Dict[str, Any] = {"architecture": architecture, "width": width}
    if params.get("window") is not None:
        if architecture not in WINDOWED_DESIGNS:
            raise ProtocolError(
                "bad-param", f"design {architecture!r} takes no window parameter"
            )
        out["window"] = _require_int(params, "window", 1, width)
    if params.get("vectors") is not None:
        out["vectors"] = _require_int(
            params, "vectors", 1, MAX_VECTORS_PER_REQUEST
        )
    else:
        out["vectors"] = 1024
    backend = params.get("backend", "auto")
    if backend not in BACKENDS:
        raise ProtocolError(
            "bad-param",
            f"unknown backend {backend!r}; choose from {BACKENDS}",
        )
    out["backend"] = backend
    unknown = set(params) - {"architecture", "width", "window", "vectors", "backend"}
    if unknown:
        raise ProtocolError("bad-param", f"unknown sim params {sorted(unknown)}")
    return out


# ---------------------------------------------------------------------------
# Scheduler keys
# ---------------------------------------------------------------------------


def identity_key(request: EvalRequest) -> str:
    """Canonical digest of the *full* computation a request names.

    Two requests with equal identity keys are guaranteed (by the engine's
    seeding discipline) to produce bit-identical results, so the service
    evaluates once and shares the answer.
    """
    canon = repr((PROTOCOL_VERSION, request.kind, request.params, request.seed))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def affinity_key(request: EvalRequest) -> str:
    """Cache-locality key: which warm state serves this request fastest.

    Excludes the seed and sample budget — those change the answer, not
    the elaborated circuit / compiled kernel the evaluation leans on.
    """
    params = request.param_dict()
    if request.kind in ("errors", "longrun"):
        tag = (
            request.kind,
            params["width"],
            params.get("window"),
            params["distribution"],
        )
    elif request.kind == "sim":
        # Excludes vectors/seed/backend: all of them reuse the same
        # elaborated circuit and compiled kernel.
        tag = ("sim", params["architecture"], params["width"], params.get("window"))
    else:
        tag = ("measure", params["architecture"], params["width"], params.get("window"))
    return repr(tag)


def shard_of(request: EvalRequest, shards: int) -> int:
    """Deterministic shard index (stable across processes and runs)."""
    digest = hashlib.sha256(affinity_key(request).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


# ---------------------------------------------------------------------------
# Job construction + response rendering
# ---------------------------------------------------------------------------


def request_to_job(request: EvalRequest):
    """The engine job an ``errors``/``longrun`` request denotes."""
    from repro.engine.jobs import MonteCarloErrorJob

    if request.kind not in ("errors", "longrun"):
        raise ValueError(f"request kind {request.kind!r} has no engine job")
    from repro.analysis.sizing import default_window

    params = request.param_dict()
    return MonteCarloErrorJob(
        width=params["width"],
        window=default_window(params["width"], params.get("window")),
        samples=params["samples"],
        distribution=params["distribution"],
        seed=request.seed,
        counters=tuple(params.get("counters", ("scsa1", "vlcsa2", "vlcsa2_stall"))),
    )


def errors_result(aggregate) -> Dict[str, Any]:
    """JSON-ready result body of an ``errors`` evaluation (exact counts)."""
    return {
        "samples": aggregate.samples,
        "scsa1_errors": aggregate.scsa1_errors,
        "vlcsa1_nominal": aggregate.vlcsa1_nominal,
        "vlcsa2_errors": aggregate.vlcsa2_errors,
        "vlcsa2_stalls": aggregate.vlcsa2_stalls,
        "scsa1_error_rate": aggregate.rate("scsa1_errors"),
        "vlcsa2_error_rate": aggregate.rate("vlcsa2_errors"),
        "vlcsa2_stall_rate": aggregate.rate("vlcsa2_stalls"),
    }


def longrun_result(ckpt) -> Dict[str, Any]:
    """JSON-ready result body of a ``longrun`` evaluation.

    The error counts plus the durable-run block (chunk progress, resume
    provenance, order-independent state digest) — a client polling the
    same request across server restarts watches ``done_chunks`` advance
    and receives the identical final counts whenever it completes.
    """
    body = errors_result(ckpt.aggregate)
    body["checkpoint"] = ckpt.to_dict()
    return body


def measure_result(metrics) -> Dict[str, Any]:
    """JSON-ready result body of a ``measure`` evaluation."""
    return {
        "delay": metrics.delay,
        "area": metrics.area,
        "gates": metrics.gates,
        "t_spec": metrics.t_spec,
        "t_detect": metrics.t_detect,
        "t_recover": metrics.t_recover,
    }


def server_block(
    version: str,
    shard: Optional[int] = None,
    coalesced: Optional[int] = None,
    cache_hit: Optional[bool] = None,
) -> Dict[str, Any]:
    """The ``server`` sub-object every response carries."""
    block: Dict[str, Any] = {"service": "repro.serve", "version": version,
                             "proto": PROTOCOL_VERSION}
    if shard is not None:
        block["shard"] = shard
    if coalesced is not None:
        block["coalesced"] = coalesced
    if cache_hit is not None:
        block["cache_hit"] = cache_hit
    return block


def ok_response(
    request: EvalRequest, result: Dict[str, Any], server: Dict[str, Any]
) -> Dict[str, Any]:
    """A successful response body (provenance-stamped)."""
    from repro.obs.provenance import with_provenance

    return with_provenance(
        {
            "proto": PROTOCOL_VERSION,
            "ok": True,
            "id": request.request_id,
            "kind": request.kind,
            "params": request.param_dict(),
            "seed": request.seed,
            "result": result,
            "server": server,
        },
        seed=request.seed,
    )


def error_response(code: str, message: str, request_id: str = "") -> Dict[str, Any]:
    """A well-formed error body (sheds, protocol errors, internal faults)."""
    return {
        "proto": PROTOCOL_VERSION,
        "ok": False,
        "id": request_id,
        "error": {"code": code, "message": message},
    }


def dumps(payload: Mapping[str, Any]) -> bytes:
    """Canonical wire encoding (sorted keys, UTF-8)."""
    return json.dumps(payload, sort_keys=True, default=float).encode("utf-8")
