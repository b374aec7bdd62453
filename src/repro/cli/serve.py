"""Service commands: ``serve`` and ``loadgen``."""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import _resolve_seed, _write_output


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the evaluation service until SIGTERM/SIGINT, then drain."""
    import asyncio

    from repro._version import __version__
    from repro.serve.server import ServeConfig, Server

    cache_dir = args.cache_dir
    if cache_dir is None and not args.no_disk_cache:
        from repro.engine import default_cache_dir

        cache_dir = str(default_cache_dir())
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            uds=args.uds,
            shards=args.shards,
            shard_depth=args.shard_depth,
            max_batch=args.max_batch,
            coalesce_ms=args.coalesce_ms,
            max_pending=args.max_pending,
            pool_workers=args.pool_workers,
            cache_dir=cache_dir,
            job_root=args.job_root,
        )
        server = Server(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def _banner(srv) -> None:
        where = []
        if config.port is not None:
            where.append(f"http://{config.host}:{srv.bound_port}")
        if config.uds is not None:
            where.append(f"unix:{config.uds}")
        print(
            f"repro serve {__version__} listening on {', '.join(where)} "
            f"({config.shards} shard(s), linger {config.coalesce_ms:g} ms, "
            f"max pending {config.max_pending})",
            file=sys.stderr,
        )

    asyncio.run(server.run(on_ready=_banner))
    snapshot = server.metrics_snapshot()["slo"]
    print(
        f"drained: {snapshot['requests']} request(s), "
        f"{snapshot['shed']} shed, {snapshot['work_failures']} failed",
        file=sys.stderr,
    )
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Replay a seeded open-loop workload; gate the SLO report."""
    import asyncio

    from repro.serve.loadgen import LoadgenConfig, run_loadgen

    try:
        config = LoadgenConfig(
            uds=args.uds,
            host=args.host,
            port=args.port,
            requests=args.requests,
            rate=args.rate,
            seed=_resolve_seed(args),
            samples=args.samples,
            measure_fraction=args.measure_fraction,
            seed_spread=args.seed_spread,
            max_p99_ms=args.max_p99_ms,
            max_shed=args.max_shed,
            min_coalescing=args.min_coalescing,
            min_cache_hit_rate=args.min_cache_hit_rate,
        )
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = asyncio.run(run_loadgen(config))
    except OSError as exc:
        print(f"error: cannot reach server: {exc}", file=sys.stderr)
        return 1

    client = report["client"]
    latency = client["latency_ms"]
    print(
        f"loadgen: {client['ok']}/{client['requests']} ok "
        f"({client['unique_computations']} unique), {client['shed']} shed, "
        f"{client['errors']} error(s) in {client['wall_s']:.2f} s",
        file=sys.stderr,
    )
    if latency["count"]:
        print(
            f"latency ms: p50={latency['p50']:.1f} p99={latency['p99']:.1f} "
            f"max={latency['max']:.1f}",
            file=sys.stderr,
        )
    for name, gate in report["gates"].items():
        verdict = "ok" if gate["ok"] else "FAIL"
        print(
            f"gate {name}: limit={gate['limit']} actual={gate['actual']} "
            f"[{verdict}]",
            file=sys.stderr,
        )
    if args.out:
        text = json.dumps(report, indent=2, sort_keys=True, default=float)
        _write_output(args.out, text + "\n", "SLO report")
    if client["errors"]:
        print("loadgen: transport/internal errors present", file=sys.stderr)
        return 1
    return 0 if report["passed"] else 1


def register(sub) -> None:
    """Add ``serve`` and ``loadgen`` to the top-level subparsers."""
    serve = sub.add_parser(
        "serve",
        help="run the adder-evaluation service (HTTP/1.1 + JSON; coalescing, "
             "warm shards, SLO telemetry on /metrics)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port (0 = ephemeral; omit for no TCP listener)")
    serve.add_argument("--uds", default=None, metavar="PATH",
                       help="unix-socket path to listen on")
    serve.add_argument("--shards", type=int, default=2,
                       help="warm worker shards (default 2)")
    serve.add_argument("--shard-depth", type=int, default=8,
                       help="bounded batch queue per shard (default 8)")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="entries per engine submission (default 8)")
    serve.add_argument("--coalesce-ms", type=float, default=0.0, metavar="MS",
                       help="opt-in linger: hold a request up to MS ms after "
                            "admission for company, time queued behind a busy "
                            "shard included (default 0: an idle shard takes "
                            "it at once)")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="global in-flight cap; past it requests are shed "
                            "with 429 (default 64)")
    serve.add_argument("--pool-workers", type=int, default=0,
                       help="share one resident multiprocessing pool of this "
                            "many workers across shards (0 = in-shard serial)")
    serve.add_argument("--cache-dir", default=None,
                       help="elaboration disk cache directory (default: the "
                            "engine's)")
    serve.add_argument("--job-root", default=None, metavar="DIR",
                       help="durable checkpoint root enabling 'longrun' "
                            "requests; jobs under it survive shard and "
                            "server restarts and resume bit-identically")
    serve.add_argument("--no-disk-cache", action="store_true",
                       help="keep the elaboration cache in memory only")
    serve.set_defaults(fn=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="seeded open-loop load generator; emits a provenance-stamped "
             "SLO report and gates it (exit 1 on violation)",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=None)
    loadgen.add_argument("--uds", default=None, metavar="PATH")
    loadgen.add_argument("--requests", type=int, default=100)
    loadgen.add_argument("--rate", type=float, default=500.0,
                         help="arrival rate in requests/s (0 = all at once)")
    loadgen.add_argument("--samples", type=int, default=2048,
                         help="Monte Carlo budget per errors request")
    loadgen.add_argument("--measure-fraction", type=float, default=0.3,
                         help="fraction of measure (STA) requests in the mix")
    loadgen.add_argument("--seed-spread", type=int, default=4,
                         help="distinct request seeds (smaller = more dedup)")
    loadgen.add_argument("--seed", type=int, default=None)
    loadgen.add_argument("--out", default=None, metavar="PATH",
                         help="write the JSON SLO report here ('-' = stdout)")
    loadgen.add_argument("--max-p99-ms", type=float, default=None,
                         help="gate: client p99 latency budget in ms")
    loadgen.add_argument("--max-shed", type=int, default=None,
                         help="gate: max tolerated shed responses")
    loadgen.add_argument("--min-coalescing", type=float, default=None,
                         help="gate: server coalescing factor floor")
    loadgen.add_argument("--min-cache-hit-rate", type=float, default=None,
                         help="gate: server cache hit rate floor")
    loadgen.set_defaults(fn=_cmd_loadgen)
