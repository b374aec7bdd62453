"""``bench compare``: gate a benchmark report against a baseline."""

from __future__ import annotations

import argparse
import sys


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    """Fail (exit 1) when NEW regressed beyond tolerance relative to OLD."""
    from repro.obs.bench import (
        DEFAULT_METRICS,
        compare_reports,
        format_comparison,
        load_report,
    )

    metrics = tuple(args.metrics) if args.metrics else DEFAULT_METRICS
    try:
        old = load_report(args.old)
        new = load_report(args.new)
        result = compare_reports(
            old, new, tolerance=args.tolerance, metrics=metrics
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in format_comparison(result, args.tolerance):
        print(line)
    if not result.deltas:
        print(
            "error: no comparable metrics between the two reports",
            file=sys.stderr,
        )
        return 2
    return 0 if result.ok else 1


def register(sub) -> None:
    """Add ``bench compare`` to the top-level subparsers."""
    from repro.obs.bench import DEFAULT_METRICS

    bench = sub.add_parser(
        "bench", help="benchmark-report tooling (regression telemetry)"
    )
    bsub = bench.add_subparsers(dest="bench_command", required=True)
    b_cmp = bsub.add_parser(
        "compare",
        help="compare two bench reports; exit 1 on a throughput/speedup "
             "regression beyond tolerance",
    )
    b_cmp.add_argument("old", help="baseline report (e.g. BENCH_netlist_sim.json)")
    b_cmp.add_argument("new", help="candidate report to gate")
    b_cmp.add_argument("--tolerance", type=float, default=0.1,
                       help="allowed fractional drop, e.g. 0.1 = 10%% "
                            "(default 0.1)")
    b_cmp.add_argument("--metrics", nargs="+", default=None, metavar="NAME",
                       help="restrict comparison to these metrics "
                            f"(default: {' '.join(DEFAULT_METRICS)})")
    b_cmp.set_defaults(fn=_cmd_bench_compare)
