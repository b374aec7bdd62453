"""``fuzz``: coverage-guided differential fuzzing of the adder stack."""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import format_table
from repro.analysis.sizing import default_window
from repro.cli import _add_trace, _check_widths, _emit_json, _print_metrics, _resolve_seed

#: Default fuzz grid: every speculative family plus an exact reference.
_FUZZ_DESIGNS = ["vlcsa1", "vlcsa2", "scsa1", "scsa2", "kogge_stone"]


def _fuzz_points(designs, widths, window):
    """Expand the CLI grid into oracle design points (window sized like
    every other subcommand: Eq. 3.13 at the 1e-4 target unless pinned).

    Any :func:`repro.engine.elab.build_design` architecture is fuzzable —
    the exact adders serve as agreeing references, the speculative ones
    get the full behavioural cross-check battery.
    """
    from repro.engine.elab import WINDOWED_DESIGNS, grid_designs
    from repro.fuzz import DesignPoint

    known = list(grid_designs())
    points = []
    for design in designs:
        if design not in known:
            raise SystemExit(f"unknown design {design!r}; choose from {known}")
        for width in widths:
            k = default_window(width, window) if design in WINDOWED_DESIGNS else None
            points.append(DesignPoint(design, width, k))
    return tuple(points)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Coverage-guided differential fuzzing of the whole adder stack.

    Cross-checks the behavioural models, the reference netlist
    interpreter, the vectorized backend, and the analytical error model on
    adversarial operand batches; exits 0 on full agreement, 1 with
    minimized reproducers on any divergence.  ``--replay CORPUS`` re-runs
    a saved corpus (the artifact a nightly CI failure uploads);
    ``--self-test`` plants a stuck-at mutant and *expects* the fuzzer to
    catch and shrink it, proving the oracle end to end.
    """
    from repro.engine import EngineMetrics
    from repro.fuzz import Corpus, FuzzConfig, run_campaign
    from repro.fuzz.fuzzer import default_fault, replay_corpus

    seed = _resolve_seed(args)
    metrics = EngineMetrics()

    if args.replay:
        corpus = Corpus(args.replay)
        if not len(corpus):
            raise SystemExit(f"corpus {args.replay!r} is empty or unreadable")
        divergences = replay_corpus(corpus, metrics=metrics)
        print(
            f"replayed {len(corpus)} corpus entr{'y' if len(corpus) == 1 else 'ies'}: "
            + (f"{len(divergences)} divergence(s)" if divergences else "all agree")
        )
        for div in divergences:
            print(
                f"DIVERGENCE [{div.check}] {div.point.label} "
                f"a={div.a:#x} b={div.b:#x}: {div.detail}",
                file=sys.stderr,
            )
        _print_metrics(metrics)
        _emit_json(
            args.json,
            {
                "command": "fuzz",
                "mode": "replay",
                "corpus": corpus.to_dict(),
                "divergences": [d.to_dict() for d in divergences],
                "ok": not divergences,
                "metrics": metrics.to_dict(),
            },
            seed=seed,
        )
        return 1 if divergences else 0

    _check_widths("--widths", args.widths)
    points = _fuzz_points(args.designs, args.widths, args.window)
    fault = None
    if args.self_test:
        fault = default_fault(points[0])
        print(
            f"self-test: planted stuck-at-{fault[1]} on net {fault[0]} "
            f"of {points[0].label}",
            file=sys.stderr,
        )
    config = FuzzConfig(
        points=points,
        vectors=args.vectors,
        max_rounds=args.rounds,
        time_budget=args.time_budget,
        seed=seed,
        workers=args.workers,
        corpus_dir=args.corpus,
        fault=fault,
    )
    campaign = run_campaign(config, metrics=metrics)

    rate_rows = [
        (
            row["width"],
            row["window"],
            row["samples"],
            row["observed_errors"],
            f"{row['expected_errors']:.2f} ± {row['tolerance']:.2f}",
            "ok" if row["ok"] else "FAIL",
        )
        for row in campaign.rate_checks
    ]
    print(
        format_table(
            ["n", "k", "samples", "errors", "model expects", "check"],
            rate_rows,
            title=f"fuzz @ seed={seed}: {campaign.execs} execs over "
            f"{len(points)} design point(s), {campaign.rounds_executed} "
            f"round(s){'' if campaign.completed else ' (budget hit)'}, "
            f"{campaign.coverage_points} coverage point(s), corpus "
            f"{len(campaign.corpus)} entr"
            f"{'y' if len(campaign.corpus) == 1 else 'ies'} "
            f"[{campaign.corpus.corpus_hash()[:16]}]",
        )
    )
    _print_metrics(metrics)
    for item in campaign.minimized:
        print(
            f"reproducer [{item['check']}] {item['design']} "
            f"n={item['width']} k={item['window']} "
            f"a={item['a']} b={item['b']}"
            + ("" if item["minimized"] else " (unshrunk)"),
            file=sys.stderr,
        )
    _emit_json(
        args.json,
        {"command": "fuzz", "mode": "campaign", **campaign.to_dict(),
         "metrics": metrics.to_dict()},
        seed=seed,
    )

    if args.self_test:
        caught = [m for m in campaign.minimized if m["minimized"]]
        if campaign.ok or not caught:
            print(
                "self-test FAILED: planted mutant was not caught and shrunk",
                file=sys.stderr,
            )
            return 1
        print(
            f"self-test ok: mutant caught "
            f"({len(campaign.divergences)} divergence(s), "
            f"{len(caught)} minimized reproducer(s))",
            file=sys.stderr,
        )
        return 0
    return 0 if campaign.ok else 1


def register(sub) -> None:
    """Add ``fuzz`` to the top-level subparsers."""
    fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided differential fuzzing: behavioural models vs "
             "netlist backends vs the analytical error model",
    )
    fuzz.add_argument("--designs", nargs="+", default=list(_FUZZ_DESIGNS),
                      help=f"architectures to fuzz (default: {' '.join(_FUZZ_DESIGNS)})")
    fuzz.add_argument("--widths", type=int, nargs="+", default=[16, 32, 64],
                      metavar="N", help="adder widths (default: 16 32 64)")
    fuzz.add_argument("--window", type=int, default=None,
                      help="window size k (default: Eq. 3.13 sizing @ 1e-4)")
    fuzz.add_argument("--vectors", type=int, default=128,
                      help="operand pairs per (point, strategy) chunk "
                           "(default 128)")
    fuzz.add_argument("--rounds", type=int, default=8,
                      help="max campaign rounds; stops early when coverage "
                           "goes stale (default 8)")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      metavar="SECONDS",
                      help="stop after the first round that ends past this "
                           "many seconds (the default round plan finishes "
                           "well inside CI budgets, so equal-seed runs stay "
                           "bit-identical)")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="persistent corpus directory (content-addressed; "
                           "reused and extended across runs)")
    fuzz.add_argument("--replay", default=None, metavar="CORPUS",
                      help="re-run every entry of a saved corpus instead of "
                           "fuzzing (regression mode)")
    fuzz.add_argument("--self-test", action="store_true",
                      help="plant a stuck-at mutant and require the fuzzer "
                           "to catch and shrink it (exit 1 otherwise)")
    fuzz.add_argument("--workers", type=int, default=0,
                      help="worker processes (0/1 = serial, bit-identical)")
    fuzz.add_argument("--seed", type=int, default=None)
    fuzz.add_argument("--json", default=None, metavar="PATH",
                      help="write a JSON report ('-' for stdout)")
    _add_trace(fuzz)
    fuzz.set_defaults(fn=_cmd_fuzz)
