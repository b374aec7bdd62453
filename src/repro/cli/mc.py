"""Monte Carlo commands: ``engine errors|sweep|magnitude``, ``chains`` and
``stats``."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict

import numpy as np

from repro.analysis.report import format_table, percent
from repro.analysis.sizing import default_window
from repro.analysis.statistics import six_sigma_comparison
from repro.cli import (
    _add_trace,
    _checked,
    _emit_json,
    _engine_cache,
    _print_metrics,
    _resolve_seed,
    _write_output,
)
from repro.engine import (
    DEFAULT_CHUNK,
    CheckpointError,
    CheckpointStore,
    EngineMetrics,
    MonteCarloErrorJob,
    SweepJob,
    SweepPoint,
    measure_design,
    run_checkpointed,
    run_job,
    run_jobs,
)
from repro.engine.elab import SWEEPABLE_DESIGNS, WINDOWED_DESIGNS
from repro.inputs.generators import (
    GAUSSIAN_SIGMA_THESIS,
    check_gaussian_sigma,
    gaussian_operands,
    uniform_operands,
)
from repro.model.carry_chains import chain_length_histogram
from repro.model.error_model import scsa_error_rate, scsa_error_rate_exact
from repro.model.latency import VariableLatencyAdderSim, VariableLatencyTiming


def _progress_reporter(label: str):
    """A throttled chunk-completion printer for ``--progress``.

    Prints at most ~1 line/second to stderr: chunks done, sample
    throughput, error events folded in so far, and an ETA extrapolated
    from the rate since this run (not any resumed prefix) started.
    """
    state = {"start": None, "last": 0.0, "base": 0}

    def report(done: int, total: int, aggregates) -> None:
        now = time.monotonic()
        if state["start"] is None:
            state["start"], state["base"] = now, done  # resumed prefix
        if done < total and now - state["last"] < 1.0:
            return
        state["last"] = now
        agg = aggregates[0] if aggregates else None
        samples = getattr(agg, "samples", 0)
        errors = getattr(agg, "scsa1_errors", 0)
        elapsed = now - state["start"]
        fresh = done - state["base"]
        if fresh > 0 and elapsed > 0:
            eta = f"{(total - done) * elapsed / fresh:,.0f}s"
            rate = f"{samples * fresh / (done * elapsed):,.0f} samples/s"
        else:
            eta, rate = "?", "-"
        pct = 100.0 * done / total if total else 100.0
        print(
            f"progress[{label}]: {done}/{total} chunks ({pct:.1f}%) "
            f"{rate} errors={errors} eta={eta}",
            file=sys.stderr,
        )

    return report


def _cmd_engine_errors(args: argparse.Namespace) -> int:
    """Fig. 7.1-style Monte Carlo run: one job per window size, one pool.

    With ``--checkpoint DIR`` each window runs through the durable
    work-stealing runner (chunk results land in ``DIR/w<k>``); an
    interrupted or ``--time-budget``-limited run resumes with
    ``--resume`` to a byte-identical report.
    """
    width = args.width
    windows = args.windows or [default_window(width, args.window)]
    seed = _resolve_seed(args)
    jobs = [
        _checked(
            MonteCarloErrorJob,
            width=width,
            window=k,
            samples=args.samples,
            distribution=args.inputs,
            seed=seed,
            chunk_size=args.chunk or DEFAULT_CHUNK,
            counters=("scsa1", "vlcsa2", "vlcsa2_stall"),
        )
        for k in windows
    ]
    metrics = EngineMetrics()
    checkpoint_rows: Dict[int, dict] = {}
    partial = False
    if args.checkpoint:
        root = Path(args.checkpoint)
        results = []
        started = time.monotonic()
        for job in jobs:
            subdir = root / f"w{job.window}"
            if CheckpointStore(subdir).header() is not None and not args.resume:
                raise SystemExit(
                    f"checkpoint directory {subdir} already holds a run; "
                    f"pass --resume to continue it (or point --checkpoint "
                    f"at a fresh directory)"
                )
            remaining = None
            if args.time_budget is not None:
                remaining = max(0.0, args.time_budget - (time.monotonic() - started))
            reporter = _progress_reporter(f"w={job.window}") if args.progress else None
            try:
                ckpt = run_checkpointed(
                    job,
                    subdir,
                    workers=args.workers,
                    metrics=metrics,
                    progress=reporter,
                    time_budget=remaining,
                    # Budget exhausted: restore-only pass, so the report still
                    # carries every window's chunks completed so far.
                    max_chunks=0 if remaining == 0.0 else None,
                )
            except CheckpointError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            results.append(ckpt)
            partial = partial or ckpt.partial
            checkpoint_rows[job.window] = ckpt.to_dict()
        if partial:
            done = sum(r.done_chunks for r in results)
            total = sum(r.total_chunks for r in results)
            print(
                f"partial run: {done}/{total} chunks checkpointed under "
                f"{root} — rerun with --resume to continue",
                file=sys.stderr,
            )
    else:
        reporter = _progress_reporter(f"n={width}") if args.progress else None
        results = run_jobs(jobs, workers=args.workers, metrics=metrics, progress=reporter)

    cache, cache_dir = _engine_cache(args)
    designs = {}
    if not args.no_design:
        with metrics.phase("elaborate"):
            for k in windows:
                designs[k] = measure_design("scsa1", width, k, cache=cache)
        if cache is not None:
            metrics.merge_counters(cache.counters())

    rows = []
    report_rows = []
    inconsistent = []
    for k, result in zip(windows, results):
        agg = result.aggregate
        design = designs.get(k)
        row = {
            "window": k,
            "model_error_rate": scsa_error_rate(width, k),
            "exact_model_rate": scsa_error_rate_exact(width, k),
            "scsa1_error_rate": agg.rate("scsa1_errors"),
            "vlcsa2_stall_rate": agg.rate("vlcsa2_stalls"),
            "vlcsa2_error_rate": agg.rate("vlcsa2_errors"),
            "samples": agg.samples,
        }
        sigma_cell = "-"
        if agg.samples:
            # Two nulls: Eq. 3.13 (the paper's closed form, a union-bound
            # approximation) is *reported*; the exact Markov-chain rate is
            # what --check-model *gates* on.  At 1e9 samples the closed
            # form's ~0.4% relative error resolves to tens of sigma — a
            # model-approximation finding, not a simulator bug.
            # Small windows take Eq. 3.13 past 1, where no binomial
            # comparison exists.
            if 0.0 <= row["model_error_rate"] <= 1.0:
                row["six_sigma_eq313"] = six_sigma_comparison(
                    agg.scsa1_errors, agg.samples, row["model_error_rate"]
                )
            else:
                row["six_sigma_eq313"] = None
                row["six_sigma_eq313_reason"] = (
                    f"Eq. 3.13 rate {row['model_error_rate']:.4g} lies outside [0, 1]"
                )
            check = six_sigma_comparison(
                agg.scsa1_errors, agg.samples, row["exact_model_rate"]
            )
            row["six_sigma"] = check
            sigma_cell = f"{check['sigma']:+.2f}"
            if not check["consistent"]:
                inconsistent.append(k)
                sigma_cell += " !"
        if design is not None:
            row["delay"] = design.delay
            row["area"] = design.area
        report_rows.append(row)
        rows.append(
            (
                k,
                percent(row["model_error_rate"], 4),
                percent(row["scsa1_error_rate"], 4),
                sigma_cell,
                percent(row["vlcsa2_stall_rate"], 4),
                f"{design.delay:.3f}" if design else "-",
                f"{design.area:.0f}" if design else "-",
            )
        )
    print(
        format_table(
            ["k", "Eq. 3.13", "SCSA 1 MC", "sigma", "VLCSA 2 stall", "delay", "area"],
            rows,
            title=f"engine errors @ n={width}, {args.inputs} inputs, "
            f"{args.samples} samples/window, {args.workers} workers",
        )
    )
    _print_metrics(metrics)
    payload = {
        "command": "engine errors",
        "width": width,
        "inputs": args.inputs,
        "samples": args.samples,
        "seed": seed,
        "workers": args.workers,
        "cache_dir": cache_dir,
        "rows": report_rows,
        "metrics": metrics.to_dict(),
    }
    if args.checkpoint:
        payload["checkpoint"] = {
            "directory": str(args.checkpoint),
            "partial": partial,
            "windows": {str(k): info for k, info in checkpoint_rows.items()},
        }
    _emit_json(args.json, payload, seed=seed)
    if args.merged:
        # The deterministic merged report: only content derived from the
        # exact integer aggregates (plus the job identity), so a killed
        # and resumed run emits a file byte-identical to an uninterrupted
        # one — the property the checkpoint-resume CI smoke pins.
        merged = {
            "command": "engine errors",
            "width": width,
            "inputs": args.inputs,
            "samples": args.samples,
            "seed": seed,
            "partial": partial,
            "rows": report_rows,
        }
        if checkpoint_rows:
            merged["windows"] = {
                str(k): {
                    "state_digest": info["state_digest"],
                    "total_chunks": info["total_chunks"],
                }
                for k, info in checkpoint_rows.items()
            }
        text = json.dumps(merged, indent=2, sort_keys=True, default=float) + "\n"
        _write_output(args.merged, text, "merged report")
    if args.check_model and inconsistent and not partial:
        print(
            f"model check FAILED: windows {inconsistent} deviate from "
            f"the exact window-chain model by more than 6 sigma",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_engine_sweep(args: argparse.Namespace) -> int:
    """STA/area (and optional Monte Carlo) sweep through the engine."""
    width = args.width
    for name, value in (("width", width), ("--k-min", args.k_min), ("--k-step", args.k_step)):
        if value < 1:
            print(f"error: {name} must be >= 1, got {value}", file=sys.stderr)
            raise SystemExit(2)
    points = []
    for design in args.designs:
        if design not in SWEEPABLE_DESIGNS:
            raise SystemExit(
                f"unknown design {design!r}; choose from {SWEEPABLE_DESIGNS}"
            )
        if design in WINDOWED_DESIGNS:
            points.extend(
                SweepPoint(design, width, k)
                for k in range(args.k_min, args.k_max + 1, args.k_step)
            )
        else:
            points.append(SweepPoint(design, width, None))
    cache, cache_dir = _engine_cache(args)
    job = _checked(
        SweepJob,
        points=tuple(points),
        mc_samples=args.mc_samples,
        seed=_resolve_seed(args),
        cache_dir=cache_dir,
    )
    metrics = EngineMetrics()
    result = run_job(job, workers=args.workers, metrics=metrics)
    rows = result.aggregate.ordered()
    print(
        format_table(
            ["design", "k", "delay", "area", "gates", "P_err model", "P_err MC"],
            [
                (
                    row["architecture"],
                    row["window"] if row["window"] is not None else "-",
                    f"{row['delay']:.3f}",
                    f"{row['area']:.0f}",
                    row["gates"],
                    _fmt_rate(row.get("model_error_rate")),
                    _fmt_rate(row.get("mc_error_rate")),
                )
                for row in rows
            ],
            title=f"engine sweep @ n={width} ({len(points)} designs, "
            f"{args.workers} workers)",
        )
    )
    _print_metrics(metrics)
    _emit_json(
        args.json,
        {
            "command": "engine sweep",
            "width": width,
            "workers": args.workers,
            "cache_dir": cache_dir,
            "rows": list(rows),
            "metrics": metrics.to_dict(),
        },
        seed=_resolve_seed(args),
    )
    return 0


def _fmt_rate(value) -> str:
    return f"{value:.3e}" if value is not None else "-"


def _cmd_engine_magnitude(args: argparse.Namespace) -> int:
    """Error-magnitude run (thesis section 3.3) through the engine: the
    ``scsa1`` and ``magnitude`` counters of one Monte Carlo error job."""
    width = args.width
    k = default_window(width, args.window)
    job = _checked(
        MonteCarloErrorJob,
        width=width,
        window=k,
        samples=args.samples,
        distribution=args.inputs,
        seed=_resolve_seed(args),
        chunk_size=args.chunk or DEFAULT_CHUNK,
        counters=("scsa1", "magnitude"),
    )
    metrics = EngineMetrics()
    stats = run_job(job, workers=args.workers, metrics=metrics).aggregate
    print(
        format_table(
            ["metric", "value"],
            [
                ("samples", stats.samples),
                ("errors", stats.scsa1_errors),
                ("error rate", f"{stats.scsa1_errors / stats.samples:.3e}"),
                ("mean |error|", _fmt_quotient(stats.sum_abs_error, stats.samples)),
                (
                    "mean |error| / 2^n",
                    f"{stats.sum_abs_error / (stats.samples << width):.3e}",
                ),
                ("max |error|", _fmt_quotient(stats.max_abs_error, 1)),
            ],
            title=f"engine magnitude @ n={width}, k={k}, {args.inputs} inputs",
        )
    )
    _print_metrics(metrics)
    _emit_json(
        args.json,
        {
            "command": "engine magnitude",
            "width": width,
            "window": k,
            "samples": stats.samples,
            "errors": stats.scsa1_errors,
            "sum_abs_error": stats.sum_abs_error,
            "max_abs_error": stats.max_abs_error,
            "metrics": metrics.to_dict(),
        },
        seed=_resolve_seed(args),
    )
    return 0


def _fmt_quotient(num: int, den: int) -> str:
    """``num / den`` to four significant digits, also where the quotient
    is past the float range (an error near 2^1024)."""
    try:
        return f"{num / den:.4g}"
    except OverflowError:
        from decimal import Decimal

        return f"{Decimal(num) / den:.4g}"


def _cmd_chains(args: argparse.Namespace) -> int:
    for name, value, least in (("width", args.width, 1), ("samples", args.samples, 0)):
        if value < least:
            print(f"error: {name} must be >= {least}, got {value}", file=sys.stderr)
            raise SystemExit(2)
    gen = np.random.default_rng(_resolve_seed(args))
    if args.inputs == "uniform":
        a = uniform_operands(args.width, args.samples, gen)
        b = uniform_operands(args.width, args.samples, gen)
    else:
        _checked(check_gaussian_sigma, args.width, GAUSSIAN_SIGMA_THESIS)
        a = gaussian_operands(args.width, args.samples, rng=gen)
        b = gaussian_operands(args.width, args.samples, rng=gen)
    hist = chain_length_histogram(a, b, args.width)
    rows = [
        (length, f"{hist[length]:.4%}", "#" * int(round(60 * hist[length])))
        for length in range(1, args.width + 1)
        if hist[length] > 0
    ]
    print(
        format_table(
            ["length", "fraction", ""],
            rows,
            title=f"carry-chain lengths, n={args.width}, {args.inputs}, "
            f"{args.samples} samples (thesis Figs. 6.1-6.5)",
        )
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Latency-cycle histograms of the variable-latency adders.

    One seeded Monte Carlo run produces the ERR0/ERR1 stall counts; each
    design's per-operation latency (1 cycle on VALID, ``recovery_cycles``
    on STALL — thesis Fig. 5.3) is rendered as a histogram and its mean
    is checked against the Eq. 5.2 expectation from
    :mod:`repro.model.latency` at the measured stall rate.
    """
    width = args.width
    k = default_window(width, args.window)
    seed = _resolve_seed(args)
    job = _checked(
        MonteCarloErrorJob,
        width=width,
        window=k,
        samples=args.samples,
        distribution=args.inputs,
        seed=seed,
        counters=("scsa1", "vlcsa1_nominal", "vlcsa2", "vlcsa2_stall"),
    )
    metrics = EngineMetrics()
    agg = run_job(job, workers=args.workers, metrics=metrics).aggregate

    cache, cache_dir = _engine_cache(args)
    with metrics.phase("elaborate"):
        designs = {
            name: measure_design(name, width, k, cache=cache)
            for name in ("vlcsa1", "vlcsa2")
        }
    if cache is not None:
        metrics.merge_counters(cache.counters())

    # Per-design stall counts: VLCSA 1 stalls whenever the single-window
    # speculation misses; VLCSA 2 stalls only when both detectors fire.
    stall_counts = {"vlcsa1": agg.scsa1_errors, "vlcsa2": agg.vlcsa2_stalls}
    print(
        format_table(
            ["metric", "rate"],
            [
                ("ERR0 fires (VLCSA1 nominal)", percent(agg.rate("vlcsa1_nominal"), 4)),
                ("VLCSA 1 stall (= SCSA 1 error)", percent(agg.rate("scsa1_errors"), 4)),
                ("VLCSA 2 stall (ERR0 & ERR1)", percent(agg.rate("vlcsa2_stalls"), 4)),
                ("VLCSA 2 both hypotheses wrong", percent(agg.rate("vlcsa2_errors"), 4)),
            ],
            title=f"n={width}, k={k}, {args.inputs} inputs, {agg.samples} samples",
        )
    )

    report_rows = []
    checks_ok = True
    for design in ("vlcsa1", "vlcsa2"):
        m = designs[design]
        timing = VariableLatencyTiming(m.t_spec, m.t_detect, m.t_recover)
        stalls = stall_counts[design]
        hist_name = f"{design}.latency_cycles"
        metrics.add(f"{design}_stalls", stalls)
        metrics.record(hist_name, 1, agg.samples - stalls)
        metrics.record(hist_name, timing.recovery_cycles, stalls)
        hist = metrics.histograms[hist_name]
        stall_rate = stalls / agg.samples
        expected = (
            VariableLatencyAdderSim(timing)
            .run_predicted(stall_rate, agg.samples)
            .cycles_per_add
        )
        measured = hist.mean
        delta = abs(measured - expected)
        checks_ok = checks_ok and delta < 1e-3
        print()
        for line in hist.format_lines(f"{design} latency cycles"):
            print(line)
        print(
            f"{design}: measured {measured:.6f} cycles/add, Eq. 5.2 expects "
            f"{expected:.6f} at P_err={stall_rate:.3e} (|delta| = {delta:.2e})"
        )
        report_rows.append(
            {
                "architecture": design,
                "width": width,
                "window": k,
                "stall_rate": stall_rate,
                "recovery_cycles": timing.recovery_cycles,
                "mean_cycles_per_add": measured,
                "expected_cycles_per_add": expected,
                "latency_cycles": hist.to_dict(),
            }
        )
    _print_metrics(metrics)
    _emit_json(
        args.json,
        {
            "command": "stats",
            "width": width,
            "window": k,
            "inputs": args.inputs,
            "samples": agg.samples,
            "seed": seed,
            "workers": args.workers,
            "cache_dir": cache_dir,
            "rows": report_rows,
            "metrics": metrics.to_dict(),
        },
        seed=seed,
    )
    return 0 if checks_ok else 1


def _engine_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes (0/1 = serial, bit-identical)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write a JSON report ('-' for stdout)")
    p.add_argument("--cache-dir", default=None,
                   help="elaboration cache directory (default: user cache dir)")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the on-disk elaboration cache")
    _add_trace(p)


def register(sub) -> None:
    """Add ``engine errors|sweep|magnitude``, ``chains`` and ``stats``."""
    engine = sub.add_parser(
        "engine", help="batch-execution engine: cached, parallel runs + metrics"
    )
    esub = engine.add_subparsers(dest="engine_command", required=True)
    e_errors = esub.add_parser(
        "errors", help="Monte Carlo error/stall rates (Fig. 7.1 style)"
    )
    e_errors.add_argument("width", type=int)
    e_errors.add_argument("--window", type=int, default=None)
    e_errors.add_argument("--windows", type=int, nargs="*", default=None,
                          help="sweep several window sizes through one pool")
    e_errors.add_argument("--inputs", choices=["uniform", "gaussian"], default="uniform")
    e_errors.add_argument("--samples", type=int, default=1_000_000)
    e_errors.add_argument("--chunk", type=int, default=None)
    e_errors.add_argument("--no-design", action="store_true",
                          help="skip the delay/area columns (no elaboration)")
    e_errors.add_argument("--checkpoint", default=None, metavar="DIR",
                          help="run through the durable work-stealing runner; "
                               "chunk results checkpoint under DIR/w<k> and a "
                               "killed run resumes bit-identically")
    e_errors.add_argument("--resume", action="store_true",
                          help="continue an existing --checkpoint directory "
                               "(required when DIR already holds a run)")
    e_errors.add_argument("--progress", action="store_true",
                          help="print throttled chunk-completion lines (rate, "
                               "error events, ETA) to stderr")
    e_errors.add_argument("--time-budget", type=float, default=None, metavar="S",
                          help="stop checkpointing after S seconds; the partial "
                               "run resumes later with --resume")
    e_errors.add_argument("--check-model", action="store_true",
                          help="exit 1 if any complete window's empirical rate "
                               "deviates from the exact window-chain model by "
                               "more than 6 sigma (the Eq. 3.13 sigma is "
                               "reported alongside; its union-bound error is "
                               "real at billion-sample resolution)")
    e_errors.add_argument("--merged", default=None, metavar="PATH",
                          help="write the deterministic merged report ('-' for "
                               "stdout): byte-identical across interrupted/"
                               "resumed runs of the same job")
    _engine_common(e_errors)
    e_errors.set_defaults(fn=_cmd_engine_errors)

    e_sweep = esub.add_parser("sweep", help="cached STA/area sweep over designs")
    e_sweep.add_argument("width", type=int)
    e_sweep.add_argument("--designs", nargs="*",
                         default=["vlcsa1", "vlcsa2", "designware"])
    e_sweep.add_argument("--k-min", type=int, default=6)
    e_sweep.add_argument("--k-max", type=int, default=20)
    e_sweep.add_argument("--k-step", type=int, default=2)
    e_sweep.add_argument("--mc-samples", type=int, default=0)
    _engine_common(e_sweep)
    e_sweep.set_defaults(fn=_cmd_engine_sweep)

    e_mag = esub.add_parser(
        "magnitude", help="error-magnitude statistics (thesis section 3.3)"
    )
    e_mag.add_argument("width", type=int)
    e_mag.add_argument("--window", type=int, default=None)
    e_mag.add_argument("--inputs", choices=["uniform", "gaussian"], default="uniform")
    e_mag.add_argument("--samples", type=int, default=500_000)
    e_mag.add_argument("--chunk", type=int, default=None)
    _engine_common(e_mag)
    e_mag.set_defaults(fn=_cmd_engine_magnitude)

    chains = sub.add_parser("chains", help="carry-chain-length histogram")
    chains.add_argument("width", type=int)
    chains.add_argument("--inputs", choices=["uniform", "gaussian"], default="uniform")
    chains.add_argument("--samples", type=int, default=100_000)
    chains.add_argument("--seed", type=int, default=None)
    chains.set_defaults(fn=_cmd_chains)

    stats = sub.add_parser(
        "stats",
        help="latency-cycle histograms vs the Eq. 5.2 timing model",
    )
    stats.add_argument("width", type=int)
    stats.add_argument("--window", type=int, default=None,
                       help="window size k (default: Eq. 3.13 sizing @ 1e-4)")
    stats.add_argument("--inputs", choices=["uniform", "gaussian"],
                       default="uniform")
    stats.add_argument("--samples", type=int, default=100_000)
    _engine_common(stats)
    stats.set_defaults(fn=_cmd_stats)
