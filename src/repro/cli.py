"""Command-line interface: ``python -m repro <command> ...``.

Mirrors the thesis' C++ generator workflow ("programs which take the adder
width n and the window size k, and generate Verilog files") plus the
analyses this reproduction adds:

* ``gen``     — generate Verilog for any design;
* ``report``  — delay/area (and per-path) report for a design;
* ``sweep``   — window-size sweep at one width;
* ``errors``  — Monte Carlo error/stall rates on a chosen input class;
* ``tb``      — emit a self-checking Verilog testbench;
* ``lint``    — static analysis (structural / formal BDD / timing rules)
  over an architecture × width grid, with SARIF output and a mutation
  self-test of the rules themselves;
* ``engine``  — the batch-execution engine: cached, optionally parallel
  Monte Carlo / sweep / magnitude runs with a metrics report;
* ``sim``     — gate-level simulation benchmark: vectorized vs reference
  backends over a design × width grid, with bit-for-bit cross-checking
  and optional concurrent fault coverage;
* ``stats``   — per-operation latency-cycle histograms of the
  variable-latency adders, checked against the Eq. 5.2 timing model;
* ``fuzz``    — coverage-guided differential fuzzing: adversarial operand
  batches cross-checked between the behavioural models, both netlist
  simulation backends, and the analytical error model, with a persistent
  minimizing corpus (``--replay``) and a planted-mutant ``--self-test``;
* ``bench``   — benchmark-report tooling; ``bench compare`` gates a new
  report against a baseline and fails on throughput/speedup regressions;
* ``equiv``   — combinational equivalence check between two designs:
  structural fast path, seeded miter simulation sweep, then a BDD proof,
  with a minimized counterexample on any mismatch;
* ``opt``     — the netlist optimizer over a design × width grid:
  gate-count/depth reductions per architecture, ``--prove`` runs CEC
  after every pass and rolls back unproven rewrites, and the JSON report
  is the checked-in ``BENCH_netlist_opt.json`` format;
* ``sta``     — full static timing analysis of one design: per-bus
  arrivals, per-net slack, top-K critical paths with named-port
  endpoints, and SARIF output of the timing rules.

Commands that do real work take ``--trace PATH`` to record hierarchical
spans (:mod:`repro.obs`) and export a Chrome trace-event JSON.

``sweep`` and ``errors`` execute through :mod:`repro.engine`, so they gain
``--workers`` (multiprocessing) for free.  A global ``--seed`` before the
subcommand seeds any sampling command; each run is deterministic either
way (the default seed is fixed).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

from repro.analysis.compare import (
    measure_designware,
    measure_kogge_stone,
    measure_scsa1,
    measure_vlcsa1,
    measure_vlcsa2,
    measure_vlsa,
)
from repro.analysis.report import format_table, percent
from repro.analysis.sizing import scsa_window_size_for
from repro.model.error_model import scsa_error_rate, scsa_error_rate_exact
from repro.netlist.circuit import Circuit
from repro.netlist.optimize import optimize
from repro.rtl import to_testbench, to_verilog

DEFAULT_SEED = 2012


def _resolve_seed(args: argparse.Namespace, default: int = DEFAULT_SEED) -> int:
    """Per-command ``--seed`` wins, then the global one, then the default."""
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = getattr(args, "global_seed", None)
    return default if seed is None else seed


def _checked(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or ``error: ...`` and exit status 2 when it
    raises ``ValueError`` (jobs and input checks refuse what cannot run)."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _build_design(name: str, width: int, window: Optional[int]) -> Circuit:
    """Elaborate any named design at the given parameters."""
    from repro.engine.elab import build_design

    try:
        return build_design(name, width, window)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _lint_or_die(circuit: Circuit) -> None:
    """``--lint`` support for export commands: report every diagnostic on
    stderr and abort (before writing anything) when any is an error."""
    from repro.netlist.lint import format_text, run_lint

    report = run_lint(circuit)
    if report.diagnostics:
        print(format_text(report, verbose=True), file=sys.stderr)
    if report.errors:
        raise SystemExit(1)


def _cmd_gen(args: argparse.Namespace) -> int:
    circuit = _build_design(args.design, args.width, args.window)
    if args.optimize:
        circuit, _ = optimize(circuit)
    if args.lint:
        _lint_or_die(circuit)
    text = to_verilog(circuit)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}: {circuit.num_gates} gates", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_tb(args: argparse.Namespace) -> int:
    circuit = _build_design(args.design, args.width, args.window)
    if args.lint:
        _lint_or_die(circuit)
    gen = np.random.default_rng(_resolve_seed(args))
    vectors = {
        name: [int(gen.integers(0, 1 << len(nets))) for _ in range(args.vectors)]
        for name, nets in circuit.input_buses.items()
    }
    text = to_testbench(circuit, vectors)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    width = args.width
    k = args.window if args.window is not None else scsa_window_size_for(width, 1e-4)
    measures: Dict[str, Callable[[], object]] = {
        "kogge_stone": lambda: measure_kogge_stone(width),
        "designware": lambda: measure_designware(width),
        "scsa1": lambda: measure_scsa1(width, k),
        "vlcsa1": lambda: measure_vlcsa1(width, k),
        "vlcsa2": lambda: measure_vlcsa2(width, k),
        "vlsa": lambda: measure_vlsa(width, k),
    }
    rows = []
    targets = args.designs or sorted(measures)
    for name in targets:
        if name not in measures:
            raise SystemExit(f"unknown design {name!r}; choose from {sorted(measures)}")
        m = measures[name]()
        split = (
            f"{m.t_spec:.3f}/{m.t_detect:.3f}/{m.t_recover:.3f}"
            if m.t_spec is not None
            else "-"
        )
        rows.append((name, f"{m.delay:.3f}", split, f"{m.area:.0f}", m.gates))
    print(
        format_table(
            ["design", "delay", "spec/detect/recover", "area", "gates"],
            rows,
            title=f"n={width}, k={k} (optimized netlists, ns/µm²-like units)",
        )
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.engine import SweepJob, SweepPoint, measure_design, run_job
    from repro.engine.jobs import process_cache

    width = args.width
    job = SweepJob(
        points=tuple(
            SweepPoint("vlcsa1", width, k)
            for k in range(args.k_min, args.k_max + 1, args.k_step)
        ),
        mc_samples=args.mc_samples,
        seed=_resolve_seed(args),
    )
    result = run_job(job, workers=args.workers)
    headers = ["k", "P_err", "1-cycle delay", "area"]
    if args.mc_samples:
        headers.append(f"P_err MC({args.mc_samples})")
    rows = []
    for row in result.aggregate.ordered():
        cols = [
            row["window"],
            f"{row['model_error_rate']:.2e}",
            f"{row['delay']:.3f}",
            f"{row['area']:.0f}",
        ]
        if args.mc_samples:
            cols.append(f"{row['mc_error_rate']:.2e}")
        rows.append(tuple(cols))
    dw = measure_design("designware", width, cache=process_cache(None))
    print(
        format_table(
            headers,
            rows,
            title=f"VLCSA 1 sweep @ n={width} "
            f"(DesignWare reference: {dw.delay:.3f} / {dw.area:.0f})",
        )
    )
    return 0


def _cmd_errors(args: argparse.Namespace) -> int:
    from repro.engine import MonteCarloErrorJob, run_job

    width = args.width
    k = args.window if args.window is not None else scsa_window_size_for(width, 1e-4)
    job = _checked(
        MonteCarloErrorJob,
        width=width,
        window=k,
        samples=args.samples,
        distribution=args.inputs,
        seed=_resolve_seed(args),
        counters=("scsa1", "vlcsa2", "vlcsa2_stall"),
    )
    agg = run_job(job, workers=args.workers).aggregate
    print(
        format_table(
            ["metric", "rate"],
            [
                ("SCSA 1 / VLCSA 1 error (= stall)", percent(agg.rate("scsa1_errors"), 4)),
                ("VLCSA 2 stall (ERR0 & ERR1)", percent(agg.rate("vlcsa2_stalls"), 4)),
                ("VLCSA 2 both hypotheses wrong", percent(agg.rate("vlcsa2_errors"), 4)),
                ("Eq. 3.13 prediction (uniform)", percent(scsa_error_rate(width, k), 4)),
            ],
            title=f"n={width}, k={k}, {args.inputs} inputs, {args.samples} samples",
        )
    )
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    from repro.rtl.sequential import to_sequential_wrapper

    circuit = _build_design(args.design, args.width, args.window)
    if args.optimize:
        circuit, _ = optimize(circuit)
    text = to_verilog(circuit) + "\n" + to_sequential_wrapper(circuit)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}: core + clocked shell", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis.figures import export_figures

    written = export_figures(args.out_dir, args.names, args.samples)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    """CEC between two designs: structural → miter sim sweep → BDD proof."""
    from repro.netlist.equiv import check_equivalent
    from repro.netlist.optimize import AREA_PASSES

    c1 = _build_design(args.design1, args.width, args.window)
    c2 = _build_design(args.design2, args.width, args.window)
    if args.optimize1:
        c1, _ = optimize(c1, passes=AREA_PASSES, buffer_limit=None)
    if args.optimize2:
        c2, _ = optimize(c2, passes=AREA_PASSES, buffer_limit=None)
    buses = [(args.bus1, args.bus2)] if args.bus1 else None
    vectors = 0 if args.method == "bdd" else args.vectors
    result = check_equivalent(
        c1, c2, buses=buses, sim_vectors=vectors, seed=_resolve_seed(args)
    )
    _emit_json(
        args.json,
        {
            "command": "equiv",
            "design1": args.design1,
            "design2": args.design2,
            "width": args.width,
            "window": args.window,
            "result": result.to_dict(),
        },
        seed=_resolve_seed(args),
    )
    if result.equivalent:
        detail = (
            "identical netlists"
            if result.method == "structural"
            else f"BDD proof over {result.candidates} output bits "
            f"({result.bdd_nodes} nodes)"
        )
        print(f"EQUIVALENT: {c1.name} == {c2.name} over all inputs ({detail})")
        return 0
    bus, bit = result.mismatch
    shape = "minimized " if result.minimized else ""
    print(
        f"NOT EQUIVALENT at {bus}[{bit}] (refuted by {result.method}); "
        f"{shape}counterexample: "
        + ", ".join(f"{k}={v:#x}" for k, v in sorted(result.counterexample.items()))
    )
    return 1


def _cmd_opt(args: argparse.Namespace) -> int:
    """Netlist optimization over a design grid, optionally CEC-proven.

    Reports gate-count and unit-depth reductions per (architecture,
    width); with ``--prove`` every pass runs through the equivalence
    funnel and unproven rewrites are rolled back (any rollback fails the
    run).  ``--sim`` adds simulation throughput for the raw vs optimized
    netlists plus a bit-identity cross-check of the optimized netlist
    under both backends.  The JSON report is the checked-in
    ``BENCH_netlist_opt.json`` format.
    """
    import random
    import time

    from repro.engine.elab import grid_designs
    from repro.netlist.optimize import AREA_PASSES, DEFAULT_PASSES, depth_levels
    from repro.netlist.simulate import simulate_batch, simulate_batch_reference

    designs = list(args.designs)
    if args.all:
        designs = [d for d in grid_designs() if d not in designs] + designs
    if not designs:
        raise SystemExit("no designs given (name some, or pass --all)")
    pipeline = DEFAULT_PASSES if args.pipeline == "timing" else AREA_PASSES
    seed = _resolve_seed(args)
    rows = []
    table_rows = []
    failures = []
    for design in designs:
        for width in args.widths:
            circuit = _build_design(design, width, args.window)
            start = time.perf_counter()
            opt, stats = optimize(
                circuit,
                passes=pipeline,
                buffer_limit=args.buffer_limit,
                prove=args.prove,
                prove_vectors=args.vectors,
                prove_seed=seed,
            )
            opt_s = time.perf_counter() - start
            depth_raw = depth_levels(circuit)
            depth_opt = depth_levels(opt)
            row = {
                "architecture": design,
                "width": width,
                "window": args.window,
                "pipeline": args.pipeline,
                "gates_raw": stats.gates_before,
                "gates_opt": stats.gates_after,
                "gate_reduction": (
                    stats.gates_before / stats.gates_after
                    if stats.gates_after
                    else None
                ),
                "depth_raw": depth_raw,
                "depth_opt": depth_opt,
                "depth_reduction": depth_raw / depth_opt if depth_opt else None,
                "iterations": stats.iterations,
                "optimize_s": opt_s,
                "proved": stats.proved if args.prove else None,
                "rollbacks": stats.rollbacks,
            }
            if args.prove and stats.rollbacks:
                rolled = [r.name for r in stats.pass_records if r.rolled_back]
                failures.append(
                    f"{design} n={width}: {stats.rollbacks} pass(es) rolled "
                    f"back ({', '.join(sorted(set(rolled)))})"
                )
            if args.sim:
                rng = random.Random(seed ^ (width << 20))
                inputs = {
                    name: [rng.getrandbits(len(nets)) for _ in range(args.sim_vectors)]
                    for name, nets in circuit.input_buses.items()
                }
                raw_ref = simulate_batch_reference(circuit, inputs)
                opt_fast = simulate_batch(opt, inputs)
                opt_ref = simulate_batch_reference(opt, inputs)
                if opt_fast != opt_ref:
                    failures.append(
                        f"{design} n={width}: optimized netlist diverges "
                        f"between vectorized and reference backends"
                    )
                if opt_fast != raw_ref:
                    failures.append(
                        f"{design} n={width}: optimized outputs differ from "
                        f"the raw netlist's"
                    )
                timings = {}
                for label, target in (("raw", circuit), ("opt", opt)):
                    best = None
                    for _ in range(max(1, args.repeat)):
                        t0 = time.perf_counter()
                        simulate_batch(target, inputs)
                        dt = time.perf_counter() - t0
                        best = dt if best is None else min(best, dt)
                    timings[label] = best
                row["sim_raw_s"] = timings["raw"]
                row["sim_opt_s"] = timings["opt"]
                row["sim_speedup"] = (
                    timings["raw"] / timings["opt"] if timings["opt"] > 0 else None
                )
            rows.append(row)
            cols = [
                design,
                width,
                stats.gates_before,
                stats.gates_after,
                f"{row['gate_reduction']:.3f}x",
                depth_raw,
                depth_opt,
            ]
            if args.prove:
                cols.append("proved" if not stats.rollbacks else "ROLLBACK")
            if args.sim:
                cols.append(f"{row['sim_speedup']:.2f}x")
            table_rows.append(tuple(cols))
    headers = ["design", "n", "gates", "opt", "reduction", "depth", "opt"]
    if args.prove:
        headers.append("CEC")
    if args.sim:
        headers.append("sim")
    print(
        format_table(
            headers,
            table_rows,
            title=f"netlist optimization ({args.pipeline} pipeline"
            + (", equivalence-gated" if args.prove else "")
            + ")",
        )
    )
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    _emit_json(
        args.json,
        {
            "command": "opt",
            "designs": designs,
            "widths": list(args.widths),
            "pipeline": args.pipeline,
            "prove": args.prove,
            "vectors": args.vectors,
            "seed": seed,
            "ok": not failures,
            "rows": rows,
        },
        seed=seed,
    )
    return 1 if failures else 0


def _cmd_sta(args: argparse.Namespace) -> int:
    """Full STA of one design: arrivals, slack, top-K critical paths."""
    from repro.netlist.lint import reports_to_sarif, resolve_rules, run_lint
    from repro.netlist.timing import analyze_timing, describe_path

    circuit = _build_design(args.design, args.width, args.window)
    if args.optimize:
        circuit, _ = optimize(circuit)
    report = analyze_timing(circuit)
    clock = args.clock if args.clock is not None else report.critical_delay
    print(
        format_table(
            ["bus", "bits", "arrival ns", "depth"],
            [
                (
                    name,
                    len(nets),
                    f"{report.bus_delay(name):.3f}",
                    report.logic_depth(name),
                )
                for name, nets in sorted(circuit.output_buses.items())
            ],
            title=f"{circuit.name}: critical delay "
            f"{report.critical_delay:.3f} ns, clock {clock:.3f} ns",
        )
    )
    paths = report.critical_paths(args.paths, clock=clock)
    print()
    print(
        format_table(
            ["#", "endpoint", "startpoint", "arrival ns", "slack ns", "cells"],
            [
                (
                    i,
                    p.endpoint,
                    p.startpoint,
                    f"{p.arrival:.3f}",
                    f"{p.slack:+.3f}",
                    max(0, len(p.nets) - 1),
                )
                for i, p in enumerate(paths)
            ],
            title=f"top {len(paths)} critical paths",
        )
    )
    if args.verbose and paths:
        print()
        rows = describe_path(circuit, report, list(paths[0].nets))
        print(
            format_table(
                ["net", "cell", "arrival ns", "port"],
                [(n, k, f"{t:.3f}", port) for n, k, t, port in rows],
                title=f"worst path: {paths[0].startpoint} -> {paths[0].endpoint}",
            )
        )
    worst = min((p.slack for p in paths), default=0.0)
    if args.sarif:
        lint = run_lint(circuit, rules=resolve_rules(families=("timing",)))
        sarif = reports_to_sarif([lint])
        with open(args.sarif, "w") as handle:
            json.dump(sarif, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.sarif}", file=sys.stderr)
    _emit_json(
        args.json,
        {
            "command": "sta",
            "design": args.design,
            "width": args.width,
            "window": args.window,
            "optimized": args.optimize,
            "critical_delay": report.critical_delay,
            "clock": clock,
            "worst_slack": worst,
            "buses": {
                name: report.bus_delay(name)
                for name in sorted(circuit.output_buses)
            },
            "paths": [
                {
                    "endpoint": p.endpoint,
                    "startpoint": p.startpoint,
                    "arrival": p.arrival,
                    "slack": p.slack,
                    "cells": max(0, len(p.nets) - 1),
                }
                for p in paths
            ],
        },
        seed=None,
    )
    if worst < -1e-9:
        print(
            f"TIMING VIOLATION: worst endpoint slack {worst:.3f} ns "
            f"at clock {clock:.3f} ns",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_chains(args: argparse.Namespace) -> int:
    from repro.inputs.generators import (
        GAUSSIAN_SIGMA_THESIS,
        check_gaussian_sigma,
        gaussian_operands,
        uniform_operands,
    )
    from repro.model.carry_chains import chain_length_histogram

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


def _engine_cache(args: argparse.Namespace):
    """The disk-backed elaboration cache the engine subcommand uses."""
    from repro.engine import default_cache_dir
    from repro.engine.jobs import process_cache

    if getattr(args, "no_cache", False):
        return None, None
    directory = args.cache_dir if args.cache_dir else str(default_cache_dir())
    return process_cache(directory), directory


def _emit_json(
    path: Optional[str], payload: dict, seed: Optional[int] = None
) -> None:
    if not path:
        return
    from repro.obs.provenance import with_provenance

    payload = with_provenance(payload, seed=seed, argv=sys.argv[1:])
    text = json.dumps(payload, indent=2, sort_keys=True, default=float)
    if path == "-":
        print(text)
    else:
        try:
            with open(path, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(
                f"error: cannot write JSON report to {path!r}: {exc}",
                file=sys.stderr,
            )
            raise SystemExit(1)
        print(f"wrote {path}", file=sys.stderr)


def _print_metrics(metrics) -> None:
    print()
    for line in metrics.format_lines():
        print(f"  {line}")


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
    from repro.engine import (
        DEFAULT_CHUNK,
        EngineMetrics,
        MonteCarloErrorJob,
        measure_design,
        run_jobs,
    )

    width = args.width
    windows = args.windows or [
        args.window if args.window is not None else scsa_window_size_for(width, 1e-4)
    ]
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
        from repro.engine import CheckpointError, CheckpointStore, run_checkpointed

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

    from repro.analysis.statistics import six_sigma_comparison

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
                f"{row['model_error_rate']:.3e}",
                f"{row['scsa1_error_rate']:.3e}",
                sigma_cell,
                f"{row['vlcsa2_stall_rate']:.3e}",
                f"{design.delay:.3f}" if design else "-",
                f"{design.area:.0f}" if design else "-",
            )
        )
    print(
        format_table(
            ["k", "Eq.3.13", "SCSA1 MC", "sigma", "VLCSA2 stall", "delay", "area"],
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
        if args.merged == "-":
            print(text, end="")
        else:
            Path(args.merged).write_text(text)
            print(f"wrote {args.merged}", file=sys.stderr)
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
    from repro.engine import EngineMetrics, SweepJob, SweepPoint, run_job
    from repro.engine.elab import SWEEPABLE_DESIGNS, _FIXED

    width = args.width
    points = []
    for design in args.designs:
        if design not in SWEEPABLE_DESIGNS:
            raise SystemExit(
                f"unknown design {design!r}; choose from {SWEEPABLE_DESIGNS}"
            )
        if design in _FIXED:
            points.append(SweepPoint(design, width, None))
        else:
            points.extend(
                SweepPoint(design, width, k)
                for k in range(args.k_min, args.k_max + 1, args.k_step)
            )
    cache, cache_dir = _engine_cache(args)
    job = SweepJob(
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
    from repro.engine import DEFAULT_CHUNK, EngineMetrics, MonteCarloErrorJob, run_job

    width = args.width
    k = args.window if args.window is not None else scsa_window_size_for(width, 1e-4)
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
                ("max |error|", stats.max_abs_error),
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
    is past the float range (a mean error near 2^1024)."""
    try:
        return f"{num / den:.4g}"
    except OverflowError:
        from decimal import Decimal

        return f"{Decimal(num) / den:.4g}"


def _cmd_sim(args: argparse.Namespace) -> int:
    """Gate-level simulation benchmark across the two backends.

    Runs a design x width x batch-size grid of random batches through the
    chosen backend(s); in ``both`` mode the vectorized backend and the
    reference interpreter both run and their outputs (and, with
    ``--faults``, the fault reports) are compared bit for bit — any
    mismatch exits 1.  ``auto`` is reported as ``vectorized``, the
    backend it runs.  The JSON report is the checked-in
    ``BENCH_netlist_sim.json`` format; its top-level ``accel`` records
    whether the C library (:mod:`repro.netlist._accel`) loaded.  Times
    are the calling thread's CPU time, best of ``--repeat`` rounds, and
    ``vectorized_speedup`` is the median over the rounds of each round's
    reference/vectorized ratio.
    """
    import random
    import statistics
    import time

    from repro.engine import EngineMetrics
    from repro.netlist import _accel
    from repro.netlist.compile import compile_circuit
    from repro.netlist.faults import fault_coverage, fault_coverage_reference
    from repro.netlist.simulate import simulate_batch, simulate_batch_reference

    seed = _resolve_seed(args)
    backends = {
        "both": ["vectorized", "reference"],
        "auto": ["vectorized"],
    }.get(args.backend, [args.backend])
    fault_widths = set(args.fault_widths) if args.fault_widths else None
    repeat = max(1, args.repeat)
    metrics = EngineMetrics()
    report_rows = []
    table_rows = []
    mismatches = []
    for design in args.designs:
        for width in args.widths:
            # One elaboration per (design, width): every backend pass,
            # batch size, and fault-coverage run reuses this circuit.
            # The counter makes the invariant observable (the test suite
            # asserts elaborations == designs x widths even under
            # --backend both).
            with metrics.phase("elaborate"):
                circuit = _build_design(design, width, args.window)
            metrics.add("elaborations", 1)
            if args.optimize:
                from repro.netlist.optimize import AREA_PASSES

                with metrics.phase("optimize"):
                    circuit, _ = optimize(
                        circuit, passes=AREA_PASSES, buffer_limit=None
                    )
            if any(b != "reference" for b in backends):
                with metrics.phase("compile"):
                    compile_circuit(circuit)
            profile = None
            if args.profile_levels:
                profile = _profile_levels(circuit, metrics)
                print(profile["table"])
            for vectors in args.vectors:
                rng = random.Random(seed ^ (width << 20) ^ vectors)
                inputs = {
                    name: [rng.getrandbits(len(nets)) for _ in range(vectors)]
                    for name, nets in circuit.input_buses.items()
                }
                outs = {}
                runs = {}
                for backend in backends:
                    if backend == "reference":
                        def run(c=circuit, v=inputs):
                            return simulate_batch_reference(c, v)
                    else:
                        def run(c=circuit, v=inputs, b=backend):
                            return simulate_batch(c, v, backend=b)
                        # One untimed warmup call so one-time costs
                        # (kernel compile, vector-plan codegen, accel
                        # library load, scratch allocation) never land
                        # in the timed rounds.
                        run()
                    runs[backend] = run
                # Interleaved rounds, one call of each backend per round,
                # on this thread's CPU clock: a round's calls share the
                # host's speed of the moment, so their ratio is a property
                # of the code even where the host's speed drifts between
                # rounds (time another thread or process took is left out).
                times = {backend: [] for backend in backends}
                for _ in range(repeat):
                    for backend, run in runs.items():
                        start = time.thread_time()
                        with metrics.phase("simulate"):
                            outs[backend] = run()
                        times[backend].append(time.thread_time() - start)
                        metrics.add("samples", vectors)
                row = {
                    "architecture": design,
                    "width": width,
                    "vectors": vectors,
                    "gates": circuit.num_gates,
                }
                if profile is not None:
                    row["levels"] = profile["levels"]
                    row["plan_groups"] = profile["plan_groups"]
                for backend in backends:
                    best = min(times[backend])
                    row[f"{backend}_s"] = best
                    row[f"{backend}_samples_per_s"] = vectors / best if best > 0 else None
                if "reference" in times and "vectorized" in times:
                    ratios = [
                        ref / vec
                        for ref, vec in zip(times["reference"], times["vectorized"])
                        if vec > 0
                    ]
                    row["vectorized_speedup"] = statistics.median(ratios) if ratios else None
                first = backends[0]
                for backend in backends[1:]:
                    if outs[backend] != outs[first]:
                        mismatches.append(
                            f"{design} n={width} v={vectors}: "
                            f"{backend} outputs differ from {first}"
                        )
                run_faults = (
                    args.faults
                    and vectors == args.vectors[0]
                    and (fault_widths is None or width in fault_widths)
                )
                if run_faults:
                    fault_times = {}
                    reports = {}
                    for backend in backends:
                        if backend == "reference":
                            def cov(c=circuit, v=inputs):
                                return fault_coverage_reference(c, v)
                        else:
                            def cov(c=circuit, v=inputs):
                                return fault_coverage(c, v)
                        start = time.perf_counter()
                        with metrics.phase("faults"):
                            reports[backend] = cov()
                        fault_times[backend] = time.perf_counter() - start
                        row[f"fault_{backend}_s"] = fault_times[backend]
                    report = reports[backends[0]]
                    row["faults_total"] = report.total
                    row["faults_detected"] = report.detected
                    row["fault_coverage"] = report.coverage
                    if "reference" in fault_times and "vectorized" in fault_times:
                        row["fault_speedup"] = (
                            fault_times["reference"] / fault_times["vectorized"]
                            if fault_times["vectorized"] > 0
                            else None
                        )
                    for backend in backends[1:]:
                        lhs = reports[backend]
                        rhs = reports[first]
                        if (lhs.detected, lhs.undetected) != (
                            rhs.detected,
                            rhs.undetected,
                        ):
                            mismatches.append(
                                f"{design} n={width} v={vectors}: "
                                f"{backend} fault report differs from {first}"
                            )
                report_rows.append(row)
                cols = [design, width, vectors, circuit.num_gates]
                for backend in backends:
                    cols.append(f"{row[f'{backend}_s'] * 1e3:.2f}")
                if len(backends) > 1:
                    cols.append(
                        f"{row['vectorized_speedup']:.1f}x"
                        if row.get("vectorized_speedup")
                        else "-"
                    )
                if args.faults:
                    cols.append(
                        f"{row['fault_coverage']:.4f}"
                        if "fault_coverage" in row
                        else "-"
                    )
                    cols.append(
                        f"{row['fault_speedup']:.1f}x"
                        if row.get("fault_speedup")
                        else "-"
                    )
                table_rows.append(tuple(cols))
    headers = ["design", "n", "vectors", "gates"]
    headers += [f"{b} ms" for b in backends]
    if len(backends) > 1:
        headers += ["ref/vec"]
    if args.faults:
        headers += ["coverage", "fault speedup"]
    print(
        format_table(
            headers,
            table_rows,
            title=f"gate-level simulation (thread CPU, best of {repeat}; "
                  f"ref/vec: median of {repeat} paired rounds)",
        )
    )
    _print_metrics(metrics)
    for line in mismatches:
        print(f"MISMATCH: {line}", file=sys.stderr)
    _emit_json(
        args.json,
        {
            "command": "sim",
            "designs": list(args.designs),
            "widths": list(args.widths),
            "vectors": list(args.vectors),
            "optimize": args.optimize,
            "backend": args.backend,
            "accel": _accel.load() is not None,
            "repeat": repeat,
            "seed": seed,
            "ok": not mismatches,
            "rows": report_rows,
            "metrics": metrics.to_dict(),
        },
        seed=seed,
    )
    return 1 if mismatches else 0


def _profile_levels(circuit, metrics):
    """Fusion-quality report: per-level gate counts and plan groups.

    Returns the rendered table plus summary counts; records each level's
    gate count and every (level, kind) group's size through ``repro.obs``
    so traced runs land the fragmentation data in the metrics stream.
    """
    from collections import OrderedDict

    from repro.netlist.compile import compile_circuit
    from repro.obs import spans as _obs

    plan = compile_circuit(circuit).vector_plan()
    per_level = OrderedDict()
    for group in plan.groups:
        level_groups = per_level.setdefault(group.level, [])
        level_groups.append(group)
    rows = []
    for level, groups in per_level.items():
        gates = sum(len(g.gates) for g in groups)
        kinds = ", ".join(
            f"{g.kind}:{len(g.gates)}" for g in groups
        )
        _obs.record("sim.plan_level_gates", gates)
        for g in groups:
            _obs.record("sim.plan_group_gates", len(g.gates))
        rows.append((level, gates, len(groups), kinds))
    metrics.add("plan_groups", plan.num_groups)
    table = format_table(
        ["level", "gates", "groups", "(kind: gates)"],
        rows,
        title=f"{circuit.name}: {circuit.num_gates} gates, "
        f"{plan.num_levels} levels, {plan.num_groups} fused groups",
    )
    return {
        "table": table,
        "levels": plan.num_levels,
        "plan_groups": plan.num_groups,
    }


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis over an architecture × width grid via the engine."""
    from repro.engine import EngineMetrics, LintJob, SweepPoint, run_job
    from repro.engine.elab import LINTABLE_DESIGNS
    from repro.netlist.lint import (
        format_text,
        report_from_dict,
        reports_to_sarif,
        severity_rank,
    )

    designs = list(args.designs)
    if args.all:
        designs = [d for d in LINTABLE_DESIGNS if d not in designs] + designs
    if not designs:
        raise SystemExit("no designs given (name some, or pass --all)")
    points = tuple(
        SweepPoint(design, width, args.window)
        for design in designs
        for width in args.widths
    )
    _, cache_dir = _engine_cache(args)
    try:
        job = LintJob(
            points=points,
            optimize=not args.no_optimize,
            select=tuple(args.select) if args.select else None,
            ignore=tuple(args.ignore) if args.ignore else None,
            cache_dir=cache_dir,
            use_cache=cache_dir is not None,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    metrics = EngineMetrics()
    try:
        result = run_job(job, workers=args.workers, metrics=metrics)
    except ValueError as exc:  # e.g. unknown design name inside a worker
        raise SystemExit(str(exc))
    rows = result.aggregate.ordered()
    reports = [report_from_dict(row) for row in rows]

    self_tests = []
    if args.self_test:
        from repro.engine.elab import build_design
        from repro.netlist.lint import mutation_self_test
        from repro.netlist.optimize import optimize as optimize_circuit

        for row in rows:
            if row["architecture"] not in ("vlcsa1", "vlcsa2", "vlsa"):
                continue
            circuit = build_design(
                row["architecture"], row["width"], row["window"]
            )
            if not args.no_optimize:
                circuit, _ = optimize_circuit(circuit)
            outcome = mutation_self_test(
                circuit, max_mutants=args.max_mutants, seed=_resolve_seed(args)
            )
            self_tests.append(
                {"architecture": row["architecture"], "width": row["width"],
                 **outcome.to_dict()}
            )

    if args.format == "text":
        lines = []
        for row, report in zip(rows, reports):
            label = (
                f"{row['architecture']} n={row['width']}"
                + (f" k={row['window']}" if row["window"] is not None else "")
                + ("" if row["optimized"] else " (unoptimized)")
            )
            lines.append(f"== {label} ==")
            lines.append(format_text(report, verbose=args.verbose))
        for st in self_tests:
            status = "ok" if st["ok"] else "MISSED FAULTS"
            lines.append(
                f"== self-test {st['architecture']} n={st['width']}: "
                f"{st['killed']}/{st['total']} mutants killed ({status}) =="
            )
        text = "\n".join(lines) + "\n"
    elif args.format == "json":
        from repro.obs.provenance import with_provenance

        payload = {
            "command": "lint",
            "rows": list(rows),
            "metrics": metrics.to_dict(),
        }
        if self_tests:
            payload["self_tests"] = self_tests
        payload = with_provenance(
            payload, seed=_resolve_seed(args), argv=sys.argv[1:]
        )
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:  # sarif
        text = json.dumps(reports_to_sarif(reports), indent=2) + "\n"

    if args.output and args.output != "-":
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)

    failed = False
    if args.fail_on != "never":
        threshold = severity_rank(args.fail_on)
        failed = any(
            severity_rank(d["severity"]) >= threshold
            for row in rows
            for d in row["diagnostics"]
        )
    if any(not st["ok"] for st in self_tests):
        failed = True
    worst = result.aggregate.worst_severity()
    print(
        f"linted {len(rows)} design point(s): "
        + (f"worst severity {worst}" if worst else "clean"),
        file=sys.stderr,
    )
    return 1 if failed else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Latency-cycle histograms of the variable-latency adders.

    One seeded Monte Carlo run produces the ERR0/ERR1 stall counts; each
    design's per-operation latency (1 cycle on VALID, ``recovery_cycles``
    on STALL — thesis Fig. 5.3) is rendered as a histogram and its mean
    is checked against the Eq. 5.2 expectation from
    :mod:`repro.model.latency` at the measured stall rate.
    """
    from repro.engine import (
        EngineMetrics,
        MonteCarloErrorJob,
        measure_design,
        run_job,
    )
    from repro.model.latency import VariableLatencyAdderSim, VariableLatencyTiming

    width = args.width
    k = args.window if args.window is not None else scsa_window_size_for(width, 1e-4)
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


#: Default fuzz grid: every speculative family plus an exact reference.
_FUZZ_DESIGNS = ["vlcsa1", "vlcsa2", "scsa1", "scsa2", "kogge_stone"]


#: Designs elaborated with a window/chain-length parameter.
_FUZZ_WINDOWED = ("scsa1", "scsa2", "vlcsa1", "vlcsa2", "vlsa")


def _fuzz_points(designs, widths, window):
    """Expand the CLI grid into oracle design points (window sized like
    every other subcommand: Eq. 3.13 at the 1e-4 target unless pinned).

    Any :func:`repro.engine.elab.build_design` architecture is fuzzable —
    the exact adders serve as agreeing references, the speculative ones
    get the full behavioural cross-check battery.
    """
    from repro.adders import ADDER_GENERATORS
    from repro.fuzz import DesignPoint

    known = sorted(set(ADDER_GENERATORS) | set(_FUZZ_WINDOWED) | {"designware"})
    points = []
    for design in designs:
        if design not in known:
            raise SystemExit(f"unknown design {design!r}; choose from {known}")
        for width in widths:
            if design in _FUZZ_WINDOWED:
                k = window if window is not None else scsa_window_size_for(width, 1e-4)
                points.append(DesignPoint(design, width, k))
            else:
                points.append(DesignPoint(design, width, None))
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
        if args.out == "-":
            print(text)
        else:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.out}", file=sys.stderr)
    if client["errors"]:
        print("loadgen: transport/internal errors present", file=sys.stderr)
        return 1
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with every subcommand wired in."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Variable-latency carry select addition toolkit (Du, DATE 2012)",
    )
    from repro._version import __version__

    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
        help="print the package version and exit",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        dest="global_seed",
        help=f"seed for any sampling subcommand (default {DEFAULT_SEED})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_trace(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace", default=None, metavar="PATH",
            help="record hierarchical spans and write a Chrome trace-event "
                 "JSON (open in chrome://tracing or Perfetto); also prints "
                 "a text flamegraph to stderr",
        )

    gen = sub.add_parser("gen", help="generate Verilog for a design")
    gen.add_argument("design")
    gen.add_argument("width", type=int)
    gen.add_argument("window", type=int, nargs="?", default=None)
    gen.add_argument("-o", "--output")
    gen.add_argument("--optimize", action="store_true")
    gen.add_argument("--lint", action="store_true",
                     help="lint the circuit first; abort (exit 1) on errors")
    gen.set_defaults(fn=_cmd_gen)

    tb = sub.add_parser("tb", help="emit a self-checking Verilog testbench")
    tb.add_argument("design")
    tb.add_argument("width", type=int)
    tb.add_argument("window", type=int, nargs="?", default=None)
    tb.add_argument("-o", "--output")
    tb.add_argument("--vectors", type=int, default=64)
    tb.add_argument("--seed", type=int, default=None)
    tb.add_argument("--lint", action="store_true",
                    help="lint the circuit first; abort (exit 1) on errors")
    tb.set_defaults(fn=_cmd_tb)

    report = sub.add_parser("report", help="delay/area report")
    report.add_argument("width", type=int)
    report.add_argument("--window", type=int, default=None)
    report.add_argument("--designs", nargs="*", default=None)
    report.set_defaults(fn=_cmd_report)

    sweep = sub.add_parser("sweep", help="VLCSA 1 window-size sweep")
    sweep.add_argument("width", type=int)
    sweep.add_argument("--k-min", type=int, default=6)
    sweep.add_argument("--k-max", type=int, default=20)
    sweep.add_argument("--k-step", type=int, default=2)
    sweep.add_argument("--mc-samples", type=int, default=0)
    sweep.add_argument("--workers", type=int, default=0)
    sweep.add_argument("--seed", type=int, default=None)
    _add_trace(sweep)
    sweep.set_defaults(fn=_cmd_sweep)

    errors = sub.add_parser("errors", help="Monte Carlo error/stall rates")
    errors.add_argument("width", type=int)
    errors.add_argument("--window", type=int, default=None)
    errors.add_argument("--inputs", choices=["uniform", "gaussian"], default="uniform")
    errors.add_argument("--samples", type=int, default=200_000)
    errors.add_argument("--seed", type=int, default=None)
    errors.add_argument("--workers", type=int, default=0)
    _add_trace(errors)
    errors.set_defaults(fn=_cmd_errors)

    equiv = sub.add_parser(
        "equiv",
        help="combinational equivalence check "
             "(structural / miter sim sweep / BDD proof)",
    )
    equiv.add_argument("design1")
    equiv.add_argument("design2")
    equiv.add_argument("width", type=int)
    equiv.add_argument("--window", type=int, default=None)
    equiv.add_argument("--bus1", default=None)
    equiv.add_argument("--bus2", default=None)
    equiv.add_argument("--method", choices=["auto", "bdd"], default="auto",
                       help="'auto' runs the full funnel; 'bdd' skips the "
                            "simulation sweep and proves directly")
    equiv.add_argument("--vectors", type=int, default=256,
                       help="random vectors in the miter sweep (default 256)")
    equiv.add_argument("--optimize1", action="store_true",
                       help="optimize design1 (area pipeline) before comparing")
    equiv.add_argument("--optimize2", action="store_true",
                       help="optimize design2 (area pipeline) before comparing")
    equiv.add_argument("--seed", type=int, default=None)
    equiv.add_argument("--json", default=None, metavar="PATH",
                       help="write a JSON report ('-' for stdout)")
    equiv.set_defaults(fn=_cmd_equiv)

    opt = sub.add_parser(
        "opt",
        help="netlist optimization grid: gate/depth reductions, "
             "equivalence-gated with --prove",
    )
    opt.add_argument("designs", nargs="*",
                     help="architectures to optimize (see also --all)")
    opt.add_argument("--all", action="store_true",
                     help="optimize every elaborable design (the full grid)")
    opt.add_argument("--widths", type=int, nargs="+", default=[8, 16, 32, 64],
                     metavar="N", help="adder widths (default: 8 16 32 64)")
    opt.add_argument("--window", type=int, default=None,
                     help="window size k (default: Eq. 3.13 sizing @ 1e-4)")
    opt.add_argument("--pipeline", choices=["area", "timing"], default="area",
                     help="'area' includes structural hashing/CSE; 'timing' "
                          "is the measurement pipeline (default: area)")
    opt.add_argument("--prove", action="store_true",
                     help="run CEC after every pass; roll back and fail on "
                          "any unproven rewrite")
    opt.add_argument("--vectors", type=int, default=64,
                     help="sweep vectors per CEC check (default 64)")
    opt.add_argument("--buffer-limit", type=int, default=None,
                     help="fanout-repair pin limit (default: no buffering, "
                          "so gate counts measure logic alone)")
    opt.add_argument("--sim", action="store_true",
                     help="also benchmark simulation throughput raw vs "
                          "optimized and cross-check bit-identity")
    opt.add_argument("--sim-vectors", type=int, default=1024,
                     help="vectors for the --sim benchmark (default 1024)")
    opt.add_argument("--repeat", type=int, default=3,
                     help="timing repetitions for --sim, best kept (default 3)")
    opt.add_argument("--seed", type=int, default=None)
    opt.add_argument("--json", default=None, metavar="PATH",
                     help="write a BENCH_netlist_opt.json report "
                          "('-' for stdout)")
    _add_trace(opt)
    opt.set_defaults(fn=_cmd_opt)

    sta = sub.add_parser(
        "sta",
        help="static timing analysis: arrivals, slack, top-K critical paths",
    )
    sta.add_argument("design")
    sta.add_argument("width", type=int)
    sta.add_argument("window", type=int, nargs="?", default=None)
    sta.add_argument("--optimize", action="store_true",
                     help="analyze the optimized netlist (timing pipeline)")
    sta.add_argument("--clock", type=float, default=None,
                     help="required time at every output (default: the "
                          "critical delay, i.e. zero worst slack)")
    sta.add_argument("--paths", type=int, default=5,
                     help="number of critical paths to enumerate (default 5)")
    sta.add_argument("-v", "--verbose", action="store_true",
                     help="also print the worst path cell by cell")
    sta.add_argument("--sarif", default=None, metavar="PATH",
                     help="write timing-rule diagnostics as SARIF 2.1.0")
    sta.add_argument("--json", default=None, metavar="PATH",
                     help="write a JSON report ('-' for stdout)")
    sta.set_defaults(fn=_cmd_sta)

    chains = sub.add_parser("chains", help="carry-chain-length histogram")
    chains.add_argument("width", type=int)
    chains.add_argument("--inputs", choices=["uniform", "gaussian"], default="uniform")
    chains.add_argument("--samples", type=int, default=100_000)
    chains.add_argument("--seed", type=int, default=None)
    chains.set_defaults(fn=_cmd_chains)

    seq = sub.add_parser(
        "seq", help="emit a variable-latency core plus its clocked shell"
    )
    seq.add_argument("design", choices=["vlcsa1", "vlcsa2", "vlsa"])
    seq.add_argument("width", type=int)
    seq.add_argument("window", type=int, nargs="?", default=None)
    seq.add_argument("-o", "--output")
    seq.add_argument("--optimize", action="store_true")
    seq.set_defaults(fn=_cmd_seq)

    figures = sub.add_parser(
        "figures", help="export figure data series as JSON"
    )
    figures.add_argument("-o", "--out-dir", default="figures")
    figures.add_argument("--names", nargs="*", default=None)
    figures.add_argument("--samples", type=int, default=100_000)
    figures.set_defaults(fn=_cmd_figures)

    lint = sub.add_parser(
        "lint", help="static analysis: structural, formal (BDD), timing rules"
    )
    lint.add_argument("designs", nargs="*", default=[],
                      help="architectures to lint (see also --all)")
    lint.add_argument("--all", action="store_true",
                      help="lint the default architecture gate set")
    lint.add_argument("--widths", type=int, nargs="+", default=[16, 32, 64],
                      metavar="N", help="adder widths (default: 16 32 64)")
    lint.add_argument("--window", type=int, default=None,
                      help="window size k (default: Eq. 3.13 sizing @ 1e-4)")
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default="text")
    lint.add_argument("-o", "--output", default=None,
                      help="write the report to a file ('-' for stdout)")
    lint.add_argument("--fail-on", choices=["error", "warning", "never"],
                      default="error",
                      help="exit 1 when a diagnostic reaches this severity")
    lint.add_argument("--select", nargs="+", default=None, metavar="RULE",
                      help="run only these rule ids/names")
    lint.add_argument("--ignore", nargs="+", default=None, metavar="RULE",
                      help="skip these rule ids/names")
    lint.add_argument("--no-optimize", action="store_true",
                      help="lint the raw netlist instead of the optimized one")
    lint.add_argument("--verbose", action="store_true",
                      help="include fix hints in text output")
    lint.add_argument("--self-test", action="store_true",
                      help="also mutation-test the formal rules (inject "
                           "stuck-at faults into the detector cone)")
    lint.add_argument("--max-mutants", type=int, default=64,
                      help="mutants per design in --self-test (default 64)")
    lint.add_argument("--workers", type=int, default=0,
                      help="worker processes (0/1 = serial, bit-identical)")
    lint.add_argument("--seed", type=int, default=None)
    lint.add_argument("--cache-dir", default=None,
                      help="elaboration cache directory (default: user cache dir)")
    lint.add_argument("--no-cache", action="store_true",
                      help="skip the on-disk elaboration cache")
    _add_trace(lint)
    lint.set_defaults(fn=_cmd_lint)

    engine = sub.add_parser(
        "engine", help="batch-execution engine: cached, parallel runs + metrics"
    )
    esub = engine.add_subparsers(dest="engine_command", required=True)

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

    e_err = esub.add_parser(
        "errors", help="Monte Carlo error/stall rates (Fig. 7.1 style)"
    )
    e_err.add_argument("width", type=int)
    e_err.add_argument("--window", type=int, default=None)
    e_err.add_argument("--windows", type=int, nargs="*", default=None,
                       help="sweep several window sizes through one pool")
    e_err.add_argument("--inputs", choices=["uniform", "gaussian"], default="uniform")
    e_err.add_argument("--samples", type=int, default=1_000_000)
    e_err.add_argument("--chunk", type=int, default=None)
    e_err.add_argument("--no-design", action="store_true",
                       help="skip the delay/area columns (no elaboration)")
    e_err.add_argument("--checkpoint", default=None, metavar="DIR",
                       help="run through the durable work-stealing runner; "
                            "chunk results checkpoint under DIR/w<k> and a "
                            "killed run resumes bit-identically")
    e_err.add_argument("--resume", action="store_true",
                       help="continue an existing --checkpoint directory "
                            "(required when DIR already holds a run)")
    e_err.add_argument("--progress", action="store_true",
                       help="print throttled chunk-completion lines (rate, "
                            "error events, ETA) to stderr")
    e_err.add_argument("--time-budget", type=float, default=None, metavar="S",
                       help="stop checkpointing after S seconds; the partial "
                            "run resumes later with --resume")
    e_err.add_argument("--check-model", action="store_true",
                       help="exit 1 if any complete window's empirical rate "
                            "deviates from the exact window-chain model by "
                            "more than 6 sigma (the Eq. 3.13 sigma is "
                            "reported alongside; its union-bound error is "
                            "real at billion-sample resolution)")
    e_err.add_argument("--merged", default=None, metavar="PATH",
                       help="write the deterministic merged report ('-' for "
                            "stdout): byte-identical across interrupted/"
                            "resumed runs of the same job")
    _engine_common(e_err)
    e_err.set_defaults(fn=_cmd_engine_errors)

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

    sim = sub.add_parser(
        "sim",
        help="gate-level simulation benchmark (vectorized / reference)",
    )
    sim.add_argument("designs", nargs="+",
                     help="architectures to simulate (e.g. vlcsa1 designware)")
    sim.add_argument("--widths", type=int, nargs="+", default=[16, 32, 64],
                     metavar="N", help="adder widths (default: 16 32 64)")
    sim.add_argument("--window", type=int, default=None,
                     help="window size k (default: Eq. 3.13 sizing @ 1e-4)")
    sim.add_argument("--vectors", type=int, nargs="+", default=[1024],
                     metavar="V",
                     help="batch sizes to run per design point "
                          "(default: 1024)")
    sim.add_argument("--backend",
                     choices=["auto", "vectorized", "reference", "both"],
                     default="auto",
                     help="backend(s) to run (default: auto, the vectorized "
                          "backend); 'both' runs vectorized and reference and "
                          "cross-checks outputs bit for bit, exiting 1 on "
                          "divergence")
    sim.add_argument("--faults", action="store_true",
                     help="also run stuck-at fault coverage per point "
                          "(at the first --vectors batch size)")
    sim.add_argument("--fault-widths", type=int, nargs="+", default=None,
                     metavar="N",
                     help="restrict fault coverage to these widths "
                          "(default: all)")
    sim.add_argument("--profile-levels", action="store_true",
                     help="print the per-level gate-count and (level, kind) "
                          "fusion-group report per design point")
    sim.add_argument("--optimize", action="store_true",
                     help="simulate the optimized netlist (area pipeline); "
                          "with --backend both this checks optimize-then-"
                          "simulate bit-identity across backends")
    sim.add_argument("--repeat", type=int, default=3,
                     help="timed rounds per point, one call of each backend "
                          "per round: the best thread-CPU time of each is "
                          "kept, and the speedup is the median of the "
                          "rounds' ratios (default 3)")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--json", default=None, metavar="PATH",
                     help="write a JSON report ('-' for stdout)")
    _add_trace(sim)
    sim.set_defaults(fn=_cmd_sim)

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

    bench = sub.add_parser(
        "bench", help="benchmark-report tooling (regression telemetry)"
    )
    bsub = bench.add_subparsers(dest="bench_command", required=True)
    from repro.obs.bench import DEFAULT_METRICS as BENCH_DEFAULT_METRICS

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
                            f"(default: {' '.join(BENCH_DEFAULT_METRICS)})")
    b_cmp.set_defaults(fn=_cmd_bench_compare)

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

    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit status.

    ``--trace PATH`` (on the commands that support it) turns the
    :mod:`repro.obs` span recorder on around the command, writes the
    Chrome trace-event JSON afterwards, and prints a text flamegraph to
    stderr.  Tracing is strictly opt-in: without the flag the obs layer
    stays disabled and the instrumented paths pay a single branch.
    """
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return args.fn(args)

    from repro.obs import spans as _obs
    from repro.obs.export import flamegraph_lines, write_chrome_trace

    _obs.reset()
    _obs.enable()
    try:
        with _obs.span(f"repro.{args.command}"):
            status = args.fn(args)
        events = write_chrome_trace(trace_path)
        print(f"wrote {trace_path}: {events} trace event(s)", file=sys.stderr)
        for line in flamegraph_lines(_obs.global_collector().spans):
            print(f"  {line}", file=sys.stderr)
    finally:
        _obs.disable()
        _obs.reset()
    return status


if __name__ == "__main__":
    raise SystemExit(main())
