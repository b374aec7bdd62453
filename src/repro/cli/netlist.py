"""Netlist commands: ``sim``, ``equiv``, ``opt``, ``sta`` and ``lint``."""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from collections import OrderedDict

from repro.analysis.report import format_table

from repro.cli import (
    _add_trace,
    _build_design,
    _emit_json,
    _engine_cache,
    _print_metrics,
    _resolve_seed,
    _write_output,
)
from repro.engine import EngineMetrics, LintJob, SweepPoint, run_job
from repro.engine.elab import LINTABLE_DESIGNS, build_design, grid_designs
from repro.netlist import _accel
from repro.netlist.compile import compile_circuit
from repro.netlist.faults import fault_coverage, fault_coverage_reference
from repro.netlist.lint import (
    format_text,
    mutation_self_test,
    report_from_dict,
    reports_to_sarif,
    resolve_rules,
    run_lint,
    severity_rank,
)
from repro.netlist.optimize import AREA_PASSES, DEFAULT_PASSES, depth_levels, optimize
from repro.netlist.simulate import simulate_batch, simulate_batch_reference
from repro.netlist.timing import analyze_timing, describe_path
from repro.obs import spans as _obs


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
    import statistics

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


def _cmd_equiv(args: argparse.Namespace) -> int:
    """CEC between two designs: structural → miter sim sweep → BDD proof."""
    from repro.netlist.equiv import check_equivalent

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
        sarif = json.dumps(reports_to_sarif([lint]), indent=2, sort_keys=True)
        _write_output(args.sarif, sarif + "\n", "SARIF report")
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


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis over an architecture × width grid via the engine."""
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
    result = run_job(job, workers=args.workers, metrics=metrics)
    rows = result.aggregate.ordered()
    reports = [report_from_dict(row) for row in rows]

    self_tests = []
    if args.self_test:
        for row in rows:
            if row["architecture"] not in ("vlcsa1", "vlcsa2", "vlsa"):
                continue
            circuit = build_design(
                row["architecture"], row["width"], row["window"]
            )
            if not args.no_optimize:
                circuit, _ = optimize(circuit)
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
        _write_output(args.output, "\n".join(lines) + "\n", "lint report")
    elif args.format == "json":
        payload = {
            "command": "lint",
            "rows": list(rows),
            "metrics": metrics.to_dict(),
        }
        if self_tests:
            payload["self_tests"] = self_tests
        _emit_json(args.output or "-", payload, seed=_resolve_seed(args))
    else:  # sarif
        text = json.dumps(reports_to_sarif(reports), indent=2) + "\n"
        _write_output(args.output, text, "SARIF report")

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


def register(sub) -> None:
    """Add ``sim``, ``equiv``, ``opt``, ``sta`` and ``lint``."""
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
