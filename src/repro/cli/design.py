"""Design commands: ``gen``, ``tb``, ``seq``, ``report`` and ``figures``."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.figures import export_figures
from repro.analysis.report import format_table
from repro.analysis.sizing import default_window
from repro.cli import _build_design, _check_widths, _resolve_seed, _write_output
from repro.engine.elab import WINDOWED_DESIGNS, measure_design
from repro.netlist.lint import format_text, run_lint
from repro.netlist.optimize import optimize
from repro.rtl import to_testbench, to_verilog
from repro.rtl.sequential import to_sequential_wrapper

#: The designs ``repro report`` tabulates when none are named.
_REPORT_DESIGNS = ("designware", "kogge_stone", "scsa1", "vlcsa1", "vlcsa2", "vlsa")


def _lint_or_die(circuit) -> None:
    """``--lint`` support for export commands: report every diagnostic on
    stderr and abort (before writing anything) when any is an error."""
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
    _write_output(
        args.output, to_verilog(circuit), "Verilog", f": {circuit.num_gates} gates"
    )
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
    _write_output(args.output, to_testbench(circuit, vectors), "testbench")
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    circuit = _build_design(args.design, args.width, args.window)
    if args.optimize:
        circuit, _ = optimize(circuit)
    text = to_verilog(circuit) + "\n" + to_sequential_wrapper(circuit)
    _write_output(args.output, text, "Verilog", ": core + clocked shell")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    width = args.width
    _check_widths("width", [width])
    k = default_window(width, args.window)
    rows = []
    for name in args.designs or _REPORT_DESIGNS:
        window = k if name in WINDOWED_DESIGNS else None
        try:
            m = measure_design(name, width, window)
        except ValueError as exc:
            raise SystemExit(str(exc))
        paths = (m.t_spec, m.t_detect, m.t_recover)
        split = (
            "/".join("-" if t is None else f"{t:.3f}" for t in paths)
            if any(t is not None for t in paths)
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


def _cmd_figures(args: argparse.Namespace) -> int:
    try:
        written = export_figures(args.out_dir, args.names, args.samples)
    except OSError as exc:
        print(f"error: cannot write figures to {args.out_dir!r}: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


def register(sub) -> None:
    """Add ``gen``, ``tb``, ``seq``, ``report`` and ``figures``."""
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

    seq = sub.add_parser(
        "seq", help="emit a variable-latency core plus its clocked shell"
    )
    seq.add_argument("design", choices=["vlcsa1", "vlcsa2", "vlsa"])
    seq.add_argument("width", type=int)
    seq.add_argument("window", type=int, nargs="?", default=None)
    seq.add_argument("-o", "--output")
    seq.add_argument("--optimize", action="store_true")
    seq.set_defaults(fn=_cmd_seq)

    report = sub.add_parser("report", help="delay/area report")
    report.add_argument("width", type=int)
    report.add_argument("--window", type=int, default=None)
    report.add_argument("--designs", nargs="*", default=None)
    report.set_defaults(fn=_cmd_report)

    figures = sub.add_parser(
        "figures", help="export figure data series as JSON"
    )
    figures.add_argument("-o", "--out-dir", default="figures")
    figures.add_argument("--names", nargs="*", default=None)
    figures.add_argument("--samples", type=int, default=100_000)
    figures.set_defaults(fn=_cmd_figures)
