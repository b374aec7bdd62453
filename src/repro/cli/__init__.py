"""Command-line interface: ``python -m repro <command> ...``.

Mirrors the thesis' C++ generator workflow ("programs which take the adder
width n and the window size k, and generate Verilog files") plus the
analyses this reproduction adds.  One module per command group declares
its parsers next to its handlers (``register(sub)``):

* :mod:`repro.cli.design` — ``gen`` (Verilog for any design), ``tb``
  (self-checking testbench), ``seq`` (the clocked Fig. 5.3 machine
  around a variable-latency core), ``report`` (delay/area table) and
  ``figures`` (figure data series as JSON);
* :mod:`repro.cli.mc` — Monte Carlo through :mod:`repro.engine`:
  ``engine errors`` (error/stall rates, optionally checkpointed and
  resumable), ``engine sweep`` (cached STA/area sweep), ``engine
  magnitude`` (error magnitude, thesis section 3.3), ``chains``
  (carry-chain histograms) and ``stats`` (latency-cycle histograms
  against the Eq. 5.2 timing model);
* :mod:`repro.cli.netlist` — ``sim`` (vectorized vs reference simulation
  benchmark with bit-for-bit cross-checks and fault coverage), ``equiv``
  (structural / miter sweep / BDD equivalence check), ``opt`` (the
  optimizer over a design grid, CEC-gated with ``--prove``), ``sta``
  (arrivals, slack, critical paths, SARIF) and ``lint`` (structural,
  formal and timing rules with a mutation self-test);
* :mod:`repro.cli.fuzz` — ``fuzz``, coverage-guided differential fuzzing
  with a minimizing corpus (``--replay``) and a planted-mutant
  ``--self-test``;
* :mod:`repro.cli.serve` — ``serve`` (the evaluation service) and
  ``loadgen`` (a seeded load generator that gates the SLO report);
* :mod:`repro.cli.bench` — ``bench compare``, which fails on a
  throughput/speedup regression against a baseline report.

This module holds what every command shares: seed resolution, the
``error:``-and-exit helpers, report writing and the metrics footer.
Group modules import at the top only what ``import repro`` has already
loaded; the rest (the service, the fuzzer, the equivalence checker,
trace export) is imported inside the handlers, so building the parser
stays cheap.  Commands that do real work take
``--trace PATH`` to record hierarchical spans (:mod:`repro.obs`) and
export a Chrome trace-event JSON.  A global ``--seed`` before the
subcommand seeds any sampling command; each run is deterministic either
way (the default seed is fixed).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro._version import __version__

from repro.engine.cache import default_cache_dir, process_cache
from repro.engine.elab import build_design

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


def _check_widths(flag: str, widths: Sequence[int]) -> None:
    """``error: FLAG must be >= 1`` and exit status 2 for any width below
    1, before a design is built (a netlist bus cannot be empty)."""
    for width in widths:
        if width < 1:
            print(f"error: {flag} must be >= 1, got {width}", file=sys.stderr)
            raise SystemExit(2)


def _build_design(name: str, width: int, window: Optional[int]):
    """Elaborate any named design at the given parameters."""
    _check_widths("width", [width])
    try:
        return build_design(name, width, window)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _engine_cache(args: argparse.Namespace):
    """The disk-backed elaboration cache and its directory (``None, None``
    under ``--no-cache``)."""
    if getattr(args, "no_cache", False):
        return None, None
    directory = args.cache_dir if args.cache_dir else str(default_cache_dir())
    return process_cache(directory), directory


def _write_output(path: Optional[str], text: str, what: str, note: str = "") -> None:
    """Write ``text`` to ``path``, or to stdout when ``path`` is empty or
    ``-``.  A file write is announced on stderr as ``wrote PATH`` plus
    ``note``; one that fails prints ``error: cannot write WHAT to 'PATH'``
    and exits 1."""
    if not path or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {what} to {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(1)
    print(f"wrote {path}{note}", file=sys.stderr)


def _emit_json(
    path: Optional[str], payload: dict, seed: Optional[int] = None
) -> None:
    """``--json PATH``: the provenance-stamped report, if a path was given."""
    if not path:
        return
    from repro.obs.provenance import with_provenance

    payload = with_provenance(payload, seed=seed, argv=sys.argv[1:])
    text = json.dumps(payload, indent=2, sort_keys=True, default=float)
    _write_output(path, text + "\n", "JSON report")


def _print_metrics(metrics) -> None:
    print()
    for line in metrics.format_lines():
        print(f"  {line}")


def _add_trace(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record hierarchical spans and write a Chrome trace-event "
             "JSON (open in chrome://tracing or Perfetto); also prints "
             "a text flamegraph to stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with every command group wired in."""
    from repro.cli import bench, design, fuzz, mc, netlist, serve

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Variable-latency carry select addition toolkit (Du, DATE 2012)",
    )
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
    for group in (design, mc, netlist, fuzz, bench, serve):
        group.register(sub)
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
    workers = getattr(args, "workers", 0)
    if workers < 0:
        print(f"error: --workers must be >= 0, got {workers}", file=sys.stderr)
        raise SystemExit(2)
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
