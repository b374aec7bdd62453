"""The repository benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload mc-thesis --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the workload's traced pass and reports the
per-layer metrics.  Both print a human-readable report first and one JSON
object as the last line, and exit non-zero when any output was wrong.
Workloads, metrics and the layer interaction table are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload name -> (module, class).
WORKLOADS = {
    "mc-thesis": ("mc_workloads", "McThesis"),
    "mc-checkpoint": ("mc_workloads", "McCheckpoint"),
    "sim-netlist": ("sim_workload", "SimNetlist"),
    "serve-closed": ("serve_workload", "ServeClosed"),
}

#: Extra fresh-process set-ups per run; ``setup_s`` is the median of these
#: and the run's own set-up.
SETUP_PROBES = 4

#: Scratch directory inside the checkout (sockets, checkpoints, spans).
WORKDIR = ".perfbench-work"

_PROBE_TIMEOUT_S = 120


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (figures are not comparable)")
    parser.add_argument("--plant", choices=("aggregate", "sim"), default="",
                        help="corrupt one checked result (smoke test of the checks)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _environment(workdir: Path) -> None:
    """Keep every file the program writes inside the checkout."""
    os.environ["REPRO_ACCEL_CACHE"] = str(workdir / "accel")
    os.environ["XDG_CACHE_HOME"] = str(workdir / "cache")
    os.environ["REPRO_ENGINE_CACHE"] = str(workdir / "engine-cache")
    # Provenance stamps run `git rev-parse`; stop its search at the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def _setup_probes(args) -> list:
    """Set the workload up in fresh processes; their set-up seconds."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.tiny:
        command.append("--tiny")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, stdout=subprocess.PIPE, timeout=_PROBE_TIMEOUT_S,
                              check=True, text=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _traced(workload, seconds: float, workdir: Path, accel: bool) -> dict:
    """The per-layer metrics: program counters from a shortened timed
    phase, then an untraced and a traced run of the same serial pass."""
    import layers
    from tracing import ROOT as ROOT_SPAN
    from tracing import Tracer, print_self_time_table

    workload.run(seconds / 2)
    counters = workload.layer_counters()
    counters["accel.loaded"] = 1.0 if accel else 0.0
    tracer = Tracer()
    workload.trace_pass(tracer)  # warm-up, so the untraced pass is not the colder one
    untraced = workload.trace_pass(tracer)
    try:
        layers.install(tracer)
        tracer.enabled = True
        traced = workload.trace_pass(tracer)
    finally:
        tracer.enabled = False
        tracer.restore()
    wall = print_self_time_table(workload.name, tracer)
    tracer.write(str(workdir / f"spans-{workload.name}.json"))
    print(f"  spans written to {WORKDIR}/spans-{workload.name}.json")
    counters.update({k: v for k, v in traced.items() if k != "trace.wall_s"})
    counters["trace.overhead_ratio"] = traced["trace.wall_s"] / untraced["trace.wall_s"]
    counters["trace.untraced_s"] = tracer.self_times()[ROOT_SPAN][0]
    print(f"  traced wall {wall:.4f} s, untraced pass {untraced['trace.wall_s']:.4f} s, "
          f"overhead ratio {counters['trace.overhead_ratio']:.3f}")
    metrics = layers.per_layer(tracer, counters)
    print("== per-layer metrics (BENCHMARK.json names)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/repro; run the benchmark from a "
              f"full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workdir = ROOT / WORKDIR
    workdir.mkdir(exist_ok=True)
    _environment(workdir)
    sys.path.insert(0, str(HERE))
    import report

    module, cls = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(module), cls)(
        args.seed, workdir, tiny=args.tiny, plant=args.plant
    )
    if args.setup_probe:
        start = time.perf_counter()
        try:
            workload.setup()
            elapsed = time.perf_counter() - start
        finally:
            workload.close()
        print(json.dumps({"setup_s": elapsed}))
        return 0

    setup_samples = [] if args.trace else _setup_probes(args)
    try:
        start = time.perf_counter()
        workload.setup()
        setup_samples.append(time.perf_counter() - start)
        if hasattr(workload, "prepare"):
            workload.prepare()
        from repro.netlist import _accel

        accel = _accel.load() is not None
        print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} {report.stamp(accel)}")
        if not accel:
            print("# WARNING: the C transpose fast path did not load; sim-netlist "
                  "figures are not comparable with runs that had it")
        if args.trace:
            metrics = _traced(workload, args.seconds, workdir, accel)
        else:
            workload.run(args.seconds)
        problems = workload.check()
    finally:
        workload.close()

    summary = workload.summary()
    failed = summary.failed + len(problems)
    attempted = max(1, summary.attempted)
    extra = summary.extra + [
        report.op_tail(summary),
        report.Metric("failed_ratio", failed / attempted, "ratio", attempted,
                      "failed or wrong operations over attempted"),
    ]
    report.print_metrics(f"{args.workload} metrics", extra)
    if not args.trace:
        e2e = report.end_to_end(summary, setup_samples)
        report.print_metrics("end-to-end (BENCHMARK.json names)", e2e)
        metrics = {m.name: (m.value, m.unit) for m in e2e}
    for problem in problems:
        print(f"MISMATCH: {problem}")
    correct = not problems and summary.failed == 0
    print(json.dumps(report.result_line(correct, attempted, failed, metrics)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
