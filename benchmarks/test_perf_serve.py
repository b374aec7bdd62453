"""Performance: warm served requests vs cold CLI one-shots.

The serve subsystem (:mod:`repro.serve`) keeps elaborated designs and
measurement caches resident in warm worker shards, so a request pays
only the socket round trip plus (for repeats) a cache lookup.  A cold
CLI invocation pays interpreter start-up, imports, and elaboration on
every call.  This benchmark times both paths for the same evaluation
and enforces the PR's >=10x floor on the warm/cold ratio.

Rows are keyed by ``(architecture, width)`` with a ``speedup`` metric so
``repro bench compare --metrics speedup`` gates them unchanged.  Set
``REPRO_SERVE_BENCH_OUT=path.json`` to write the checked-in
``BENCH_serve.json`` report format.
"""

import json
import os
import subprocess
import sys
import time

from repro.analysis.report import format_table
from repro.serve.client import ServeClient
from repro.serve.harness import ServerThread
from repro.serve.server import ServeConfig

from benchmarks.conftest import full_scale, run_once

SEED = 2012
ERROR_SAMPLES = 2048


def _cli_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


def _cold_cli_seconds(args, repeat):
    """Wall time of a fresh ``python -m repro`` process (best of N).

    Every run is genuinely cold: a new interpreter, new imports, new
    elaboration.  Best-of keeps machine noise out of the ratio.
    """
    env = _cli_env()
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            env=env,
            capture_output=True,
            text=True,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        best = elapsed if best is None else min(best, elapsed)
    return best


def _warm_request_seconds(client, kind, params, repeat):
    """Round-trip time of a served request against warm shards."""
    # Warm-up: populate the shard's elaboration/measure caches.
    for _ in range(2):
        client.evaluate(kind, params, seed=SEED)
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        response = client.evaluate(kind, params, seed=SEED)
        elapsed = time.perf_counter() - start
        assert response["ok"] is True
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_perf_serve_warm_vs_cold_cli(benchmark, tmp_path):
    cold_repeat = 3 if full_scale() else 2
    warm_repeat = 10 if full_scale() else 5

    points = [
        {
            "architecture": "serve_measure",
            "width": 64,
            "kind": "measure",
            "params": {"architecture": "vlcsa1", "width": 64, "window": 8},
            "cli": ["report", "64", "--designs", "vlcsa1"],
        },
        {
            "architecture": "serve_errors",
            "width": 32,
            "kind": "errors",
            "params": {"width": 32, "window": 8, "samples": ERROR_SAMPLES},
            "cli": [
                "engine", "errors", "32", "--windows", "8",
                "--samples", str(ERROR_SAMPLES),
            ],
        },
    ]

    def compute():
        uds = str(tmp_path / "bench.sock")
        rows = []
        with ServerThread(
            ServeConfig(uds=uds, shards=1, cache_dir=str(tmp_path / "cache"))
        ):
            with ServeClient(uds=uds) as client:
                for point in points:
                    warm_s = _warm_request_seconds(
                        client, point["kind"], point["params"], warm_repeat
                    )
                    cold_s = _cold_cli_seconds(point["cli"], cold_repeat)
                    rows.append(
                        {
                            "architecture": point["architecture"],
                            "width": point["width"],
                            "kind": point["kind"],
                            "warm_request_s": warm_s,
                            "cold_cli_s": cold_s,
                            "speedup": cold_s / warm_s,
                        }
                    )
        return rows

    rows = run_once(benchmark, compute)
    print()
    print(
        format_table(
            ["request", "warm served", "cold CLI", "speedup"],
            [
                (
                    f"{r['architecture']} n={r['width']}",
                    f"{r['warm_request_s'] * 1e3:.2f} ms",
                    f"{r['cold_cli_s'] * 1e3:.0f} ms",
                    f"{r['speedup']:.0f}x",
                )
                for r in rows
            ],
            title=(
                f"served request (warm shard, best of {warm_repeat}) vs "
                f"one-shot CLI (best of {cold_repeat})"
            ),
        )
    )

    out = os.environ.get("REPRO_SERVE_BENCH_OUT")
    if out:
        report = {
            "command": "serve-bench",
            "ok": True,
            "seed": SEED,
            "repeat": warm_repeat,
            "rows": rows,
        }
        with open(out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")

    floor = 10.0
    for r in rows:
        assert r["speedup"] >= floor, (
            f"{r['architecture']}: warm served request only "
            f"{r['speedup']:.1f}x faster than the cold CLI "
            f"(floor {floor:.0f}x)"
        )
