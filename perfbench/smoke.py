"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload: an untraced and a traced run must exit 0 and print
every metric ``BENCHMARK.json`` names (and every workload metric) with its
unit; a run with a planted wrong result must fail its checks, raise
``failed_ratio`` and exit 1.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload metrics each workload's report must print, with their units.
WORKLOAD_METRICS = {
    "mc-thesis": {"mc_samples_per_s": "1/s"},
    "mc-checkpoint": {"mc_samples_per_s": "1/s", "resume_s": "s"},
    "sim-netlist": {"sim_vectors_per_s": "1/s", "sim_call_ms_p50": "ms",
                    "sim_call_ms_p99": "ms", "fault_s": "s"},
    "serve-closed": {"serve_rps": "1/s", "serve_ms_p50": "ms", "serve_ms_p99": "ms"},
}

#: The wrong result planted in each workload's checked outputs.
PLANTS = {
    "mc-thesis": "aggregate",
    "mc-checkpoint": "aggregate",
    "sim-netlist": "sim",
    "serve-closed": "sim",
}


def _run(workload: str, trace: int, plant: str = ""):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    if plant:
        command += ["--plant", plant]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, json.loads(lines[-1])


def _printed(lines, name: str, unit: str) -> bool:
    """A report row: name, value, unit."""
    return any(line.split()[:1] == [name] and line.split()[2:3] == [unit]
               for line in lines if len(line.split()) >= 3)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            code, lines, result = _run(workload, trace)
            if code != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace={trace}: exit {code}, {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                failures.append(f"{workload} trace={trace}: metrics {sorted(got)} "
                                f"!= {sorted(wanted)}")
            shown = dict(WORKLOAD_METRICS[workload], op_ms_tail="ms", failed_ratio="ratio")
            if not trace:
                shown.update(end_to_end)
            for name, unit in shown.items():
                if not _printed(lines, name, unit):
                    failures.append(f"{workload} trace={trace}: {name} [{unit}] not printed")
        code, lines, result = _run(workload, 0, plant=PLANTS[workload])
        ratio = [line for line in lines if line.split()[:1] == ["failed_ratio"]]
        if code != 1 or result["correct"] or result["failed"] < 1:
            failures.append(f"{workload}: planted {PLANTS[workload]} not caught "
                            f"(exit {code}, {result['failed']} failed)")
        if not ratio or float(ratio[0].split()[1]) <= 0:
            failures.append(f"{workload}: planted failure left failed_ratio at 0")
        print(f"{workload}: ok" if not failures else f"{workload}: checked")
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke ok" if not failures else f"smoke FAILED ({len(failures)})")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
