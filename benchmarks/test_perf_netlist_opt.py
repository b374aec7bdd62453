"""Performance: equivalence-gated netlist optimization wins.

The area pipeline (``AREA_PASSES``: constant folding, structural
hashing/CSE, inverter merging, compound-cell mapping, dead-gate
stripping) is the optimizer configuration ``repro opt`` benchmarks and
CI gates.  This benchmark regenerates the headline rows of
``BENCH_netlist_opt.json`` on the carry-select family — the paper's
architecture, where duplicated speculative/carry logic gives CSE the
most to share — proves every pass with the CEC engine, and enforces
the PR's floors: >=10% gate-count reduction on CSLA at every measured
width, with the optimized netlist bit-identical to the raw one on both
simulation backends.

Simulation *speed* after optimization is checked only loosely (>=0.85x
at n=64) on the per-gate big-int forward pass
(:func:`repro.netlist.faults.values_with_fault` with no fault), whose
cost follows the gate count: fewer gates usually simulate faster, but
structural sharing can lengthen the levelized schedule's dependency
chains, and measured speedups hover around 1.0-1.5x.  The vectorized
backend's plan evaluation follows the gate count too: with the C library
(:mod:`repro.netlist._accel`) it walks the plan gate by gate, so the
fused ``(level, kind)`` groups that compound-cell mapping adds (35 -> 61
at n=64) no longer cost dispatch.  The printed ``vectorized`` column is
raw/optimized eval time alone (:meth:`CompiledSim.eval_limbs`, the p10
thread CPU time of :data:`EVAL_CALLS` calls on one packed batch), not
whole ``simulate_batch`` calls, whose pack and unpack of the same buses
are alike on both netlists; it is printed, not gated.
"""

import time

from repro.analysis.report import format_table
from repro.engine.elab import build_design
from repro.netlist.compile import compile_circuit
from repro.netlist.equiv import random_input_batch
from repro.netlist.faults import values_with_fault
from repro.netlist.optimize import AREA_PASSES, depth_levels, optimize
from repro.netlist.simulate import simulate_batch

from benchmarks.conftest import full_scale, run_once

WIDTHS = (8, 16, 32, 64)

#: CI floor: CSLA gate-count reduction (raw/optimized) at every width.
GATE_REDUCTION_FLOOR = 1.10

#: Loose floor on per-gate forward-pass throughput after optimization.
SIM_SPEEDUP_FLOOR = 0.85

#: Timed ``eval_limbs`` calls per netlist for the printed eval ratio.
EVAL_CALLS = 100


def _input_masks(circuit, batch):
    """Big-int input masks: bit ``v`` of a net's mask is its value under
    vector ``v``."""
    masks = {}
    for name, nets in circuit.input_buses.items():
        for bit, net in enumerate(nets):
            masks[net] = sum(
                ((value >> bit) & 1) << v for v, value in enumerate(batch[name])
            )
    return masks


def _best_of(fn, repeat=3):
    best, result = None, None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _eval_cpu_s(circuit, batch):
    """p10 thread CPU seconds of one ``eval_limbs`` pass over ``batch``."""
    sim = compile_circuit(circuit)
    V, ones, _ = sim.pack_inputs_limbs(batch)
    times = []
    for _ in range(EVAL_CALLS):
        start = time.thread_time()
        sim.eval_limbs(V, ones)
        times.append(time.thread_time() - start)
    times.sort()
    return times[len(times) // 10]


def test_perf_netlist_opt_csla(benchmark):
    n_vectors = 4096 if full_scale() else 1024

    def compute():
        rows = []
        for width in WIDTHS:
            raw = build_design("carry_select", width)
            opt, stats = optimize(
                raw, passes=AREA_PASSES, buffer_limit=None, prove=True
            )
            assert stats.proved and stats.rollbacks == 0
            batch = random_input_batch(raw, n_vectors, seed=width)
            ones = (1 << n_vectors) - 1
            raw_masks = _input_masks(raw, batch)
            opt_masks = _input_masks(opt, batch)
            t_raw, _ = _best_of(
                lambda: values_with_fault(raw, raw_masks, ones, None), repeat=7
            )
            t_opt, _ = _best_of(
                lambda: values_with_fault(opt, opt_masks, ones, None), repeat=7
            )
            out_raw = simulate_batch(raw, batch)
            out_opt = simulate_batch(opt, batch)
            v_raw, v_opt = _eval_cpu_s(raw, batch), _eval_cpu_s(opt, batch)
            out_ref = simulate_batch(opt, batch, backend="reference")
            assert out_opt == out_ref, "backends diverged on optimized netlist"
            for bus in raw.output_buses:
                assert out_opt[bus] == out_raw[bus], (width, bus)
            rows.append(
                {
                    "width": width,
                    "gates_raw": raw.num_gates,
                    "gates_opt": opt.num_gates,
                    "gate_reduction": raw.num_gates / opt.num_gates,
                    "depth_raw": depth_levels(raw),
                    "depth_opt": depth_levels(opt),
                    "sim_speedup": t_raw / t_opt,
                    "vectorized_speedup": v_raw / v_opt,
                }
            )
        return rows

    rows = run_once(benchmark, compute)
    print()
    print(
        format_table(
            ["n", "gates", "optimized", "reduction", "depth", "sim speedup",
             "vectorized"],
            [
                (
                    str(r["width"]),
                    str(r["gates_raw"]),
                    str(r["gates_opt"]),
                    f"{r['gate_reduction']:.3f}x",
                    f"{r['depth_raw']} -> {r['depth_opt']}",
                    f"{r['sim_speedup']:.2f}x",
                    f"{r['vectorized_speedup']:.2f}x",
                )
                for r in rows
            ],
            title=f"carry_select, AREA pipeline, CEC-proved, "
            f"{n_vectors} vectors (sim: best of 7; vectorized: eval p10 "
            f"of {EVAL_CALLS})",
        )
    )
    for r in rows:
        assert r["gate_reduction"] >= GATE_REDUCTION_FLOOR, (
            f"CSLA n={r['width']} gate reduction {r['gate_reduction']:.3f}x "
            f"below the {GATE_REDUCTION_FLOOR:.2f}x floor"
        )
        assert r["depth_opt"] <= r["depth_raw"], (
            f"CSLA n={r['width']} optimization increased logic depth"
        )
    widest = rows[-1]
    assert widest["sim_speedup"] >= SIM_SPEEDUP_FLOOR, (
        f"optimized CSLA n=64 simulates {widest['sim_speedup']:.2f}x "
        f"vs raw, below the loose {SIM_SPEEDUP_FLOOR:.2f}x floor"
    )
