"""Which program functions the traced pass wraps, and the per-layer metrics.

Layer names are ``<module>.<quantity>`` after the ``src/repro`` module
that owns the function.  Functions a module imported by name are wrapped
where they are looked up (``repro.engine.jobs.window_profile``, not
``repro.model.behavioral.window_profile``), so the wrapper is the one the
caller actually reaches.
"""

from __future__ import annotations

import importlib
from typing import Dict, Tuple

from tracing import Tracer

#: Per-layer metrics in the order ``BENCHMARK.json`` lists them, with their
#: units.  Every traced run reports all of them; a layer the workload does
#: not cross reads 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("inputs.operands_s", "s"),
    ("behavioral.window_profile_s", "s"),
    ("behavioral.window_profile_calls", "count"),
    ("behavioral.flags_s", "s"),
    ("kernels.scsa1_swar_s", "s"),
    ("jobs.run_chunk_s", "s"),
    ("jobs.chunks", "count"),
    ("jobs.merge_s", "s"),
    ("runner.wait_s", "s"),
    ("runner.utilization", "ratio"),
    ("steal.chunks_computed", "count"),
    ("steal.useful_ratio", "ratio"),
    ("checkpoint.append_s", "s"),
    ("checkpoint.poll_s", "s"),
    ("checkpoint.restore_records", "count"),
    ("checkpoint.publish_share", "ratio"),
    ("elab.build_s", "s"),
    ("elab.cache_hit_ratio", "ratio"),
    ("compile.compile_s", "s"),
    ("compile.pack_s", "s"),
    ("compile.eval_s", "s"),
    ("compile.unpack_s", "s"),
    ("compile.calls_vectorized", "count"),
    ("compile.calls_compiled", "count"),
    ("accel.loaded", "count"),
    ("faults.s", "s"),
    ("faults.total", "count"),
    ("faults.detected", "count"),
    ("serve.parse_s", "s"),
    ("serve.execute_s", "s"),
    ("serve.overhead_ms", "ms"),
    ("serve.coalescing_factor", "ratio"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.shed", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.untraced_s", "s"),
)

#: Self-time metrics: metric name -> the span names summed into it.
_SELF_TIME: Dict[str, Tuple[str, ...]] = {
    "inputs.operands_s": ("inputs.operands",),
    "behavioral.window_profile_s": ("behavioral.window_profile",),
    "behavioral.flags_s": ("behavioral.flags",),
    "kernels.scsa1_swar_s": ("kernels.scsa1_swar",),
    "jobs.run_chunk_s": ("jobs.run_chunk",),
    "jobs.merge_s": ("jobs.merge",),
    "checkpoint.append_s": ("checkpoint.append",),
    "checkpoint.poll_s": ("checkpoint.poll",),
    "elab.build_s": ("elab.build",),
    "compile.compile_s": ("compile.compile",),
    "compile.pack_s": ("compile.pack",),
    "compile.eval_s": ("compile.eval",),
    "compile.unpack_s": ("compile.unpack",),
    "faults.s": ("faults.fault_coverage",),
    "serve.parse_s": ("serve.parse",),
    "serve.execute_s": ("serve.execute",),
}

#: Call counts: metric name -> span name.
_CALLS: Dict[str, str] = {
    "behavioral.window_profile_calls": "behavioral.window_profile",
    "jobs.chunks": "jobs.run_chunk",
}


def install(tracer: Tracer) -> None:
    """Wrap every layer function the workloads cross."""
    # import_module, not `import a.b as c`: packages re-export functions
    # under some submodule names (repro.netlist.simulate is also a function).
    (checkpoint, elab, jobs, generators, compile_mod, faults, simulate,
     protocol, server) = (importlib.import_module(f"repro.{name}") for name in (
        "engine.checkpoint", "engine.elab", "engine.jobs", "inputs.generators",
        "netlist.compile", "netlist.faults", "netlist.simulate",
        "serve.protocol", "serve.server"))

    wrap = tracer.wrap
    wrap(generators, "uniform_operands", "inputs.operands")
    wrap(generators, "gaussian_operands", "inputs.operands")
    wrap(jobs, "window_profile", "behavioral.window_profile")
    for name in ("err0_flags", "err1_flags", "scsa1_error_flags", "scsa2_s1_error_flags"):
        wrap(jobs, name, "behavioral.flags")
    wrap(jobs, "scsa1_error_count", "kernels.scsa1_swar")
    wrap(jobs.MonteCarloErrorJob, "run_chunk", "jobs.run_chunk")
    wrap(jobs.ErrorCounts, "merge", "jobs.merge")
    wrap(checkpoint.CheckpointStore, "append", "checkpoint.append")
    wrap(checkpoint.ManifestTail, "poll", "checkpoint.poll")
    wrap(elab, "build_design", "elab.build")
    wrap(elab, "measure_design", "elab.measure")
    wrap(compile_mod, "compile_circuit", "compile.compile")
    wrap(compile_mod.CompiledSim, "pack_inputs_limbs", "compile.pack")
    wrap(compile_mod.CompiledSim, "pack_inputs", "compile.pack")
    wrap(compile_mod.CompiledSim, "eval_limbs", "compile.eval")
    wrap(compile_mod.CompiledSim, "eval_masks", "compile.eval")
    wrap(compile_mod, "unpack_values_limbs", "compile.unpack")
    wrap(compile_mod, "unpack_values", "compile.unpack")

    def count_route(backend: str) -> None:
        tracer.counts[f"compile.calls_{backend}"] += 1

    wrap(simulate, "resolve_backend", "compile.route", on_result=count_route)
    wrap(faults, "fault_coverage", "faults.fault_coverage")
    wrap(protocol, "parse_request", "serve.parse")
    wrap(server, "execute_entries", "serve.execute")


def per_layer(tracer: Tracer, counters: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric: span self times, span counts, then the
    workload's own counters (which win where both exist)."""
    table = tracer.self_times()
    out: Dict[str, Tuple[float, str]] = {}
    for name, unit in PER_LAYER:
        value = 0.0
        if name in _SELF_TIME:
            value = sum(table.get(span, (0.0, 0.0, 0))[0] for span in _SELF_TIME[name])
        elif name in _CALLS:
            value = table.get(_CALLS[name], (0.0, 0.0, 0))[2]
        elif name in ("compile.calls_vectorized", "compile.calls_compiled"):
            value = tracer.counts.get(name, 0)
        value = counters.get(name, value)
        out[name] = (float(value), unit)
    return out
