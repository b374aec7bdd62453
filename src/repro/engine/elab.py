"""Design elaboration and measurement through the engine cache.

:func:`build_design` is the one map from a design name to its netlist
generator.  :func:`measure_design` is the one way to measure a design: it
consults an :class:`ElaborationCache` first and only on a miss runs the
elaborate → optimize → STA pipeline on :func:`build_design`'s circuit,
splitting the delay into the speculative, detection and recovery paths
:func:`path_split` reads off the circuit's output buses.  The cached
payload is the :class:`DesignMetrics` row itself — deterministic for a
given parameter tuple, so a disk hit is bit-for-bit the same as a fresh
elaboration.
"""

from __future__ import annotations

import functools as _functools

from typing import Any, Dict, Optional, Tuple

from repro.adders import ADDER_GENERATORS
from repro.analysis.compare import DesignMetrics
from repro.analysis.sizing import default_window
from repro.cells.library import default_library
from repro.engine.cache import ElaborationCache, cache_key, process_cache
from repro.netlist.area import area as circuit_area
from repro.netlist.circuit import Circuit
from repro.netlist.optimize import optimize
from repro.netlist.timing import analyze_timing

#: Designs :func:`build_design` elaborates at a window size.  ``vlsa_spec``
#: is the speculative adder inside ``vlsa`` (its window is the chain
#: length), a sub-block only Fig. 7.3 measures.
WINDOWED_DESIGNS = ("scsa1", "scsa2", "vlcsa1", "vlcsa2", "vlsa", "vlsa_spec")

#: Every design :func:`build_design` elaborates and :func:`measure_design`
#: measures.
SWEEPABLE_DESIGNS = tuple(
    sorted(set(ADDER_GENERATORS) | set(WINDOWED_DESIGNS) | {"designware"})
)


def build_design(
    architecture: str,
    width: int,
    window: Optional[int] = None,
    options: Optional[Dict[str, Any]] = None,
) -> Circuit:
    """Elaborate any named design at ``(width, window)`` to a ``Circuit``.

    The single place that maps architecture names to netlist generators
    (the CLI's ``gen``/``tb``/``seq``, the engine's lint fan-out and
    :func:`measure_design` all resolve through it).  Windowed designs
    default their window to the Eq. 3.13 sizing for a 1e-4 error rate,
    matching ``repro gen``.
    """
    from repro.adders import build_designware_adder
    from repro.core import (
        build_scsa_adder,
        build_scsa2_adder,
        build_vlcsa1,
        build_vlcsa2,
        build_vlsa,
        build_vlsa_speculative,
    )

    opts = dict(options or {})
    windowed = {
        "scsa1": build_scsa_adder,
        "scsa2": build_scsa2_adder,
        "vlcsa1": build_vlcsa1,
        "vlcsa2": build_vlcsa2,
        "vlsa": build_vlsa,
        "vlsa_spec": build_vlsa_speculative,
    }
    if architecture in windowed:
        return windowed[architecture](width, default_window(width, window), **opts)
    if architecture == "designware":
        return build_designware_adder(width, **opts)
    if architecture in ADDER_GENERATORS:
        return ADDER_GENERATORS[architecture](width, **opts)
    raise ValueError(
        f"unknown design {architecture!r}; choose from {list(SWEEPABLE_DESIGNS)}"
    )


#: Architectures ``repro lint --all`` fans over: the paper's contribution
#: family plus the exact-latency baselines it is measured against.  The
#: related-work ``vlsa`` design is deliberately *not* in the default gate
#: set: its error detector genuinely arrives after its speculative sum
#: (the thesis' own argument for VLCSA over VLSA), so it always carries a
#: ``T001`` error.  It remains lintable by name, and a regression test
#: pins the expected diagnostic.
LINTABLE_DESIGNS = (
    "designware",
    "kogge_stone",
    "scsa1",
    "scsa2",
    "vlcsa1",
    "vlcsa2",
)


def grid_designs() -> tuple:
    """Every architecture of the full design grid, in sorted order.

    All plain adder generators, the windowed speculative family, and the
    DesignWare model — everything :func:`build_design` resolves except
    the ``vlsa_spec`` sub-block.  This is the grid ``repro opt --all``
    proves equivalence-gated optimization over.
    """
    return tuple(name for name in SWEEPABLE_DESIGNS if name != "vlsa_spec")


def path_split(
    circuit: Circuit,
) -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]:
    """The ``(spec, detect, recover)`` output buses of a design's delay split.

    Read off the circuit's output buses: both SCSA 2 hypotheses
    (``sum0``/``sum1``) are the speculative path when both exist — VLCSA
    2's output mux is then off the single-cycle path (registered select,
    thesis section 6.7) — else ``sum`` is when an ``err`` flag exists;
    the detection path is whichever ``err0``/``err1``/``err`` flags exist
    and the recovery path is ``sum_rec``.  Fixed adders have no split.
    """
    outputs = circuit.output_buses
    if "sum0" in outputs and "sum1" in outputs:
        spec: Tuple[str, ...] = ("sum0", "sum1")
    elif "err" in outputs:
        spec = ("sum",)
    else:
        spec = ()
    detect = tuple(name for name in ("err0", "err1", "err") if name in outputs)
    recover = ("sum_rec",) if "sum_rec" in outputs else ()
    return spec, detect, recover


def _measure(circuit: Circuit, width: int, run_optimizer: bool) -> DesignMetrics:
    """Optimize (optionally), run STA and split the delay by output group.

    ``delay`` is max(t_spec, t_detect) — the single-cycle path of thesis
    Eq. 5.2 — when both exist, else the overall critical path.
    """
    library = default_library()
    spec, detect, recover = path_split(circuit)
    if run_optimizer:
        circuit, _ = optimize(circuit)
    report = analyze_timing(circuit, library)
    t_spec = report.buses_delay(spec) if spec else None
    t_detect = report.buses_delay(detect) if detect else None
    t_recover = report.buses_delay(recover) if recover else None
    if t_spec is not None and t_detect is not None:
        delay = max(t_spec, t_detect)
    else:
        delay = report.critical_delay
    return DesignMetrics(
        name=circuit.name,
        width=width,
        delay=delay,
        area=circuit_area(circuit, library),
        gates=circuit.num_gates,
        t_spec=t_spec,
        t_detect=t_detect,
        t_recover=t_recover,
    )


def measure_design(
    architecture: str,
    width: int,
    window: Optional[int] = None,
    options: Optional[Dict[str, Any]] = None,
    cache: Optional[ElaborationCache] = None,
) -> DesignMetrics:
    """STA/area metrics for a named design, through the elaboration cache.

    Measures :func:`build_design`'s circuit; every design but the
    already-optimized ``designware`` model goes through the peephole
    optimizer first, mirroring "circuits are synthesized ... in the
    Synopsys Design Compiler".  ``options`` are forwarded to the builder
    (e.g. ``{"style": "select"}`` for the VLCSA 2 ablation) and
    participate in the cache key.  Windowed designs default their window
    as :func:`build_design` does.  ``cache=None`` is the process's
    memory cache (``process_cache(None)``), so a repeat call returns the
    same row object.
    """
    opts = dict(options or {})
    if architecture in WINDOWED_DESIGNS:
        window = default_window(width, window)
    elif window is not None:
        raise ValueError(f"design {architecture!r} takes no window parameter")

    def builder() -> DesignMetrics:
        circuit = build_design(architecture, width, window, opts)
        return _measure(circuit, width, run_optimizer=architecture != "designware")

    from repro.obs import spans as _obs

    with _obs.span(
        "elaborate", architecture=architecture, width=width, window=window
    ):
        if cache is None:
            cache = process_cache(None)
        key = cache_key(architecture, width, window, opts)
        return cache.get_or_build(key, builder)


@_functools.lru_cache(maxsize=32)
def _sim_circuit(
    architecture: str, width: int, window: Optional[int]
) -> Circuit:
    """Memoised :func:`build_design` for the simulation entry point.

    Simulation requests (serve's ``sim`` kind, the CLI grid) hit the
    same few ``(architecture, width, window)`` tuples repeatedly;
    elaboration dominates small batches, so a bounded memo keeps warm
    shards elaboration-free.  Circuits are append-only and never mutated
    after elaboration, so sharing instances is safe.
    """
    return build_design(architecture, width, window)


def simulate_design(
    architecture: str,
    width: int,
    window: Optional[int] = None,
    vectors: int = 1024,
    seed: int = 2012,
    backend: str = "auto",
) -> Dict[str, Any]:
    """Deterministic gate-level simulation batch of a named design.

    Draws ``vectors`` uniform operand pairs from ``random.Random(seed)``,
    simulates them through the requested backend
    (:func:`repro.netlist.simulate.simulate_batch` semantics), and
    returns a JSON-ready summary: a SHA-256 digest of all output buses
    (the cross-backend identity witness — any two backends must produce
    the same digest), plus the error-flag count for variable-latency
    designs.  The same tuple always produces the same digest, which is
    what makes the result cacheable and coalescable in ``repro.serve``.
    """
    import hashlib
    import json
    import random

    from repro.netlist.simulate import simulate_batch
    from repro.obs import spans as _obs

    if vectors < 0:
        raise ValueError(f"vectors must be non-negative, got {vectors}")
    circuit = _sim_circuit(architecture, width, window)
    rng = random.Random(seed)
    inputs = {
        name: [rng.getrandbits(len(nets)) for _ in range(vectors)]
        for name, nets in circuit.input_buses.items()
    }
    with _obs.span(
        "engine.simulate",
        architecture=architecture,
        width=width,
        vectors=vectors,
        backend=backend,
    ):
        outputs = simulate_batch(circuit, inputs, backend=backend)
    payload = json.dumps(
        {name: outputs[name] for name in sorted(outputs)},
        separators=(",", ":"),
    ).encode()
    result: Dict[str, Any] = {
        "architecture": architecture,
        "width": width,
        "window": window,
        "vectors": vectors,
        "seed": seed,
        "backend": backend,
        "digest": hashlib.sha256(payload).hexdigest(),
    }
    if "err" in outputs:
        result["err_count"] = sum(outputs["err"])
    return result
