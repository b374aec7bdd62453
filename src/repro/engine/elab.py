"""Design elaboration through the engine cache.

``measure_design`` is the engine's single entry point for "give me the STA
row of design X at (n, k)": it consults an :class:`ElaborationCache`
first and only on a miss performs the elaborate → optimize → STA pipeline
(via :mod:`repro.analysis.compare`, whose in-process memoisation remains a
third, innermost layer).  The cached payload is the :class:`DesignMetrics`
row itself — deterministic for a given parameter tuple, so a disk hit is
bit-for-bit the same as a fresh elaboration.
"""

from __future__ import annotations

import functools as _functools

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.analysis.compare import (
    DesignMetrics,
    measure_designware,
    measure_kogge_stone,
    measure_scsa1,
    measure_scsa2,
    measure_vlcsa1,
    measure_vlcsa2,
    measure_vlsa,
    measure_vlsa_speculative,
)
from repro.engine.cache import ElaborationCache, cache_key

if TYPE_CHECKING:  # deferred: netlist types are only needed for hints
    from repro.netlist.circuit import Circuit

#: Designs that take a window/chain parameter, and their measure functions.
_WINDOWED: Dict[str, Callable[..., DesignMetrics]] = {
    "scsa1": measure_scsa1,
    "scsa2": measure_scsa2,
    "vlcsa1": measure_vlcsa1,
    "vlcsa2": measure_vlcsa2,
    "vlsa": measure_vlsa,
    "vlsa_spec": measure_vlsa_speculative,
}

#: Fixed-latency references (no window parameter).
_FIXED: Dict[str, Callable[..., DesignMetrics]] = {
    "kogge_stone": measure_kogge_stone,
    "designware": measure_designware,
}

#: Designs :func:`build_design` elaborates at a window size.
WINDOWED_DESIGNS = ("scsa1", "scsa2", "vlcsa1", "vlcsa2", "vlsa")

#: Designs :func:`measure_design` measures at a window size (the
#: buildable ones plus the speculative-only ``vlsa_spec`` row).
MEASURED_WINDOWED_DESIGNS = tuple(sorted(_WINDOWED))

#: Every design :func:`measure_design` measures.
SWEEPABLE_DESIGNS = MEASURED_WINDOWED_DESIGNS + tuple(sorted(_FIXED))


def build_design(
    architecture: str,
    width: int,
    window: Optional[int] = None,
    options: Optional[Dict[str, Any]] = None,
) -> "Circuit":
    """Elaborate any named design at ``(width, window)`` to a ``Circuit``.

    The single place that maps architecture names to netlist generators
    (the CLI's ``gen``/``tb``/``seq`` and the engine's lint fan-out both
    resolve through it).  Windowed designs default their window to the
    Eq. 3.13 sizing for a 1e-4 error rate, matching ``repro gen``.
    """
    from repro.adders import ADDER_GENERATORS, build_designware_adder
    from repro.analysis.sizing import default_window
    from repro.core import (
        build_scsa_adder,
        build_scsa2_adder,
        build_vlcsa1,
        build_vlcsa2,
        build_vlsa,
    )

    opts = dict(options or {})
    windowed = {
        "scsa1": build_scsa_adder,
        "scsa2": build_scsa2_adder,
        "vlcsa1": build_vlcsa1,
        "vlcsa2": build_vlcsa2,
        "vlsa": build_vlsa,
    }
    if architecture in windowed:
        return windowed[architecture](width, default_window(width, window), **opts)
    if architecture == "designware":
        return build_designware_adder(width, **opts)
    if architecture in ADDER_GENERATORS:
        return ADDER_GENERATORS[architecture](width, **opts)
    raise ValueError(
        f"unknown design {architecture!r}; choose from {list(grid_designs())}"
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
    """Every elaborable architecture name: the full design grid.

    The union :func:`build_design` resolves — all plain adder
    generators, the windowed speculative family, and the DesignWare
    model — in sorted order.  This is the grid ``repro opt --all``
    proves equivalence-gated optimization over.
    """
    from repro.adders import ADDER_GENERATORS

    return tuple(
        sorted(set(ADDER_GENERATORS) | set(WINDOWED_DESIGNS) | {"designware"})
    )


def measure_design(
    architecture: str,
    width: int,
    window: Optional[int] = None,
    options: Optional[Dict[str, Any]] = None,
    cache: Optional[ElaborationCache] = None,
) -> DesignMetrics:
    """STA/area metrics for a named design, through the elaboration cache.

    ``options`` are forwarded to the underlying measure function (e.g.
    ``{"style": "select"}`` for the VLCSA 2 ablation) and participate in
    the cache key.  With ``cache=None`` the engine still works — it simply
    re-elaborates (plus whatever :mod:`repro.analysis.compare` memoised).
    """
    opts = dict(options or {})

    if architecture in _WINDOWED:
        if window is None:
            raise ValueError(f"design {architecture!r} needs a window parameter")

        def builder() -> DesignMetrics:
            return _WINDOWED[architecture](width, window, **opts)

    elif architecture in _FIXED:
        if window is not None:
            raise ValueError(f"design {architecture!r} takes no window parameter")

        def builder() -> DesignMetrics:
            return _FIXED[architecture](width, **opts)

    else:
        raise ValueError(
            f"unknown design {architecture!r}; choose from {SWEEPABLE_DESIGNS}"
        )

    from repro.obs import spans as _obs

    with _obs.span(
        "elaborate", architecture=architecture, width=width, window=window
    ):
        if cache is None:
            return builder()
        key = cache_key(architecture, width, window, opts)
        return cache.get_or_build(key, builder)


@_functools.lru_cache(maxsize=32)
def _sim_circuit(
    architecture: str, width: int, window: Optional[int]
) -> "Circuit":
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
