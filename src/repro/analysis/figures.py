"""Machine-readable data series for every evaluation figure.

``python -m repro figures -o out/`` regenerates the data behind each
thesis figure as JSON (one file per figure: x values, named y series,
axis labels, and the paper's qualitative expectation), so plots can be
drawn with any tool without re-running the analyses.  The benchmark suite
prints the same numbers as tables; this module is the plotting-friendly
form.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.sizing import (
    THESIS_TABLE_7_3,
    THESIS_TABLE_7_4,
    THESIS_TABLE_7_5,
    THESIS_WIDTHS,
)
from repro.model.error_model import scsa_error_rate

WIDTHS = list(THESIS_WIDTHS)


def fig_3_5(samples: int = 0) -> Dict:
    """Predicted SCSA error rate vs window size per width."""
    ks = list(range(4, 19))
    return {
        "figure": "3.5",
        "x_label": "window size k",
        "x": ks,
        "y_label": "error rate",
        "series": {
            f"n={n}": [scsa_error_rate(n, k) for k in ks] for n in WIDTHS
        },
        "paper": "rates fall rapidly with k; n=256,k=16 ~ 0.01%",
    }


def fig_6_histograms(samples: int = 100_000) -> Dict:
    """Carry-chain histograms for the four Ch. 6 input classes (n=32)."""
    from repro.inputs.generators import gaussian_operands, uniform_operands
    from repro.model.carry_chains import chain_length_histogram

    rng = np.random.default_rng(6)
    width = 32
    sigma = float(2 ** 16)
    classes = {
        "unsigned_uniform": lambda: (
            uniform_operands(width, samples, rng),
            uniform_operands(width, samples, rng),
        ),
        "unsigned_gaussian": lambda: (
            gaussian_operands(width, samples, sigma, signed=False, rng=rng),
            gaussian_operands(width, samples, sigma, signed=False, rng=rng),
        ),
        "twos_complement_gaussian": lambda: (
            gaussian_operands(width, samples, sigma, rng=rng),
            gaussian_operands(width, samples, sigma, rng=rng),
        ),
    }
    series = {}
    for name, make in classes.items():
        a, b = make()
        series[name] = chain_length_histogram(a, b, width)[1:].tolist()
    return {
        "figure": "6.1/6.4/6.5",
        "x_label": "carry chain length",
        "x": list(range(1, width + 1)),
        "y_label": "fraction of chains",
        "series": series,
        "paper": "uniform-like classes decay geometrically; 2's-complement "
        "Gaussian is bimodal with near-full-width chains",
    }


def fig_7_1(samples: int = 200_000) -> Dict:
    """Analytic vs Monte Carlo SCSA error rates."""
    from repro.model.behavioral import monte_carlo_scsa_error_rate

    rng = np.random.default_rng(71)
    ks = list(range(6, 15, 2))
    analytic = {
        f"analytic n={n}": [scsa_error_rate(n, k) for k in ks] for n in (64, 256)
    }
    simulated = {
        f"simulated n={n}": [
            monte_carlo_scsa_error_rate(n, k, samples, rng) for k in ks
        ]
        for n in (64, 256)
    }
    return {
        "figure": "7.1",
        "x_label": "window size k",
        "x": ks,
        "y_label": "error rate",
        "series": {**analytic, **simulated},
        "paper": "analytical and experimental results fit quite well",
    }


#: A delay/area series: the design's name and, for windowed designs, its
#: window at width ``n``.
_Series = Tuple[str, Optional[Callable[[int], int]]]


def _delay_area_figure(figure: str, rows: Dict[str, _Series], paper: str) -> Dict:
    # Deferred: the engine imports this package for DesignMetrics.
    from repro.engine.elab import measure_design

    delays = {name: [] for name in rows}
    areas = {name: [] for name in rows}
    for n in WIDTHS:
        for name, (design, window) in rows.items():
            m = measure_design(design, n, window(n) if window else None)
            delays[name].append(m.delay)
            areas[name].append(m.area)
    return {
        "figure": figure,
        "x_label": "adder width n",
        "x": WIDTHS,
        "y_label": "delay (ns-like) / area (um2-like)",
        "series": {
            **{f"delay {k}": v for k, v in delays.items()},
            **{f"area {k}": v for k, v in areas.items()},
        },
        "paper": paper,
    }


def fig_7_2_7_3(samples: int = 0) -> Dict:
    """Speculative adders vs Kogge-Stone (delay and area)."""
    return _delay_area_figure(
        "7.2/7.3",
        {
            "kogge_stone": ("kogge_stone", None),
            "scsa1": ("scsa1", lambda n: THESIS_TABLE_7_3[n][0]),
            "vlsa_spec": ("vlsa_spec", lambda n: THESIS_TABLE_7_3[n][1]),
        },
        "SCSA1 delay -18..-38% and area -15..-38% vs KS",
    )


def fig_7_4_7_5(samples: int = 0) -> Dict:
    """Variable-latency adders vs Kogge-Stone."""
    return _delay_area_figure(
        "7.4/7.5",
        {
            "kogge_stone": ("kogge_stone", None),
            "vlcsa1": ("vlcsa1", lambda n: THESIS_TABLE_7_3[n][0]),
            "vlsa": ("vlsa", lambda n: THESIS_TABLE_7_3[n][1]),
        },
        "VLCSA1 6-19% faster than VLSA; VLSA area +14..32% over KS",
    )


def fig_7_6_to_7_11(samples: int = 0) -> Dict:
    """The three DesignWare comparisons in one series set."""
    return _delay_area_figure(
        "7.6-7.11",
        {
            "designware": ("designware", None),
            "scsa1@0.01": ("scsa1", lambda n: THESIS_TABLE_7_4[n][0]),
            "scsa1@0.25": ("scsa1", lambda n: THESIS_TABLE_7_4[n][1]),
            "vlcsa1@0.01": ("vlcsa1", lambda n: THESIS_TABLE_7_4[n][0]),
            "vlcsa2@0.01": ("vlcsa2", lambda n: THESIS_TABLE_7_5[n][0]),
        },
        "speculative/variable-latency designs ~10% faster than DesignWare "
        "(paper's synthesis constraint); area trades per Table 7.4/7.5",
    )


FIGURES: Dict[str, Callable[[int], Dict]] = {
    "fig3_5": fig_3_5,
    "fig6_x": fig_6_histograms,
    "fig7_1": fig_7_1,
    "fig7_2_7_3": fig_7_2_7_3,
    "fig7_4_7_5": fig_7_4_7_5,
    "fig7_6_to_7_11": fig_7_6_to_7_11,
}


def export_figures(
    out_dir: str,
    names: Optional[List[str]] = None,
    samples: int = 100_000,
) -> List[str]:
    """Write the selected figure JSONs into ``out_dir``; returns paths.

    Creates ``out_dir`` itself if missing, but no parent of it: a path
    under a missing or non-directory parent raises :class:`OSError`.
    """
    if not os.path.isdir(out_dir):
        os.mkdir(out_dir)
    targets = names if names is not None else sorted(FIGURES)
    written = []
    for name in targets:
        if name not in FIGURES:
            raise ValueError(f"unknown figure {name!r}; choose from {sorted(FIGURES)}")
        data = FIGURES[name](samples)
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w") as handle:
            json.dump(data, handle, indent=1)
        written.append(path)
    return written
