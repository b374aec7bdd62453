"""Evaluation harness: sizing solvers, design measurement, table formatting.

* :mod:`repro.analysis.sizing`  — window-size / chain-length solvers for a
  target error rate (thesis Tables 7.3-7.5).
* :mod:`repro.analysis.compare` — :class:`DesignMetrics`, the (delay,
  area) row behind every Ch. 7 figure, which
  :func:`repro.engine.elab.measure_design` produces.
* :mod:`repro.analysis.report`  — plain-text tables and series the
  benchmarks print next to the paper's numbers.
"""

from repro.analysis.sizing import (
    scsa_window_size_for,
    vlsa_chain_length_for,
    vlcsa2_window_size_for,
    THESIS_WIDTHS,
    THESIS_TABLE_7_3,
    THESIS_TABLE_7_4,
    THESIS_TABLE_7_5,
)
from repro.analysis.compare import DesignMetrics
from repro.analysis.report import format_table, format_series, ratio
from repro.analysis.pareto import (
    DesignPoint,
    design_space,
    dominates,
    knee_point,
    pareto_front,
)
from repro.analysis.figures import FIGURES, export_figures
from repro.analysis.statistics import (
    RateEstimate,
    wilson_interval,
    rates_compatible,
    samples_for_rate,
)

__all__ = [
    "scsa_window_size_for",
    "vlsa_chain_length_for",
    "vlcsa2_window_size_for",
    "THESIS_WIDTHS",
    "THESIS_TABLE_7_3",
    "THESIS_TABLE_7_4",
    "THESIS_TABLE_7_5",
    "DesignMetrics",
    "format_table",
    "format_series",
    "ratio",
    "RateEstimate",
    "wilson_interval",
    "rates_compatible",
    "samples_for_rate",
    "DesignPoint",
    "design_space",
    "dominates",
    "knee_point",
    "pareto_front",
    "FIGURES",
    "export_figures",
]
