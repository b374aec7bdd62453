"""The (delay, area) row behind every Ch. 7 delay/area figure.

:func:`repro.engine.elab.measure_design` produces these rows: it
elaborates a design, runs the peephole optimizer and STA, and splits the
delay of variable-latency designs into the three paths the thesis plots
separately — speculative, detection, recovery.  The row type lives here
because the engine's disk cache pickles it under this module's name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class DesignMetrics:
    """(delay, area) of one design, with variable-latency path splits.

    ``delay`` is the overall critical path.  For variable-latency designs
    ``t_spec``/``t_detect``/``t_recover`` split it by output group and
    ``delay`` equals the *single-cycle* path max(t_spec, t_detect) — the
    figure the thesis compares against fixed adders "when speculation is
    correct".
    """

    name: str
    width: int
    delay: float
    area: float
    gates: int
    t_spec: Optional[float] = None
    t_detect: Optional[float] = None
    t_recover: Optional[float] = None
