"""Pareto-frontier analysis for the error/delay/area design space.

The thesis picks two operating points (0.01% and 0.25%) by hand; a
downstream user wants the whole trade surface.  :func:`design_space`
sweeps window sizes for a chosen design family, and
:func:`pareto_front` extracts the non-dominated points (minimize all
objectives).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.model.error_model import scsa_error_rate


@dataclass(frozen=True)
class DesignPoint:
    """One (k, error, delay, area) point of the sweep."""

    window_size: int
    error_rate: float
    delay: float
    area: float

    def objectives(self) -> Tuple[float, float, float]:
        """The minimized objective vector (error, delay, area)."""
        return (self.error_rate, self.delay, self.area)


def dominates(p: Sequence[float], q: Sequence[float]) -> bool:
    """True when p is no worse in every objective and better in one."""
    if len(p) != len(q):
        raise ValueError("objective vectors must have equal length")
    return all(a <= b for a, b in zip(p, q)) and any(a < b for a, b in zip(p, q))


def pareto_front(points: Iterable[DesignPoint]) -> List[DesignPoint]:
    """Non-dominated subset, sorted by error rate (descending)."""
    pts = list(points)
    front = [
        p
        for p in pts
        if not any(dominates(q.objectives(), p.objectives()) for q in pts)
    ]
    return sorted(front, key=lambda p: -p.error_rate)


def design_space(
    width: int,
    window_sizes: Optional[Sequence[int]] = None,
    family: str = "vlcsa1",
) -> List[DesignPoint]:
    """Sweep window sizes for one design family at ``width``.

    ``family`` is ``"vlcsa1"`` (error rate = stall rate) or ``"scsa1"``
    (error rate = wrong-result rate); both follow Eq. 3.13 on uniform
    operands.
    """
    # Deferred: the engine imports this package for DesignMetrics.
    from repro.engine.elab import measure_design

    if family not in ("vlcsa1", "scsa1"):
        raise ValueError(f"unknown family {family!r}; use 'vlcsa1' or 'scsa1'")
    ks = window_sizes if window_sizes is not None else range(4, min(width, 22))
    points = []
    for k in ks:
        m = measure_design(family, width, k)
        points.append(
            DesignPoint(
                window_size=k,
                error_rate=scsa_error_rate(width, k),
                delay=m.delay,
                area=m.area,
            )
        )
    return points


def knee_point(front: Sequence[DesignPoint]) -> DesignPoint:
    """The frontier point with the best normalized objective product.

    A simple scalarization for "pick me a good default": minimize the
    product of objectives normalized to the frontier's ranges.
    """
    if not front:
        raise ValueError("empty frontier")
    if len(front) == 1:
        return front[0]

    def span(vals: List[float]) -> Tuple[float, float]:
        lo, hi = min(vals), max(vals)
        return lo, (hi - lo) or 1.0

    errs = [p.error_rate for p in front]
    delays = [p.delay for p in front]
    areas = [p.area for p in front]
    (e0, es), (d0, ds), (a0, as_) = span(errs), span(delays), span(areas)

    def score(p: DesignPoint) -> float:
        return (
            ((p.error_rate - e0) / es + 0.01)
            * ((p.delay - d0) / ds + 0.01)
            * ((p.area - a0) / as_ + 0.01)
        )

    return min(front, key=score)
