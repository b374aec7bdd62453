"""Perf-regression telemetry: compare two benchmark reports.

``repro bench compare OLD.json NEW.json --tolerance 0.1`` loads two
``repro sim --json`` reports (the checked-in ``BENCH_netlist_sim.json``
trajectory format), matches rows by ``(architecture, width)``, and fails
when a higher-is-better metric fell below ``old * (1 - tolerance)``.

The default metrics are the ones the checked-in ``BENCH_*.json`` reports
carry: the speedup ratios (``vectorized_speedup``, vectorized vs
reference on the same host; ``fault_speedup``; serve's warm-shard
``speedup``), the raw ``vectorized_samples_per_s``, and the report-wide
``throughput_samples_per_s``.  Raw throughput is machine-dependent, so
CI gates only the ratios (``--metrics``), which transfer across
machines; throughput comparison stays available for same-machine trend
tracking.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Higher-is-better metrics compared by default: per-row ones, plus
#: :data:`OVERALL_METRIC` from the report's ``metrics`` block.
DEFAULT_METRICS = (
    "speedup",
    "fault_speedup",
    "vectorized_samples_per_s",
    "vectorized_speedup",
    "throughput_samples_per_s",
)

#: The one report-wide metric, compared as row ``(overall)``.
OVERALL_METRIC = "throughput_samples_per_s"

DEFAULT_TOLERANCE = 0.1


@dataclass(frozen=True)
class Delta:
    """One compared metric of one matched row."""

    row: str
    metric: str
    old: float
    new: float

    @property
    def ratio(self) -> Optional[float]:
        """new/old (None when the old value is zero)."""
        return self.new / self.old if self.old else None

    def regressed(self, tolerance: float) -> bool:
        """True when the new value fell below ``old * (1 - tolerance)``."""
        return self.new < self.old * (1.0 - tolerance)


@dataclass
class Comparison:
    """Outcome of comparing two reports."""

    deltas: List[Delta] = field(default_factory=list)
    regressions: List[Delta] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions


def load_report(path: str) -> dict:
    """Read one report; raises ``ValueError`` on malformed input."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read report {path!r}: {exc}") from exc
    if not isinstance(payload, dict) or "rows" not in payload:
        raise ValueError(f"report {path!r} has no 'rows' — not a bench report")
    return payload


def _row_key(row: dict) -> Tuple:
    # "vectors" joined the key when the sim benchmark grew a batch-size
    # axis; rows without it (older reports, other benchmarks) key on
    # (architecture, width) exactly as before.
    return (row.get("architecture"), row.get("width"), row.get("vectors"))


def _row_label(row: dict) -> str:
    label = f"{row.get('architecture')} n={row.get('width')}"
    if row.get("vectors") is not None:
        label += f" v={row.get('vectors')}"
    return label


def compare_reports(
    old: dict,
    new: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    metrics: Sequence[str] = DEFAULT_METRICS,
) -> Comparison:
    """Compare two bench reports; see the module docstring for semantics."""
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    result = Comparison()
    # A differing C library (``accel``) names a missing compiler on one
    # side instead of leaving a slower vectorized row to be guessed at.
    for name in ("schema_version", "accel"):
        if old.get(name) != new.get(name):
            result.warnings.append(
                f"{name} differs: old={old.get(name)!r} new={new.get(name)!r}"
            )
    old_rows: Dict[Tuple, dict] = {_row_key(r): r for r in old.get("rows", [])}
    new_rows: Dict[Tuple, dict] = {_row_key(r): r for r in new.get("rows", [])}
    for key in sorted(set(old_rows) - set(new_rows), key=repr):
        result.warnings.append(f"row {_row_label(old_rows[key])} missing from NEW")
    for key in sorted(set(old_rows) & set(new_rows), key=repr):
        old_row, new_row = old_rows[key], new_rows[key]
        if old_row.get("vectors") != new_row.get("vectors"):
            result.warnings.append(
                f"row {_row_label(old_row)}: vector counts differ "
                f"({old_row.get('vectors')} vs {new_row.get('vectors')})"
            )
        for metric in metrics:
            old_value, new_value = old_row.get(metric), new_row.get(metric)
            if not isinstance(old_value, (int, float)) or not isinstance(
                new_value, (int, float)
            ):
                continue
            delta = Delta(_row_label(old_row), metric, float(old_value), float(new_value))
            result.deltas.append(delta)
            if delta.regressed(tolerance):
                result.regressions.append(delta)
    old_tp = (old.get("metrics") or {}).get(OVERALL_METRIC)
    new_tp = (new.get("metrics") or {}).get(OVERALL_METRIC)
    if (
        OVERALL_METRIC in metrics
        and isinstance(old_tp, (int, float))
        and isinstance(new_tp, (int, float))
    ):
        delta = Delta("(overall)", OVERALL_METRIC, float(old_tp), float(new_tp))
        result.deltas.append(delta)
        if delta.regressed(tolerance):
            result.regressions.append(delta)
    return result


def format_comparison(result: Comparison, tolerance: float) -> List[str]:
    """Human-readable comparison table plus verdict lines."""
    from repro.analysis.report import format_table

    rows = [
        (
            d.row,
            d.metric,
            f"{d.old:,.2f}",
            f"{d.new:,.2f}",
            f"{d.ratio:.3f}" if d.ratio is not None else "-",
            "REGRESSED" if d.regressed(tolerance) else "ok",
        )
        for d in result.deltas
    ]
    lines = [
        format_table(
            ["row", "metric", "old", "new", "new/old", "status"],
            rows,
            title=f"bench compare (tolerance {tolerance:.0%})",
        )
    ]
    lines.extend(f"warning: {w}" for w in result.warnings)
    if result.regressions:
        lines.append(
            f"{len(result.regressions)} regression(s) beyond "
            f"{tolerance:.0%} tolerance"
        )
    else:
        lines.append(f"no regressions across {len(result.deltas)} compared metric(s)")
    return lines
