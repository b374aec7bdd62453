"""The per-process observability container and its merge discipline.

A :class:`Collector` holds everything one process accumulated — integer
counters, per-phase wall timers, histograms, and (when tracing is
enabled) finished :class:`SpanRecord`\\ s.  Every field merges
associatively (counters and timers sum, histograms fold bucket-wise,
spans concatenate and are sorted at export time), so the multiprocessing
runner can ship each worker's span collector back at the end of a group
and fold them in rank order for a deterministic report.

Collectors are plain picklable data: a pool child of
:mod:`repro.engine.runner` sends its span collector straight down its
pipe in its end-of-group message.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Tuple


@dataclass
class SpanRecord:
    """One finished span: where time went, and under which call path.

    ``ts_us``/``dur_us`` are microseconds relative to the process trace
    epoch; ``path`` is the full ancestor chain of names (self last), the
    aggregation key the flamegraph renderer uses; ``pid``/``tid`` place
    the span on its process/thread track in the Chrome trace.
    """

    name: str
    ts_us: float
    dur_us: float
    pid: int
    tid: int
    span_id: int
    parent_id: int  # 0 = root
    path: Tuple[str, ...]
    args: Dict[str, object] = field(default_factory=dict)


class Collector:
    """Counters, timers, histograms, and spans for one process."""

    def __init__(self) -> None:
        from repro.obs.hist import Histogram  # local: keep import cheap

        self._hist_cls = Histogram
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}
        self.histograms: Dict[str, "Histogram"] = {}
        self.gauges: Dict[str, float] = {}
        self.spans: List[SpanRecord] = []

    # -- recording --------------------------------------------------------

    def add(self, name: str, value: int = 1) -> None:
        """Increment counter ``name`` by ``value``."""
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate wall time under ``timers[name]``."""
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate the block's wall time under ``timers[name]``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def record(self, name: str, value: float, count: int = 1) -> None:
        """Record ``count`` samples of ``value`` into histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = self._hist_cls()
        hist.record(value, count)

    def gauge(self, name: str, value: float) -> None:
        """Set instantaneous gauge ``name`` and keep its high-water mark.

        The current value lives under ``name``; ``name + ".max"`` tracks
        the saturation peak (the value merges keep — merging two
        collectors' point-in-time readings has no meaningful "current",
        so merge folds the high-water marks and the latest write wins for
        the instantaneous one).
        """
        v = float(value)
        self.gauges[name] = v
        peak = self.gauges.get(name + ".max")
        if peak is None or v > peak:
            self.gauges[name + ".max"] = v

    # -- merging ----------------------------------------------------------

    def merge_counters(self, counters: Mapping[str, int]) -> None:
        """Add a whole counter mapping (e.g. a cache snapshot) in."""
        for name, value in counters.items():
            self.add(name, value)

    def merge_timers(self, timers: Mapping[str, float]) -> None:
        """Sum a whole timer mapping in."""
        for name, value in timers.items():
            self.add_time(name, value)

    def merge(self, other: "Collector") -> "Collector":
        """Fold another collector in (counters/timers sum, histograms
        fold bucket-wise, spans concatenate)."""
        self.merge_counters(other.counters)
        self.merge_timers(other.timers)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = self._hist_cls().merge(hist)
            else:
                mine.merge(hist)
        for name, value in other.gauges.items():
            if name.endswith(".max"):
                mine_peak = self.gauges.get(name)
                self.gauges[name] = value if mine_peak is None else max(mine_peak, value)
            else:
                self.gauges[name] = value
        self.spans.extend(other.spans)
        return self

    def clear(self) -> None:
        """Drop everything recorded so far."""
        self.counters.clear()
        self.timers.clear()
        self.histograms.clear()
        self.gauges.clear()
        self.spans.clear()

    # -- reporting --------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready snapshot (spans excluded — export handles those)."""
        payload: dict = {
            "counters": dict(sorted(self.counters.items())),
            "timers_s": {k: round(v, 6) for k, v in sorted(self.timers.items())},
        }
        if self.histograms:
            payload["histograms"] = {
                name: hist.to_dict()
                for name, hist in sorted(self.histograms.items())
            }
        if self.gauges:
            payload["gauges"] = {k: v for k, v in sorted(self.gauges.items())}
        return payload

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_hist_cls"]  # re-resolved on unpickle
        return state

    def __setstate__(self, state: dict) -> None:
        from repro.obs.hist import Histogram

        self.__dict__.update(state)
        self.__dict__.setdefault("gauges", {})
        self._hist_cls = Histogram
