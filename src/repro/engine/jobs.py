"""Declarative, deterministically-seeded job specs and their aggregates.

A *job* is a frozen, picklable description of a whole experiment: what to
simulate or elaborate, how many samples, and a root seed.  The runner (or
anyone) expands it with three methods:

* ``chunk_specs()`` — the full list of :class:`ChunkSpec` work units;
* ``new_aggregate()`` — a zero aggregate;
* ``run_chunk(spec)`` — execute one chunk and return its partial aggregate.

Seeding discipline: chunk ``i`` draws from
``numpy.random.SeedSequence(job.seed, spawn_key=(i,))`` — exactly the
``i``-th child that ``SeedSequence(job.seed).spawn(...)`` would produce —
so a chunk's random stream depends only on ``(job.seed, i)``, never on
which worker runs it or in which order.

Aggregates hold **integers only** (counts, count histograms, exact sums,
maxima), so merging is associative *and* commutative with no float
round-off: the parallel runner may fold chunks in completion order and
still match the serial runner bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

import numpy as np
import numpy.random  # noqa: F401 - numpy loads it lazily; forked workers inherit it

from repro.engine.cache import cache_key, process_cache
from repro.engine.kernels import (
    ERROR_COUNTERS,
    SWAR_MAX_WINDOW,
    OperandDraw,
    counter_counts,
    drawn_counter_counts,
    scsa1_error_count,  # noqa: F401 - benchmarks' traced passes wrap it here
)
from repro.inputs import generators
from repro.inputs.generators import GAUSSIAN_SIGMA_THESIS, check_gaussian_sigma
from repro.model.behavioral import (
    WindowProfile,
    err0_flags,
    err0_terms,
    err1_flags,
    scsa1_error_flags,
    scsa2_s1_error_flags,
    vlsa_error_flags,
    window_profile,
)
from repro.model.carry_chains import chain_length_counts

#: Default Monte Carlo chunk: large enough to amortize numpy dispatch,
#: small enough that a 512-bit chunk stays comfortably in cache/RAM.
DEFAULT_CHUNK = 1 << 16

_ERROR_COUNTERS = ERROR_COUNTERS
#: What ``MonteCarloErrorJob.counters`` accepts.
_JOB_COUNTERS = ERROR_COUNTERS + ("magnitude",)
_DISTRIBUTIONS = ("uniform", "gaussian", "gaussian-unsigned")


def chunk_seed_sequence(seed: int, index: int) -> np.random.SeedSequence:
    """The ``index``-th spawned child of ``SeedSequence(seed)``.

    Constructed directly via ``spawn_key`` so chunk seeds cost O(1) each
    instead of spawning a prefix; equivalence with ``.spawn()`` is pinned
    by a test.
    """
    if index < 0:
        raise ValueError(f"chunk index must be non-negative, got {index}")
    return np.random.SeedSequence(seed, spawn_key=(index,))


def _operands(draw: OperandDraw) -> Tuple[np.ndarray, np.ndarray]:
    """The operand recipe: ``draw``'s packed ``(rows, limbs)`` pairs.

    ``a``, then ``b``, from the public generators.  The C counting path
    of :func:`repro.engine.kernels.drawn_counter_counts` reproduces these
    arrays bit for bit without building them; this is its fallback and
    the oracle it is tested against.
    """
    width, rows, rng = draw.width, draw.rows, draw.rng
    if draw.distribution == "uniform":
        return (
            generators.uniform_operands(width, rows, rng),
            generators.uniform_operands(width, rows, rng),
        )
    signed = draw.distribution == "gaussian"
    return (
        generators.gaussian_operands(width, rows, sigma=draw.sigma, signed=signed, rng=rng),
        generators.gaussian_operands(width, rows, sigma=draw.sigma, signed=signed, rng=rng),
    )


@dataclass(frozen=True)
class ChunkSpec:
    """One schedulable unit of a job: chunk ``index`` covering ``size``
    samples (``payload`` carries per-chunk data, e.g. a sweep point)."""

    index: int
    size: int
    payload: Any = None


def _chunk_draw(job: Any, spec: ChunkSpec) -> OperandDraw:
    """Chunk ``spec`` of a Monte Carlo ``job``: its operands, drawn from
    the chunk's own stream."""
    return OperandDraw(
        width=job.width,
        rows=spec.size,
        distribution=job.distribution,
        sigma=GAUSSIAN_SIGMA_THESIS if job.sigma is None else job.sigma,
        rng=np.random.default_rng(chunk_seed_sequence(job.seed, spec.index)),
    )


# ---------------------------------------------------------------------------
# Monte Carlo error rates
# ---------------------------------------------------------------------------


#: ``ErrorCounts``' always-present counts, in payload order.
_TALLIES = (
    "samples", "scsa1_errors", "vlcsa1_nominal", "vlcsa2_errors", "vlcsa2_stalls", "vlsa_errors"
)


@dataclass
class ErrorCounts:
    """Streaming aggregate of a Monte Carlo error-rate job (exact ints).

    The optional fields are set only by the jobs that ask for them, so
    every other job's payload keeps its keys.
    """

    samples: int = 0
    scsa1_errors: int = 0  # LSB-remainder profile: SCSA 1 / VLCSA 1 error
    vlcsa1_nominal: int = 0  # ERR0 over the LSB profile (= scsa1_errors when both counted)
    vlcsa2_errors: int = 0  # MSB profile: both hypotheses wrong
    vlcsa2_stalls: int = 0  # MSB profile: ERR0 & ERR1 (ERR0 = MSB-plan mis-speculation)
    vlsa_errors: int = 0  # l-bit per-output speculation wrong
    chain_counts: Optional[np.ndarray] = None  # int64, shape (width + 1,)
    sum_abs_error: Optional[int] = None  # SCSA 1 |exact - speculative|, summed
    max_abs_error: Optional[int] = None  # ... and its largest value

    def merge(self, other: "ErrorCounts") -> "ErrorCounts":
        """Fold another partial aggregate in (exact, order-independent)."""
        for name in _TALLIES:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        if other.chain_counts is not None:
            if self.chain_counts is None:
                self.chain_counts = other.chain_counts.copy()
            else:
                self.chain_counts = self.chain_counts + other.chain_counts
        if other.sum_abs_error is not None:
            self.sum_abs_error = (self.sum_abs_error or 0) + other.sum_abs_error
            self.max_abs_error = max(self.max_abs_error or 0, other.max_abs_error)
        return self

    def rate(self, counter: str) -> float:
        """Counter value divided by samples (0.0 on an empty aggregate)."""
        if self.samples == 0:
            return 0.0
        return getattr(self, counter) / self.samples

    def to_payload(self) -> dict:
        """JSON-ready snapshot (exact ints; the checkpoint chunk format)."""
        payload = {name: getattr(self, name) for name in _TALLIES}
        if self.chain_counts is not None:
            payload["chain_counts"] = [int(v) for v in self.chain_counts]
        if self.sum_abs_error is not None:
            payload["sum_abs_error"] = self.sum_abs_error
            payload["max_abs_error"] = self.max_abs_error
        return payload

    @staticmethod
    def from_payload(payload: dict) -> "ErrorCounts":
        """Inverse of :meth:`to_payload` (bit-exact round trip)."""
        counts = ErrorCounts(**{name: int(payload[name]) for name in _TALLIES})
        if payload.get("chain_counts") is not None:
            counts.chain_counts = np.asarray(payload["chain_counts"], dtype=np.int64)
        if payload.get("sum_abs_error") is not None:
            counts.sum_abs_error = int(payload["sum_abs_error"])
            counts.max_abs_error = int(payload["max_abs_error"])
        return counts


#: ``ErrorCounts`` field each counter adds to.
_COUNTER_FIELDS = {
    "scsa1": "scsa1_errors",
    "vlcsa1_nominal": "vlcsa1_nominal",
    "vlcsa2": "vlcsa2_errors",
    "vlcsa2_stall": "vlcsa2_stalls",
}


def reference_counter_flags(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    window: int,
    counters: Tuple[str, ...] = _ERROR_COUNTERS,
    profiles: Optional[Dict[str, WindowProfile]] = None,
) -> Dict[str, np.ndarray]:
    """Per-sample counter flags read off :func:`window_profile`.

    The executable definition of each counter: the SWAR kernel is tested
    and fuzzed against it.  Like ``window_profile``, it handles windows of
    at most 63 bits.  ``profiles`` may hand in already-built
    ``{"lsb": ..., "msb": ...}`` profiles of the same batch.
    """
    profiles = dict(profiles or {})

    def profile(remainder: str) -> WindowProfile:
        if remainder not in profiles:
            profiles[remainder] = window_profile(a, b, width, window, remainder)
        return profiles[remainder]

    flags: Dict[str, np.ndarray] = {}
    for name in counters:
        if name == "scsa1":
            flags[name] = scsa1_error_flags(profile("lsb"))
        elif name == "vlcsa1_nominal":
            flags[name] = err0_flags(profile("lsb"))
        elif name == "vlcsa2":
            msb = profile("msb")
            flags[name] = scsa1_error_flags(msb) & scsa2_s1_error_flags(msb)
        elif name == "vlcsa2_stall":
            msb = profile("msb")
            flags[name] = err0_flags(msb) & err1_flags(msb)
        else:
            raise ValueError(f"unknown counter {name!r}; choose from {_ERROR_COUNTERS}")
    return flags


def _abs_error_totals(profile: WindowProfile) -> Tuple[int, int]:
    """Sum and maximum of SCSA 1's absolute error over a profile's samples.

    By the lemma of :func:`repro.model.behavioral.err0_terms` each error
    is the bitmask of its sample's set ERR0 columns, so the sum is each
    column's count times the column's weight, and the maximum is built
    from the top column down, keeping only the rows that have every
    column the maximum has so far.
    """
    columns, weights = err0_terms(profile)
    hits = np.count_nonzero(columns, axis=0)
    total = sum(int(count) * weight for count, weight in zip(hits, weights))
    largest = 0
    for i in reversed(range(len(weights))):
        rows = columns[:, i]
        if rows.any():
            columns = columns[rows]
            largest += weights[i]
    return total, largest


@dataclass(frozen=True)
class MonteCarloErrorJob:
    """Monte Carlo error/stall rates of the (n, k) speculative family.

    ``counters`` selects what is measured; every subset is one pass of
    the SWAR kernel (:func:`repro.engine.kernels.counter_counts`), so
    an unselected counter saves only its few per-block terms:

    * ``"scsa1"`` — SCSA 1 / VLCSA 1 mis-speculation (LSB remainder);
    * ``"vlcsa1_nominal"`` — ERR0 fires (LSB remainder); ERR0 is exact
      detection, so this equals ``"scsa1"`` sample by sample and the
      kernel computes the two from one term;
    * ``"vlcsa2"`` — both VLCSA 2 hypotheses wrong (MSB remainder);
    * ``"vlcsa2_stall"`` — ERR0 & ERR1 (MSB remainder), i.e. MSB-plan
      mis-speculation & ERR1;
    * ``"magnitude"`` — SCSA 1's absolute error ``|exact - speculative|``
      (thesis §3.3), summed and maximized exactly at any width
      (:func:`_abs_error_totals`); its error count is ``"scsa1"``'s.  It
      is not a kernel counter: its chunks draw operand arrays and build
      the LSB window profile.

    Construction rejects what cannot run: a window above 63 bits when
    any counter is selected (the kernel and every window_profile-based
    model stop there), and Gaussian inputs whose sigma breaks the
    headroom rule of :func:`repro.inputs.generators.check_gaussian_sigma`.

    ``chain_lengths`` adds a carry-chain-length count histogram;
    ``vlsa_chain`` adds the VLSA error count for that chain length.
    """

    width: int
    window: int
    samples: int
    distribution: str = "uniform"
    sigma: Optional[float] = None
    seed: int = 2012
    chunk_size: int = DEFAULT_CHUNK
    counters: Tuple[str, ...] = _ERROR_COUNTERS
    chain_lengths: bool = False
    vlsa_chain: Optional[int] = None

    def __post_init__(self) -> None:
        if self.width < 2:
            raise ValueError(f"width must be >= 2, got {self.width}")
        if not 1 <= self.window <= self.width:
            raise ValueError(f"window {self.window} out of range for width {self.width}")
        if self.counters and self.window > SWAR_MAX_WINDOW:
            raise ValueError(
                f"error counters handle windows of 1..{SWAR_MAX_WINDOW} bits, "
                f"got {self.window}"
            )
        if self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size}")
        if self.distribution not in _DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {self.distribution!r}; choose from {_DISTRIBUTIONS}"
            )
        if self.distribution != "uniform":
            sigma = GAUSSIAN_SIGMA_THESIS if self.sigma is None else self.sigma
            check_gaussian_sigma(self.width, sigma)
        unknown = set(self.counters) - set(_JOB_COUNTERS)
        if unknown:
            raise ValueError(f"unknown counters {sorted(unknown)}; choose from {_JOB_COUNTERS}")

    # -- job protocol -----------------------------------------------------

    def chunk_specs(self) -> Tuple[ChunkSpec, ...]:
        """The job's work units: full chunks plus one remainder chunk."""
        full, rem = divmod(self.samples, self.chunk_size)
        sizes = (self.chunk_size,) * full + ((rem,) if rem else ())
        return tuple(ChunkSpec(index=i, size=size) for i, size in enumerate(sizes))

    def new_aggregate(self) -> ErrorCounts:
        """A zero aggregate (with a histogram row if chain_lengths and
        zero magnitude totals if ``"magnitude"`` is counted)."""
        counts = ErrorCounts()
        if self.chain_lengths:
            counts.chain_counts = np.zeros(self.width + 1, dtype=np.int64)
        if "magnitude" in self.counters:
            counts.sum_abs_error = counts.max_abs_error = 0
        return counts

    def run_chunk(self, spec: ChunkSpec) -> ErrorCounts:
        """Simulate one chunk; randomness comes only from (seed, index).

        A chunk of kernel counters only hands its draw to the counting
        kernel, which draws the operands itself where it can; the chain
        statistics and the magnitude need the operand arrays.
        """
        draw = _chunk_draw(self, spec)
        counts = self.new_aggregate()
        counts.samples = spec.size
        kernel = tuple(name for name in self.counters if name != "magnitude")
        magnitude = len(kernel) < len(self.counters)
        found: Dict[str, int] = {}
        if magnitude or self.chain_lengths or self.vlsa_chain is not None:
            a, b = _operands(draw)
            if kernel:
                found = counter_counts(a, b, self.width, self.window, kernel)
            if magnitude:
                counts.sum_abs_error, counts.max_abs_error = _abs_error_totals(
                    window_profile(a, b, self.width, self.window)
                )
            if self.vlsa_chain is not None:
                counts.vlsa_errors = int(
                    vlsa_error_flags(a, b, self.width, self.vlsa_chain).sum()
                )
            if self.chain_lengths:
                counts.chain_counts = chain_length_counts(a, b, self.width)
        elif kernel:
            found = drawn_counter_counts(draw, self.window, kernel)
        for name, value in found.items():
            setattr(counts, _COUNTER_FIELDS[name], value)
        return counts

    def with_seed(self, seed: int) -> "MonteCarloErrorJob":
        """The same job under a different root seed."""
        return replace(self, seed=seed)


# ---------------------------------------------------------------------------
# STA / area sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One design instance of a sweep: ``(architecture, n, k, options)``."""

    architecture: str
    width: int
    window: Optional[int] = None
    options: Tuple[Tuple[str, Any], ...] = ()


@dataclass
class SweepRows:
    """Sweep aggregate: per-point rows plus summed worker-side counters.

    Rows are keyed by point index (disjoint across chunks), counters are
    summed — both merges are associative and commutative.
    """

    rows: Dict[int, dict] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "SweepRows") -> "SweepRows":
        """Union the disjoint row sets and sum the counters."""
        self.rows.update(other.rows)
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        return self

    def ordered(self) -> Tuple[dict, ...]:
        """Rows back in sweep-point order."""
        return tuple(self.rows[i] for i in sorted(self.rows))


@dataclass(frozen=True)
class SweepJob:
    """Elaborate/STA a list of design points, with an optional Monte Carlo
    mis-speculation column (``mc_samples`` uniform additions per point)."""

    points: Tuple[SweepPoint, ...]
    mc_samples: int = 0
    seed: int = 2012
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a sweep needs at least one point")
        if self.mc_samples < 0:
            raise ValueError(f"mc_samples must be >= 0, got {self.mc_samples}")

    def chunk_specs(self) -> Tuple[ChunkSpec, ...]:
        """One chunk per sweep point (the point rides in the payload)."""
        return tuple(
            ChunkSpec(index=i, size=self.mc_samples, payload=point)
            for i, point in enumerate(self.points)
        )

    def new_aggregate(self) -> SweepRows:
        """A zero aggregate."""
        return SweepRows()

    def run_chunk(self, spec: ChunkSpec) -> SweepRows:
        """Elaborate/measure one point through the process cache."""
        from repro.engine.elab import measure_design
        from repro.model.error_model import scsa_error_rate

        point: SweepPoint = spec.payload
        cache = process_cache(self.cache_dir)
        before = dict(cache.counters())
        metrics = measure_design(
            point.architecture,
            point.width,
            point.window,
            dict(point.options),
            cache=cache,
        )
        delta = {
            name: value - before.get(name, 0)
            for name, value in cache.counters().items()
        }
        row = {
            "architecture": point.architecture,
            "width": point.width,
            "window": point.window,
            "delay": metrics.delay,
            "area": metrics.area,
            "gates": metrics.gates,
            "t_spec": metrics.t_spec,
            "t_detect": metrics.t_detect,
            "t_recover": metrics.t_recover,
        }
        if point.window is not None and point.architecture in (
            "scsa1",
            "scsa2",
            "vlcsa1",
            "vlcsa2",
        ):
            row["model_error_rate"] = scsa_error_rate(point.width, point.window)
            if self.mc_samples:
                draw = OperandDraw(
                    width=point.width,
                    rows=self.mc_samples,
                    distribution="uniform",
                    rng=np.random.default_rng(chunk_seed_sequence(self.seed, spec.index)),
                )
                errors = drawn_counter_counts(draw, point.window, ("scsa1",))["scsa1"]
                row["mc_error_rate"] = errors / self.mc_samples
        return SweepRows(rows={spec.index: row}, counters=delta)


# ---------------------------------------------------------------------------
# Differential-fuzz fan-out
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzChunkSpec:
    """One fuzz work unit: a design point crossed with a generator strategy.

    ``point`` is a :class:`repro.fuzz.oracle.DesignPoint` (typed loosely so
    the engine layer stays importable without the fuzz package);
    ``base_pairs`` carries the corpus snapshot the ``corpus`` mutation
    strategy feeds on; ``fault`` is an optional planted ``(net, stuck_at)``
    mutant for self-test mode.
    """

    point: Any
    strategy: str
    vectors: int
    base_pairs: Tuple[Tuple[int, int], ...] = ()
    fault: Optional[Tuple[int, int]] = None


@dataclass
class FuzzRows:
    """Fuzz aggregate: per-chunk outcome rows keyed by global chunk index.

    Rows are disjoint across chunks, so the union merge is associative
    and commutative and parallel runs stay bit-identical to serial ones
    (the campaign driver replays rows in sorted index order).
    """

    rows: Dict[int, dict] = field(default_factory=dict)

    def merge(self, other: "FuzzRows") -> "FuzzRows":
        """Union the disjoint row sets."""
        self.rows.update(other.rows)
        return self

    def ordered(self) -> Tuple[dict, ...]:
        """Rows back in chunk order."""
        return tuple(self.rows[i] for i in sorted(self.rows))


@dataclass(frozen=True)
class FuzzJob:
    """One fuzz round: every (design point, strategy) chunk of the grid.

    ``index_base`` offsets the global chunk indices so each campaign round
    draws from fresh random streams — chunk ``i`` of round ``r`` is seeded
    by ``(seed, index_base + i)`` under the engine's standard discipline,
    independent of worker assignment.
    """

    specs: Tuple[FuzzChunkSpec, ...]
    seed: int = 2012
    index_base: int = 0

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("a fuzz job needs at least one chunk spec")
        if self.index_base < 0:
            raise ValueError(f"index_base must be >= 0, got {self.index_base}")

    def chunk_specs(self) -> Tuple[ChunkSpec, ...]:
        """One chunk per (point, strategy) pair (spec rides in the payload)."""
        return tuple(
            ChunkSpec(index=self.index_base + i, size=spec.vectors, payload=spec)
            for i, spec in enumerate(self.specs)
        )

    def new_aggregate(self) -> FuzzRows:
        """A zero aggregate."""
        return FuzzRows()

    def run_chunk(self, spec: ChunkSpec) -> FuzzRows:
        """Generate and cross-check one chunk (deferred fuzz import keeps
        the engine layer free of a hard fuzz dependency)."""
        from repro.fuzz.fuzzer import run_fuzz_chunk

        return FuzzRows(
            rows={spec.index: run_fuzz_chunk(spec.payload, self.seed, spec.index)}
        )


# ---------------------------------------------------------------------------
# Static-analysis (lint) fan-out
# ---------------------------------------------------------------------------

#: Bump when the cached lint-row payload layout changes.
_LINT_SCHEMA = 1


@dataclass
class LintRows:
    """Lint aggregate: per-point diagnostic rows plus cache counters.

    Shares :class:`SweepRows`' merge discipline — rows are keyed by point
    index (disjoint across chunks) and counters are summed, so folds are
    associative and commutative and the parallel runner stays
    bit-identical to the serial one.
    """

    rows: Dict[int, dict] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "LintRows") -> "LintRows":
        """Union the disjoint row sets and sum the counters."""
        self.rows.update(other.rows)
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        return self

    def ordered(self) -> Tuple[dict, ...]:
        """Rows back in point order."""
        return tuple(self.rows[i] for i in sorted(self.rows))

    def worst_severity(self) -> Optional[str]:
        """Highest severity across every row, or ``None`` when clean."""
        from repro.netlist.lint import severity_rank

        worst: Optional[str] = None
        for row in self.rows.values():
            for diag in row["diagnostics"]:
                sev = diag["severity"]
                if worst is None or severity_rank(sev) > severity_rank(worst):
                    worst = sev
        return worst


@dataclass(frozen=True)
class LintJob:
    """Run the netlist static analyzer over a grid of design points.

    One chunk per :class:`SweepPoint`; each chunk elaborates the design
    (``optimize=True`` reproduces the synthesis flow the thesis' timing
    contract is stated for), runs the configured rule set, and returns the
    diagnostics as JSON-ready rows.  Rows are cached through the
    process-level :class:`ElaborationCache` keyed by the full parameter
    tuple including the lint configuration, so a CI re-run with a warm
    cache skips both elaboration *and* the BDD proofs.
    """

    points: Tuple[SweepPoint, ...]
    optimize: bool = True
    select: Optional[Tuple[str, ...]] = None
    ignore: Optional[Tuple[str, ...]] = None
    cache_dir: Optional[str] = None
    use_cache: bool = True

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a lint job needs at least one point")
        # Validate the rule selection and the points eagerly so typos fail
        # at submit time (in the parent process) rather than as a chunk
        # failure inside a worker.
        from repro.engine.elab import grid_designs
        from repro.netlist.lint import resolve_rules

        resolve_rules(self.select, self.ignore)
        designs = grid_designs()
        for point in self.points:
            if point.architecture not in designs:
                raise ValueError(f"unknown design {point.architecture!r}; "
                                 f"choose from {list(designs)}")
            if point.width < 1:
                raise ValueError(f"width must be positive, got {point.width}")
            if point.window is not None and point.window < 1:
                raise ValueError(f"window size must be positive, got {point.window}")

    def chunk_specs(self) -> Tuple[ChunkSpec, ...]:
        """One chunk per design point (the point rides in the payload)."""
        return tuple(
            ChunkSpec(index=i, size=1, payload=point)
            for i, point in enumerate(self.points)
        )

    def new_aggregate(self) -> LintRows:
        """A zero aggregate."""
        return LintRows()

    def _rules(self):
        from repro.netlist.lint import resolve_rules

        return resolve_rules(self.select, self.ignore)

    def lint_point(self, point: SweepPoint) -> dict:
        """Elaborate and lint one design point (no caching)."""
        from repro.engine.elab import build_design
        from repro.netlist.lint import report_to_dict, run_lint

        circuit = build_design(
            point.architecture, point.width, point.window, dict(point.options)
        )
        if self.optimize:
            from repro.netlist.optimize import optimize as optimize_circuit

            circuit, _ = optimize_circuit(circuit)
        report = run_lint(circuit, self._rules())
        row = report_to_dict(report)
        row.update(
            architecture=point.architecture,
            width=point.width,
            window=point.window,
            optimized=self.optimize,
            gates=circuit.num_gates,
        )
        return row

    def run_chunk(self, spec: ChunkSpec) -> LintRows:
        """Lint one point, through the process elaboration cache."""
        point: SweepPoint = spec.payload
        if not self.use_cache:
            return LintRows(rows={spec.index: self.lint_point(point)})
        cache = process_cache(self.cache_dir)
        before = dict(cache.counters())
        key = cache_key(
            point.architecture,
            point.width,
            point.window,
            {
                **dict(point.options),
                "__lint__": (
                    _LINT_SCHEMA,
                    self.optimize,
                    self.select,
                    self.ignore,
                ),
            },
        )
        row = cache.get_or_build(key, lambda: self.lint_point(point))
        delta = {
            name: value - before.get(name, 0)
            for name, value in cache.counters().items()
        }
        return LintRows(rows={spec.index: row}, counters=delta)
