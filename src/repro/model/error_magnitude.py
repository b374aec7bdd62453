"""Error-magnitude analysis of speculative addition (thesis section 3.3).

The thesis argues SCSA's errors are *benign*: a truncated inter-window
carry makes the speculative result exactly ``2^b`` too small, where ``b``
is the bit position where the dropped carry entered — so the relative
error is ``2^b / (a+b)``, small whenever real data extends above the
window boundary.  Per-bit speculation (VLSA-style) can instead flip the
most significant bit, giving relative errors up to ~50%.

This module computes speculative *values* (not just error flags) for
single-limb widths, so the error-magnitude distribution can be measured
and the section 3.3 comparison quantified
(``benchmarks/test_error_magnitude.py``), and the exact moments of
SCSA 1's absolute error at any width
(:func:`scsa1_abs_error_moments`), which the Monte Carlo engine's
``"magnitude"`` counter is gated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from repro.core.window import plan_windows

_U64 = np.uint64


def _single_limb(arr: np.ndarray) -> np.ndarray:
    return arr[:, 0] if arr.ndim == 2 else np.asarray(arr, dtype=_U64)


def scsa1_speculative_values(
    a: np.ndarray, b: np.ndarray, width: int, window_size: int,
    remainder: str = "lsb",
) -> np.ndarray:
    """SCSA 1 speculative sums (including the carry-out bit), width <= 63.

    Vectorized evaluation of the thesis Eq. 4.3 recurrence: each window
    adds its operand fields with the previous window's group generate as
    carry-in.
    """
    if width > 63:
        raise ValueError(
            f"value-level analysis supports widths up to 63, got {width}"
        )
    av = _single_limb(a)
    bv = _single_limb(b)
    plan = plan_windows(width, window_size, remainder)
    out = np.zeros_like(av)
    spec_carry = np.zeros_like(av)
    for lo, hi in plan.bounds:
        size = hi - lo
        mask = _U64((1 << size) - 1)
        aw = (av >> _U64(lo)) & mask
        bw = (bv >> _U64(lo)) & mask
        total = aw + bw + spec_carry
        out |= (total & mask) << _U64(lo)
        spec_carry = (aw + bw) >> _U64(size)  # group generate (truncated)
    return out | (spec_carry << _U64(width))


def scsa1_abs_error_moments(width: int, window_size: int) -> Tuple[Fraction, Fraction]:
    """Exact mean and variance of SCSA 1's absolute error, uniform inputs.

    By the lemma of :func:`repro.model.behavioral.err0_terms`, the error
    is Σᵢ Tᵢ·2^hiᵢ with Tᵢ = G₍ᵢ₋₁₎ ∧ Pᵢ.  Uniform operands make the
    windows independent; an s-bit window propagates with probability
    2^−s and generates with ½(1 − 2^−s), so
    pᵢ = P(Tᵢ) = ½(1 − 2^−s₍ᵢ₋₁₎)·2^−sᵢ and E|err| = Σᵢ pᵢ·2^hiᵢ.  Terms
    two or more windows apart read disjoint windows, so they are
    independent; adjacent ones exclude each other (covariance −pᵢpᵢ₊₁),
    so Var = Σᵢ pᵢ(1 − pᵢ)·4^hiᵢ − 2Σᵢ pᵢpᵢ₊₁·2^(hiᵢ + hiᵢ₊₁).  Exact
    ``Fraction``s: the weights leave the float range near n = 1023.
    """
    bounds = plan_windows(width, window_size).bounds
    sizes = [hi - lo for lo, hi in bounds]
    p = [
        Fraction((1 << below) - 1, 1 << (below + 1 + size))
        for below, size in zip(sizes, sizes[1:])
    ]
    w = [1 << hi for _, hi in bounds[1:]]
    mean = sum((pi * wi for pi, wi in zip(p, w)), Fraction(0))
    spread = sum((pi * (1 - pi) * wi * wi for pi, wi in zip(p, w)), Fraction(0))
    overlap = sum((p[i] * p[i + 1] * w[i] * w[i + 1] for i in range(len(p) - 1)), Fraction(0))
    return mean, spread - 2 * overlap


def vlsa_speculative_values(
    a: np.ndarray, b: np.ndarray, width: int, chain_length: int
) -> np.ndarray:
    """VLSA speculative sums (per-bit l-bit lookahead), width <= 63.

    Bit ``i`` of the result is ``p_i xor G[i-1 : i-l]`` — the carry into
    each bit recomputed from only the previous ``l`` bits (exact-``l``
    semantics; the netlist in :mod:`repro.core.vlsa` rounds ``l`` up to a
    power of two for sharing).
    """
    if width > 63:
        raise ValueError(
            f"value-level analysis supports widths up to 63, got {width}"
        )
    l = chain_length
    if l < 1:
        raise ValueError("chain length must be positive")
    av = _single_limb(a)
    bv = _single_limb(b)
    p = av ^ bv
    out = np.zeros_like(av)
    for i in range(width + 1):
        lo = max(0, i - l)
        span = i - lo
        if span == 0:
            carry = np.zeros_like(av)
        else:
            mask = _U64((1 << span) - 1)
            aw = (av >> _U64(lo)) & mask
            bw = (bv >> _U64(lo)) & mask
            carry = (aw + bw) >> _U64(span)
        if i < width:
            bit = ((p >> _U64(i)) & _U64(1)) ^ carry
            out |= bit << _U64(i)
        else:
            out |= carry << _U64(width)
    return out


@dataclass
class MagnitudeStats:
    """Summary of the relative-error distribution over erroneous results."""

    samples: int
    errors: int
    mean_relative: float
    median_relative: float
    max_relative: float

    @property
    def error_rate(self) -> float:
        return self.errors / self.samples if self.samples else 0.0


def relative_error_stats(
    speculative: np.ndarray, a: np.ndarray, b: np.ndarray, width: int
) -> MagnitudeStats:
    """Relative-error statistics ``|spec - true| / true`` over the errors.

    ``true`` includes the carry-out bit, matching the speculative buses.
    Exact additions contribute to ``samples`` but not to the magnitude
    statistics (the thesis' magnitude discussion conditions on an error).
    """
    av = _single_limb(a).astype(np.float64)
    bv = _single_limb(b).astype(np.float64)
    true = av + bv
    spec = _single_limb(speculative).astype(np.float64)
    diff = np.abs(spec - true)
    wrong = diff > 0
    n_err = int(wrong.sum())
    if n_err == 0:
        return MagnitudeStats(len(true), 0, 0.0, 0.0, 0.0)
    rel = diff[wrong] / np.maximum(true[wrong], 1.0)
    return MagnitudeStats(
        samples=len(true),
        errors=n_err,
        mean_relative=float(rel.mean()),
        median_relative=float(np.median(rel)),
        max_relative=float(rel.max()),
    )


def scsa1_magnitude_stats(
    a: np.ndarray, b: np.ndarray, width: int, window_size: int
) -> MagnitudeStats:
    """Relative-error statistics of SCSA 1 on an operand batch."""
    spec = scsa1_speculative_values(a, b, width, window_size)
    return relative_error_stats(spec, a, b, width)


def vlsa_magnitude_stats(
    a: np.ndarray, b: np.ndarray, width: int, chain_length: int
) -> MagnitudeStats:
    """Relative-error statistics of VLSA speculation on an operand batch."""
    spec = vlsa_speculative_values(a, b, width, chain_length)
    return relative_error_stats(spec, a, b, width)
