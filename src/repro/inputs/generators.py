"""Synthetic operand distributions (thesis Ch. 3 and 6.3).

Four input classes drive the evaluation:

* **unsigned uniform** ("random inputs") — every bit i.i.d. fair, the
  assumption behind the analytical error model;
* **2's-complement uniform** — uniform over the signed range; bit-wise this
  is the same distribution (Fig. 6.3 ≈ Fig. 6.1), kept as a distinct
  constructor for the experiment's sake;
* **unsigned Gaussian** — ``|round(N(mu, sigma))|`` clipped into range; small
  magnitudes dominate but carry chains stay short (Fig. 6.4);
* **2's-complement Gaussian** — ``round(N(mu, sigma)) mod 2^n``; the
  sign-extension runs of small negative numbers create the near-full-width
  carry chains of Fig. 6.5 and the ~25% VLCSA 1 error rate of Table 7.1.
  The thesis uses mu = 0, sigma = 2^32 (:data:`GAUSSIAN_SIGMA_THESIS`).

All generators return packed ``(samples, limbs)`` uint64 arrays ready for
:mod:`repro.model.behavioral`.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.model.behavioral import mask_top, num_limbs

#: Thesis Ch. 7.3: "the mean is mu = 0, and the standard deviation is 2^32".
GAUSSIAN_SIGMA_THESIS = float(2 ** 32)

_LIMB_BITS = 64
_U64 = np.uint64

#: Headroom rule for Gaussian operands: ``GAUSSIAN_HEADROOM * sigma``
#: must fit the signed range ``2^(width-1)``.  A draw lands 8 sigma out
#: with probability ~1.2e-15, so a 2^40-sample job trips the range check
#: of :func:`twos_complement_encode` (or wraps an unsigned magnitude)
#: with odds below 1 in 300.
GAUSSIAN_HEADROOM = 8


def check_gaussian_sigma(width: int, sigma: float) -> None:
    """Raise ``ValueError`` unless ``sigma`` meets the headroom rule.

    Jobs and commands call this before drawing, so a Gaussian run that
    cannot fit its operands is refused up front instead of failing
    mid-run (:data:`GAUSSIAN_HEADROOM`).
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if GAUSSIAN_HEADROOM * sigma > 2.0 ** (width - 1):
        fits = 1 + math.ceil(math.log2(GAUSSIAN_HEADROOM * sigma))
        raise ValueError(
            f"Gaussian sigma {sigma:g} does not fit {width}-bit operands: "
            f"need {GAUSSIAN_HEADROOM} * sigma <= 2^{width - 1} (width >= {fits})"
        )


def uniform_operands(
    width: int, samples: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Unsigned uniform operands as a packed ``(samples, limbs)`` array."""
    generator = rng if rng is not None else np.random.default_rng()
    limbs = num_limbs(width)
    arr = generator.integers(
        0, 1 << 64, size=(samples, limbs), dtype=np.uint64, endpoint=False
    )
    return mask_top(arr, width)


def uniform_ints(
    width: int, samples: int, rng: Optional[np.random.Generator] = None
) -> list:
    """Unsigned uniform operands as Python ints (for gate-level tests)."""
    from repro.model.behavioral import unpack_ints

    return unpack_ints(uniform_operands(width, samples, rng), width)


def gaussian_ints(
    samples: int,
    sigma: float = GAUSSIAN_SIGMA_THESIS,
    mu: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Rounded Gaussian samples as int64 (safe for sigma up to ~2^50)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    generator = rng if rng is not None else np.random.default_rng()
    values = np.rint(generator.normal(mu, sigma, size=samples))
    limit = float(2 ** 62)
    return np.clip(values, -limit, limit).astype(np.int64)


def twos_complement_encode(values: np.ndarray, width: int) -> np.ndarray:
    """Encode signed int64 values into packed ``width``-bit 2's complement.

    Values must satisfy ``-2^(width-1) <= v < 2^(width-1)`` (checked); the
    encoding is ``v mod 2^width``, with sign extension filling the upper
    limbs of wide operands.
    """
    if width < 2:
        raise ValueError("2's-complement encoding needs width >= 2")
    samples = values.shape[0]
    limbs = num_limbs(width)
    if width < 64:
        lo = -(1 << (width - 1))
        hi = 1 << (width - 1)
        if np.any((values < lo) | (values >= hi)):
            raise signed_range_error(width)
    arr = np.zeros((samples, limbs), dtype=_U64)
    arr[:, 0] = values.view(np.uint64)  # int64 -> wrap-around uint64
    if limbs > 1:
        sign_fill = np.where(values < 0, ~_U64(0), _U64(0))
        for j in range(1, limbs):
            arr[:, j] = sign_fill
    return mask_top(arr, width)


def signed_range_error(width: int) -> ValueError:
    """The error of a value outside the ``width``-bit signed range."""
    return ValueError(f"some values do not fit in {width}-bit signed range")


def gaussian_operands(
    width: int,
    samples: int,
    sigma: float = GAUSSIAN_SIGMA_THESIS,
    mu: float = 0.0,
    signed: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Gaussian operands, 2's-complement (default) or unsigned magnitude.

    ``signed=True`` reproduces the thesis Ch. 7.3 input class;
    ``signed=False`` takes absolute values (the Fig. 6.4 "unsigned
    Gaussian" class).
    """
    values = gaussian_ints(samples, sigma, mu, rng)
    if signed:
        return twos_complement_encode(values, width)
    values = np.abs(values)
    if width < 63:
        values = values & ((1 << width) - 1)
    arr = np.zeros((samples, num_limbs(width)), dtype=_U64)
    arr[:, 0] = values.view(np.uint64)
    return mask_top(arr, width)
