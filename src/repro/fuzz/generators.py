"""Adversarial operand-pair strategies for the differential fuzzer.

Uniform Monte Carlo is blind to exactly the corner cases speculative
adders get wrong: a chain of length ``l`` appears with probability
``~2^-l``, so a 10^6-sample run essentially never exercises chains longer
than ~20 bits, window-boundary interactions at specific offsets, or the
sign-extension runs that drive VLCSA 1's ~25% Gaussian stall rate.  Each
strategy here *constructs* those shapes directly:

* ``uniform``       — the baseline the analytical rate check calibrates
  against (kept i.i.d.-fair so Eq. 3.13 applies);
* ``boundary``      — a fixed deterministic battery (all-zeros, all-ones,
  alternating masks, single bits, ±1 around powers of two);
* ``carry-chain``   — a generate at position ``j`` followed by a targeted
  run of ``l`` propagates (the thesis Ch. 6 failure pattern);
* ``window-straddle`` — carry chains placed to start just below and end
  just above an inter-window boundary of the actual window plan;
* ``sign-extension`` — 2's-complement small-magnitude operands whose sign
  runs reach the MSB (Fig. 6.5's near-full-width chains);
* ``near-overflow`` — operand clusters around ``2^n`` where the carry-out
  bit and every window's generate flip together;
* ``corpus``        — deterministic mutations (bit flips, ±1 nudges,
  operand swap) of previously interesting pairs, the coverage-guided
  feedback path.

Every strategy is a pure function of ``(rng, width, window, count)`` —
given the same seeded generator it reproduces the same pairs bit for bit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.window import plan_windows

Pair = Tuple[int, int]


def _rand_below(rng: np.random.Generator, bound: int) -> int:
    """A uniform Python int in ``[0, bound)`` (arbitrary precision)."""
    if bound <= 1:
        return 0
    bits = int(bound - 1).bit_length()
    while True:
        value = _rand_bits(rng, bits)
        if value < bound:
            return value


def _rand_bits(rng: np.random.Generator, bits: int) -> int:
    """A uniform Python int of ``bits`` random bits."""
    if bits <= 0:
        return 0
    limbs = (bits + 63) // 64
    value = 0
    for limb in rng.integers(0, 1 << 64, size=limbs, dtype=np.uint64, endpoint=False):
        value = (value << 64) | int(limb)
    return value & ((1 << bits) - 1)


def uniform_pairs(
    rng: np.random.Generator, width: int, window: Optional[int], count: int
) -> List[Pair]:
    """I.i.d. fair bits — the distribution the analytical model assumes."""
    return [(_rand_bits(rng, width), _rand_bits(rng, width)) for _ in range(count)]


def boundary_pairs(
    rng: np.random.Generator, width: int, window: Optional[int], count: int
) -> List[Pair]:
    """A fixed battery of classic edge vectors, cycled up to ``count``."""
    ones = (1 << width) - 1
    alt_a = int("a" * ((width + 3) // 4), 16) & ones
    alt_5 = int("5" * ((width + 3) // 4), 16) & ones
    half = 1 << (width - 1)
    battery: List[Pair] = [
        (0, 0),
        (ones, ones),
        (ones, 1),
        (1, ones),
        (ones, 0),
        (alt_a, alt_5),
        (alt_5, alt_5),
        (alt_a, alt_a),
        (half, half),
        (half - 1, 1),
        (half - 1, (half + 1) & ones),  # 2 past a 1-bit bus
        (ones - 1, 1),
        (1, 1),
    ]
    for bit in range(0, width, max(1, width // 8)):
        battery.append((1 << bit, ones - (1 << bit)))
    out = [battery[i % len(battery)] for i in range(min(count, len(battery)))]
    while len(out) < count:  # pad with uniform noise, still deterministic
        out.append((_rand_bits(rng, width), _rand_bits(rng, width)))
    return out


def chain_pair(width: int, start: int, length: int, noise_a: int, noise_b: int) -> Pair:
    """Operands with a generate at ``start`` then ``length - 1`` propagates.

    Bit ``start`` generates (``a = b = 1``), bits ``start+1 ..
    start+length-1`` propagate (``a ^ b = 1``), and the bit just past the
    chain (if any) kills (``a = b = 0``) so the chain length is exact.
    Remaining bits come from the noise masks.
    """
    ones = (1 << width) - 1
    a, b = noise_a & ones, noise_b & ones
    end = min(start + length, width)
    for bit in range(start, end):
        mask = 1 << bit
        if bit == start:
            a |= mask
            b |= mask
        else:
            # Propagate: exactly one operand carries the bit.
            a |= mask
            b &= ~mask
    if end < width:  # kill bit terminates the chain exactly
        mask = 1 << end
        a &= ~mask
        b &= ~mask
    return a & ones, b & ones


def carry_chain_pairs(
    rng: np.random.Generator, width: int, window: Optional[int], count: int
) -> List[Pair]:
    """Targeted chain lengths, biased long (the tail uniform MC misses)."""
    out: List[Pair] = []
    for _ in range(count):
        # Half the samples use the longest chains that fit; half sweep.
        if int(rng.integers(0, 2)):
            length = width - int(rng.integers(0, max(1, width // 4)))
        else:
            length = 1 + int(rng.integers(0, width))
        length = max(1, min(length, width))
        start = int(rng.integers(0, max(1, width - length + 1)))
        out.append(
            chain_pair(width, start, length, _rand_bits(rng, width), _rand_bits(rng, width))
        )
    return out


def window_straddle_pairs(
    rng: np.random.Generator, width: int, window: Optional[int], count: int
) -> List[Pair]:
    """Chains placed across the actual inter-window boundaries.

    For each sample a boundary of the LSB- or MSB-remainder window plan
    is chosen and a chain is constructed to start shortly *below* it and
    end shortly *above* it — the exact geometry SCSA speculation
    truncates.  Without a window parameter, mid-width boundaries are used.
    """
    boundaries: List[int] = []
    if window is not None:
        for remainder in ("lsb", "msb"):
            plan = plan_windows(width, window, remainder)
            boundaries.extend(lo for lo, _ in plan.bounds[1:])
    if not boundaries:
        boundaries = [width // 2, width // 4, (3 * width) // 4]
    # A 1-bit adder has no inner boundary: straddle the carry-out instead.
    boundaries = sorted(set(b for b in boundaries if 0 < b < width)) or [width]
    out: List[Pair] = []
    for i in range(count):
        boundary = boundaries[i % len(boundaries)]
        below = 1 + int(rng.integers(0, max(1, min(boundary, 8))))
        above = 1 + int(rng.integers(0, max(1, min(width - boundary, 8))))
        start = boundary - below
        length = below + above
        out.append(
            chain_pair(width, start, length, _rand_bits(rng, width), _rand_bits(rng, width))
        )
    return out


def sign_extension_pairs(
    rng: np.random.Generator, width: int, window: Optional[int], count: int
) -> List[Pair]:
    """2's-complement small-magnitude operands (thesis Fig. 6.5 regime).

    Small negative values are runs of 1s from the MSB down; adding a
    small positive value to a small negative one produces the
    near-full-width carry chains that break single-hypothesis speculation.
    """
    ones = (1 << width) - 1
    out: List[Pair] = []
    small_bits = max(2, min(width - 1, 16))
    for _ in range(count):
        x = _rand_bits(rng, small_bits) & ones  # 2 bits overflow a 1-bit bus
        y = _rand_bits(rng, small_bits) & ones
        mode = int(rng.integers(0, 3))
        if mode == 0:  # negative + positive
            out.append(((-x) & ones, y))
        elif mode == 1:  # negative + negative
            out.append(((-x) & ones, (-y) & ones))
        else:  # positive + negative
            out.append((x, (-y) & ones))
    return out


def near_overflow_pairs(
    rng: np.random.Generator, width: int, window: Optional[int], count: int
) -> List[Pair]:
    """Clusters around ``2^n`` where the carry-out and all generates flip."""
    ones = (1 << width) - 1
    out: List[Pair] = []
    for _ in range(count):
        delta_a = _rand_bits(rng, 4)
        delta_b = _rand_bits(rng, 4)
        mode = int(rng.integers(0, 3))
        if mode == 0:  # a + b barely overflows (or barely not)
            a = (ones - delta_a) & ones
            b = (delta_a + delta_b - 1) & ones
        elif mode == 1:  # both near the top
            a = (ones - delta_a) & ones
            b = (ones - delta_b) & ones
        else:  # hit 2^n exactly / off by one
            a = (ones ^ delta_a) & ones
            b = (delta_a + 1) & ones
        out.append((a, b))
    return out


def mutate_pairs(
    rng: np.random.Generator,
    width: int,
    window: Optional[int],
    count: int,
    base: Sequence[Pair],
) -> List[Pair]:
    """Deterministic mutations of corpus pairs (the feedback path)."""
    if not base:
        return uniform_pairs(rng, width, window, count)
    ones = (1 << width) - 1
    out: List[Pair] = []
    for _ in range(count):
        a, b = base[int(rng.integers(0, len(base)))]
        mode = int(rng.integers(0, 5))
        if mode == 0:  # flip 1-3 bits of a
            for _ in range(1 + int(rng.integers(0, 3))):
                a ^= 1 << int(rng.integers(0, width))
        elif mode == 1:  # flip 1-3 bits of b
            for _ in range(1 + int(rng.integers(0, 3))):
                b ^= 1 << int(rng.integers(0, width))
        elif mode == 2:  # ±1 nudges
            a = (a + (1 if int(rng.integers(0, 2)) else -1)) & ones
        elif mode == 3:  # swap operands
            a, b = b, a
        else:  # shift toward the other end
            a = ((a << 1) | (a >> (width - 1))) & ones
        out.append((a & ones, b & ones))
    return out


#: Strategy registry, in deterministic campaign order.  ``corpus`` is
#: special-cased by the driver (it needs the corpus snapshot).
STRATEGIES: Dict[str, Callable[..., List[Pair]]] = {
    "uniform": uniform_pairs,
    "boundary": boundary_pairs,
    "carry-chain": carry_chain_pairs,
    "window-straddle": window_straddle_pairs,
    "sign-extension": sign_extension_pairs,
    "near-overflow": near_overflow_pairs,
}

STRATEGY_ORDER: Tuple[str, ...] = tuple(STRATEGIES) + ("corpus",)


def generate_pairs(
    strategy: str,
    rng: np.random.Generator,
    width: int,
    window: Optional[int],
    count: int,
    base: Sequence[Pair] = (),
) -> List[Pair]:
    """Dispatch to a strategy; ``base`` feeds the ``corpus`` mutator."""
    if strategy == "corpus":
        return mutate_pairs(rng, width, window, count, base)
    fn = STRATEGIES.get(strategy)
    if fn is None:
        raise ValueError(
            f"unknown fuzz strategy {strategy!r}; choose from {STRATEGY_ORDER}"
        )
    return fn(rng, width, window, count)
