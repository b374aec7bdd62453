"""Limb-vectorized behavioural models of the speculative adders.

Monte Carlo at the thesis' scale (10^7 unsigned-uniform additions for
Fig. 7.1, 10^6 Gaussian additions for Tables 7.1/7.2) is far beyond what
gate-level simulation can do in reasonable time, so these models evaluate
the *architectures* — not the netlists — with numpy:

* operands are packed little-endian into ``(samples, limbs)`` uint64 arrays;
* the carry into any bit position ``t`` is recovered from the identity
  ``c(t) = a_t xor b_t xor s_t`` after one vectorized full-width addition;
* window group G/P come from per-window field extraction;
* VLSA's "generate followed by >= l propagates" pattern is found with
  O(log l) shift-and-AND steps.

The test suite proves these models agree bit-for-bit with gate-level
simulation of the generated netlists on random samples, which is the same
validation methodology as thesis section 7.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.window import WindowPlan, plan_windows

_LIMB_BITS = 64
_U64 = np.uint64


def num_limbs(width: int) -> int:
    """Limbs needed to hold ``width`` bits."""
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    return (width + _LIMB_BITS - 1) // _LIMB_BITS


def pack_ints(values: Sequence[int], width: int) -> np.ndarray:
    """Pack non-negative Python ints into a ``(len, limbs)`` uint64 array.

    Vectorized per limb (one shift-and-mask pass over an object array per
    64-bit limb) instead of per element — arbitrary-precision inputs, so
    the shifts must run at Python-int semantics, but one numpy pass per
    limb beats the element-wise double loop by an order of magnitude.
    """
    vals = list(values)
    limbs = num_limbs(width)
    out = np.zeros((len(vals), limbs), dtype=_U64)
    if not vals:
        return out
    bound = 1 << width
    for value in vals:
        if not 0 <= value < bound:
            raise ValueError(f"value {value} does not fit in {width} bits")
    obj = np.array(vals, dtype=object)
    mask = (1 << _LIMB_BITS) - 1
    for j in range(limbs):
        out[:, j] = ((obj >> (j * _LIMB_BITS)) & mask).astype(_U64)
    return out


def unpack_ints(arr: np.ndarray, width: int) -> List[int]:
    """Inverse of :func:`pack_ints`."""
    values = []
    for row in range(arr.shape[0]):
        v = 0
        for j in range(arr.shape[1]):
            v |= int(arr[row, j]) << (j * _LIMB_BITS)
        values.append(v & ((1 << width) - 1))
    return values


def mask_top(arr: np.ndarray, width: int) -> np.ndarray:
    """Zero all bits at positions >= width (in place; returns arr)."""
    rem = width % _LIMB_BITS
    used = num_limbs(width)
    if arr.shape[1] > used:
        arr[:, used:] = 0
    if rem:
        arr[:, used - 1] &= _U64((1 << rem) - 1)
    return arr


def add_packed(a: np.ndarray, b: np.ndarray, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Full-width addition: returns ``(sum mod 2^width, carry_out bool)``."""
    if a.shape != b.shape:
        raise ValueError("operand arrays must have equal shape")
    s = np.zeros_like(a)
    carry = np.zeros(a.shape[0], dtype=bool)
    for j in range(a.shape[1]):
        aj, bj = a[:, j], b[:, j]
        t = aj + bj  # wraps mod 2^64
        c1 = t < aj
        t2 = t + carry.astype(_U64)
        c2 = t2 < t
        s[:, j] = t2
        carry = c1 | c2
    rem = width % _LIMB_BITS
    if rem:
        top = s[:, -1]
        carry = (top >> _U64(rem)) & _U64(1) != 0
        s[:, -1] = top & _U64((1 << rem) - 1)
    return s, carry


def extract_field(arr: np.ndarray, lo: int, size: int) -> np.ndarray:
    """Bits ``lo .. lo+size-1`` of each row as a uint64 vector (size <= 63)."""
    if not 1 <= size <= 63:
        raise ValueError(f"field size must be in 1..63, got {size}")
    q, r = divmod(lo, _LIMB_BITS)
    vals = arr[:, q] >> _U64(r)
    if r and r + size > _LIMB_BITS and q + 1 < arr.shape[1]:
        vals = vals | (arr[:, q + 1] << _U64(_LIMB_BITS - r))
    return vals & _U64((1 << size) - 1)


def shift_right_packed(arr: np.ndarray, amount: int) -> np.ndarray:
    """Logical right shift of each multi-limb row by ``amount`` bits."""
    if amount < 0:
        raise ValueError("shift amount must be non-negative")
    limbs = arr.shape[1]
    q, r = divmod(amount, _LIMB_BITS)
    out = np.zeros_like(arr)
    if q < limbs:
        if r == 0:
            out[:, : limbs - q] = arr[:, q:]
        else:
            out[:, : limbs - q] = arr[:, q:] >> _U64(r)
            if q + 1 < limbs:
                out[:, : limbs - q - 1] |= arr[:, q + 1:] << _U64(_LIMB_BITS - r)
    return out


def carry_into_bits(a: np.ndarray, b: np.ndarray, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-bit carry-in mask and the final carry-out.

    Returns ``(c, cout)`` where bit ``t`` of row ``c`` is the carry *into*
    bit position ``t`` (from the identity ``c_t = a_t ^ b_t ^ s_t``) and
    ``cout`` is the carry out of bit ``width - 1``.
    """
    s, cout = add_packed(a, b, width)
    return a ^ b ^ s, cout


@dataclass
class WindowProfile:
    """Window-level signals of a batch of additions.

    All arrays are ``(samples, m)`` boolean, window 0 least significant:

    * ``group_g`` / ``group_p`` — window group generate / propagate;
    * ``carry_in``  — true carry into each window (column 0 is all False);
    * ``carry_out`` — true carry out of each window (last column is the
      adder's carry-out).
    """

    plan: WindowPlan
    group_g: np.ndarray
    group_p: np.ndarray
    carry_in: np.ndarray
    carry_out: np.ndarray


def window_profile(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    window_size: int,
    remainder: str = "lsb",
) -> WindowProfile:
    """Compute the window-level signal profile of a batch of additions.

    ``remainder`` must match the window placement of the architecture being
    modelled: ``"lsb"`` for SCSA 1/VLCSA 1, ``"msb"`` for SCSA 2/VLCSA 2
    (see :func:`repro.core.window.plan_windows`).
    """
    plan = plan_windows(width, window_size, remainder)
    m = plan.num_windows
    samples = a.shape[0]
    c_mask, cout = carry_into_bits(a, b, width)

    group_g = np.zeros((samples, m), dtype=bool)
    group_p = np.zeros((samples, m), dtype=bool)
    carry_in = np.zeros((samples, m), dtype=bool)
    for i, (lo, hi) in enumerate(plan.bounds):
        size = hi - lo
        aw = extract_field(a, lo, size)
        bw = extract_field(b, lo, size)
        group_g[:, i] = ((aw + bw) >> _U64(size)) & _U64(1) != 0
        group_p[:, i] = (aw ^ bw) == _U64((1 << size) - 1)
        if i > 0:
            q, r = divmod(lo, _LIMB_BITS)
            carry_in[:, i] = (c_mask[:, q] >> _U64(r)) & _U64(1) != 0

    carry_out = np.zeros((samples, m), dtype=bool)
    carry_out[:, : m - 1] = carry_in[:, 1:]
    carry_out[:, m - 1] = cout
    return WindowProfile(plan, group_g, group_p, carry_in, carry_out)


def scsa1_error_flags(profile: WindowProfile) -> np.ndarray:
    """True where SCSA 1 mis-speculates (thesis Ch. 3 semantics).

    SCSA 1 speculates every window's carry-out as its group generate; the
    result (including the carry-out bit) is exact iff every window's true
    carry-out equals its group generate.
    """
    return np.any(profile.carry_out != profile.group_g, axis=1)


def scsa2_s1_error_flags(profile: WindowProfile) -> np.ndarray:
    """True where SCSA 2's alternate result S*1 is wrong.

    S*1 speculates every window's carry-out as ``G | P`` (carry-out under
    carry-in 1); exactness is the same window-by-window comparison.
    """
    spec = profile.group_g | profile.group_p
    return np.any(profile.carry_out != spec, axis=1)


def err0_terms(profile: WindowProfile) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """ERR0's per-window terms ``T`` and the weight of each.

    Column ``i - 1`` of the ``(samples, m - 1)`` boolean ``T`` is
    ``G_{i-1} ∧ P_i`` (window ``i`` propagates a carry its lower neighbour
    generated); its weight is ``2^hi_i``, window ``i``'s top boundary.

    **Lemma.**  Per sample, exact sum − SCSA 1 speculative sum (carry-out
    included, same window plan) = Σᵢ ``T[:, i-1]·2^hi_i``.  Proof: with
    ``A_i``, ``B_i`` window ``i``'s operand fields, SCSA 1 adds
    ``A_i + B_i + G_{i-1}`` (``G_{-1} = 0``), keeps the low ``s_i`` bits
    and passes ``G_i``, not the add's overflow ``o_i``, upwards; the top
    window's ``G_{m-1}`` is the carry-out bit.  So the speculative sum is
    Σᵢ ``(A_i + B_i)·2^lo_i`` (the exact sum) + Σᵢ ``(G_i − o_i)·2^hi_i``,
    since ``G_i`` lands at ``2^lo_{i+1} = 2^hi_i``.  The add overflows iff
    the window generates or propagates its carry-in,
    ``o_i = G_i ∨ (P_i ∧ G_{i-1})``, and ``P_i`` excludes ``G_i``, so
    ``o_i − G_i = P_i ∧ G_{i-1}``.  Nothing depends on window sizes: the
    lemma holds on both plans.  The weights are distinct powers of two,
    so the error is the bitmask of the set columns (the terms never
    carry) and the largest error is the lexicographic maximum of the
    rows, read from the top column down.  Adjacent terms exclude each
    other: both would need ``P_i ∧ G_i``.
    """
    g, p = profile.group_g, profile.group_p
    return p[:, 1:] & g[:, :-1], tuple(1 << hi for _, hi in profile.plan.bounds[1:])


def err0_flags(profile: WindowProfile) -> np.ndarray:
    """The ERR0 detector (thesis Eq. 5.1) evaluated behaviourally: any
    of :func:`err0_terms`' columns."""
    columns, _ = err0_terms(profile)
    return np.any(columns, axis=1)


def err1_flags(profile: WindowProfile) -> np.ndarray:
    """The ERR1 detector (thesis Ch. 6.6) evaluated behaviourally."""
    p = profile.group_p
    if p.shape[1] < 2:
        return np.zeros(p.shape[0], dtype=bool)
    return np.any(p[:, :-1] & ~p[:, 1:], axis=1)


def vlcsa2_error_flags(profile: WindowProfile) -> np.ndarray:
    """True where *both* VLCSA 2 hypotheses are wrong (needs recovery)."""
    return scsa1_error_flags(profile) & scsa2_s1_error_flags(profile)


def vlsa_error_flags(
    a: np.ndarray, b: np.ndarray, width: int, chain_length: int
) -> np.ndarray:
    """True where VLSA's ``l``-bit per-output speculation is wrong.

    Error ⟺ some generate at position ``j`` is followed by ``l`` consecutive
    propagates with ``j + l <= width - 1`` (see
    :func:`repro.model.error_model.vlsa_error_rate_exact`).  Found with
    shift-and-AND doubling over the packed propagate mask.
    """
    l = chain_length
    if l < 1:
        raise ValueError("chain length must be positive")
    if width <= l:
        return np.zeros(a.shape[0], dtype=bool)
    p = a ^ b
    g = a & b
    # runs[t] = AND of p[t .. t+have-1], doubled until have == l.
    runs = p.copy()
    have = 1
    while have < l:
        step = min(have, l - have)
        runs = runs & shift_right_packed(runs, step)
        have += step
    pattern = g & shift_right_packed(runs, 1)
    # Valid start positions: j <= width - 1 - l.
    keep = np.zeros_like(pattern)
    top = width - l  # number of valid start positions
    full, rem = divmod(top, _LIMB_BITS)
    keep[:, :full] = ~_U64(0)
    if rem:
        keep[:, full] = _U64((1 << rem) - 1)
    pattern &= keep
    return np.any(pattern != 0, axis=1)


def monte_carlo_scsa_error_rate(
    width: int,
    window_size: int,
    samples: int,
    rng: Optional[np.random.Generator] = None,
    chunk: int = 1 << 18,
) -> float:
    """Monte Carlo SCSA 1 error rate for unsigned uniform inputs.

    The estimator behind Fig. 7.1's markers; chunked so 10^7-sample runs at
    width 512 stay within a few hundred MB.
    """
    from repro.inputs.generators import uniform_operands

    generator = rng if rng is not None else np.random.default_rng(2012)
    errors = 0
    remaining = samples
    while remaining > 0:
        n = min(chunk, remaining)
        a = uniform_operands(width, n, generator)
        b = uniform_operands(width, n, generator)
        profile = window_profile(a, b, width, window_size)
        errors += int(scsa1_error_flags(profile).sum())
        remaining -= n
    return errors / samples
