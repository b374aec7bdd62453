"""SWAR Monte Carlo kernel: every error counter from one add and one
all-ones test per window plan.

:func:`repro.model.behavioral.window_profile` loops over the ⌈n/k⌉
windows, doing ~10 vector passes per window.  An error-*rate* question
needs far less.  Write ``p = a ^ b`` (bit propagates), ``c`` for the
true carry into each bit (one full-width add, ``c = p ^ (a + b)``) and,
per window ``i``, ``P_i`` (every bit propagates), ``cin_i`` / ``cout_i``
(true carries into and out of the window) and ``G_i`` (group generate).

* **P ∧ cout.**  A fully propagating window passes its carry-in
  through, so ``P_i`` implies ``cout_i = cin_i``; a window with a
  generating or killing bit has ``cout_i = G_i``.  SCSA 1 speculates
  ``cout_i = G_i`` and is wrong exactly where ``P_i ∧ cout_i``; SCSA 2's
  alternate result S*1 speculates ``G_i ∨ P_i`` and is wrong exactly
  where ``P_i ∧ ¬cout_i``.
* **ERR0 is exact detection.**  Per sample, ERR0 =
  ``any(G_{i-1} ∧ P_i)`` equals ``any(P_i ∧ cin_i)``, the SCSA 1 term
  above, so one term answers SCSA 1, VLCSA 1 and the ERR0 half of the
  VLCSA 2 stall.  Proof: if ``G_{i-1} ∧ P_i`` then ``cin_i =
  cout_{i-1} = 1``, so ``P_i ∧ cin_i``.  Conversely, if ``P_i ∧ cin_i``
  follow the carry down: ``cin_i = G_{i-1} ∨ (P_{i-1} ∧ cin_{i-1})``,
  and window 0 has no carry-in, so the chain of all-propagate windows
  must start at some ``G_j`` followed by ``P_{j+1}``.  ``P_i`` excludes
  ``G_i``, so ``P_i ∧ cin_i`` is exactly ``cout_i ≠ G_i``; no step
  depends on window sizes, so the lemma holds under both window plans.
* **ERR1 as a k-shift.**  ERR1 = ``any(P_i ∧ ¬P_{i+1})`` pairs each
  window with its upper neighbour.

Every per-window bit lives at its window's *top* bit ``hi_i - 1``
(a "marker"): ``P_i`` from an all-ones test of ``p``, ``cout_i`` as
the carry out of that bit, which under ``P_i`` equals the carry into
it, so ``P_i ∧ cout_i`` is just ``Pm & c`` at the marker.  The all-ones
test runs on every window at once, SIMD within a register: mask each
window's top bit out of ``p``, add 1 at each window's low bit, and the
test carry pops into the (cleared) top bit iff the rest of the window is
all ones; ANDed with the top bit of ``p`` that is ``P_i``.  Because the
top bit is cleared, no test carry ever leaves a window: one add covers
adjacent windows, and the top window needs no bit above the adder.

Two neighbouring markers are ``size_{i+1}`` bits apart.  Every window
but the remainder window is exactly ``k`` bits wide, so shifting the
marker words right by ``k`` lines each window up with its upper
neighbour: ERR1 is ``Pm & (~P >> k)`` with ``~P`` the non-propagating
markers.  Shifted-in bits from beyond the top marker are 0, which is
exactly "no neighbour".  The LSB plan's remainder is window 0, which is
never the upper partner of a pair, so the shift is exact.  The MSB plan
puts the remainder at the *top*, so its one irregular pair (window
``m - 2`` with the top window) is read off the two marker bits
directly: the special case of the top window.

The kernel walks each chunk in fixed :data:`BLOCK_ROWS`-row sub-blocks,
transposed limb-major (``(limbs, rows)`` contiguous), so every numpy
pass is over one contiguous limb row that stays in cache.  Counts are
exact integer sums of per-sample flags, identical to the profile path's
at every width, window and distribution — the test suite and the fuzz
oracle assert so.

Two implementations, one algebra.  When the optional C library
(:mod:`repro.netlist._accel`) loads with its tuned counter kernel (the
AVX2/``-O3`` clones GCC builds on x86-64 glibc), :func:`counter_counts`
is one call of that kernel: it reads the packed ``(rows, limbs)``
operands in place and, per block of rows, computes ``p``, the true
carries, each plan's markers and the ``spec``/``s1``/``err1`` terms limb
by limb, then the counts, from a checked read-only table of each plan's
masks (:func:`_plan_table`).  It allocates nothing per block.  The numpy
kernel below is the fallback (no compiler, ``REPRO_ACCEL=0``, or a
portable ``-O2`` build of the library, which was measured slower than
numpy at n=64/k=8: 0.66–0.97 against 0.54–0.71 ms), and it stays the
only path of
:func:`counter_flags`, :func:`scsa1_error_flags_swar` and
:func:`scsa1_error_count`: the differential oracle the C kernel is
tested and fuzzed against, and an independent recount for benchmark
checks.  Per 2¹⁶-sample chunk (2-vCPU x86 VM) the C kernel's AVX2
build takes 0.9–1.4 ms at n=256/k=12 against 4.6–5.7 ms for numpy,
and 0.2–0.3 ms at n=64/k=8 against 0.5–0.8 ms.  The numpy kernel's ~140
passes per block also allocate ~140 block-sized temporaries, so its
speed depends on the heap's history: with no large free before the
call, glibc trims and regrows the heap for every block and the n=256
call takes 11–16 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Dict, FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.window import plan_windows
from repro.model.behavioral import num_limbs
from repro.netlist import _accel

_LIMB_BITS = 64
_U64 = np.uint64
_ONE = _U64(1)
_SIGN = _U64(_LIMB_BITS - 1)

#: Largest window the kernel accepts: the neighbour shifts move markers
#: by ``k`` bits within one limb step.  The window_profile reference
#: extracts each window as one uint64 field and stops at the same size.
SWAR_MAX_WINDOW = 63

#: Rows per limb-major sub-block: one uint64 limb row of a block is
#: 64 KiB, so a block's working set stays in L2 at every thesis width.
BLOCK_ROWS = 8192

#: Each counter's per-sample flag is the AND of these ``(plan, term)``
#: flags; ``spec`` is SCSA 1 mis-speculation (and ERR0, by the lemma
#: above), ``s1`` S*1 wrong, ``err1`` the ERR1 detector.
COUNTER_TERMS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "scsa1": (("lsb", "spec"),),
    "vlcsa1_nominal": (("lsb", "spec"),),
    "vlcsa2": (("msb", "spec"), ("msb", "s1")),
    "vlcsa2_stall": (("msb", "spec"), ("msb", "err1")),
}

#: Every counter the kernel computes, in report order.
ERROR_COUNTERS: Tuple[str, ...] = tuple(COUNTER_TERMS)


@dataclass(frozen=True)
class _PlanMasks:
    """Per-limb constants of one window plan.

    ``body`` holds every window bit but the window's top bit, ``low``
    each window's low bit and ``top`` each window's top bit (the
    markers).  ``carry_out[j]`` says a test carry can leave limb ``j``
    (a window straddles the limb boundary) and ``low_msb[j]`` that bit 63
    of ``low`` is set.  ``pair`` is ``(top marker, marker below it)``
    when the top window is not ``k`` bits wide, else ``None``.
    """

    body: Tuple[np.uint64, ...]
    low: Tuple[np.uint64, ...]
    top: Tuple[np.uint64, ...]
    carry_out: Tuple[bool, ...]
    low_msb: Tuple[bool, ...]
    pair: Optional[Tuple[int, int]]


def _limb_words(bits: Collection[int], limbs: int) -> Tuple[np.uint64, ...]:
    words = [0] * limbs
    for bit in bits:
        words[bit // _LIMB_BITS] |= 1 << (bit % _LIMB_BITS)
    return tuple(_U64(w) for w in words)


def _plan_key(width: int, window_size: int, remainder: str) -> str:
    """``"lsb"`` when both placements give the same plan (k divides n,
    or one window covers the adder)."""
    return remainder if width % window_size and window_size < width else "lsb"


@lru_cache(maxsize=256)
def _plan_masks(width: int, window_size: int, remainder: str) -> _PlanMasks:
    bounds = plan_windows(width, window_size, remainder).bounds
    limbs = num_limbs(width)
    body = _limb_words([t for lo, hi in bounds for t in range(lo, hi - 1)], limbs)
    low = _limb_words([lo for lo, _ in bounds], limbs)
    top = _limb_words([hi - 1 for _, hi in bounds], limbs)
    pair = None
    if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] != window_size:
        pair = (width - 1, bounds[-1][0] - 1)
    return _PlanMasks(
        body=body,
        low=low,
        top=top,
        carry_out=tuple(bool(int(w) >> 63) for w in body),
        low_msb=tuple(bool(int(w) >> 63) for w in low),
        pair=pair,
    )


@lru_cache(maxsize=256)
def _plan_table(width: int, window_size: int, remainder: str) -> _accel.PlanTable:
    """:func:`_plan_masks` as the C kernel's checked, read-only table."""
    masks = _plan_masks(width, window_size, remainder)
    words = np.array([masks.body, masks.low, masks.top], dtype=_U64)
    return _accel.PlanTable(words, width, window_size, masks.pair)


@lru_cache(maxsize=256)
def _c_request(
    width: int, window_size: int, names: Tuple[str, ...]
) -> Tuple[Tuple[_accel.PlanTable, ...], Tuple[int, ...]]:
    """The C kernel's plan tables and each counter's term mask: term
    ``(plan, t)`` is bit ``3q + COUNTER_TERM_BITS.index(t)``, ``q`` the
    plan's table."""
    conjs = [COUNTER_TERMS[name] for name in names]
    keys = list(dict.fromkeys(
        _plan_key(width, window_size, plan) for conj in conjs for plan, _ in conj
    ))
    needs = tuple(
        sum({
            1 << (3 * keys.index(_plan_key(width, window_size, plan))
                  + _accel.COUNTER_TERM_BITS.index(term))
            for plan, term in conj
        })
        for conj in conjs
    )
    return tuple(_plan_table(width, window_size, key) for key in keys), needs


def _propagate_markers(p: List[np.ndarray], masks: _PlanMasks) -> List[np.ndarray]:
    """``P_i`` at each window's top bit: the all-ones test of ``p``."""
    out = []
    carry = None
    for j, pj in enumerate(p):
        x = pj & masks.body[j]
        y = x + masks.low[j]
        if carry is not None:
            y += carry
            carry = None
        if masks.carry_out[j]:
            # Carry out of bit 63 is maj(x, low, carry-in); with low's bit
            # fixed it reduces to one AND/OR against the sum bit.
            if masks.low_msb[j]:
                carry = (x | ~y) >> _SIGN
            else:
                carry = (x & ~y) >> _SIGN
        out.append(y & (pj & masks.top[j]))
    return out


def _any(words: List[np.ndarray]) -> np.ndarray:
    acc = words[0]
    for word in words[1:]:
        acc = acc | word
    return acc != 0


def _shift_down(words: List[np.ndarray], k: int) -> List[np.ndarray]:
    """Multi-limb logical right shift by ``0 < k < 64`` bits."""
    right, left = _U64(k), _U64(_LIMB_BITS - k)
    out = [w >> right for w in words]
    for j in range(len(words) - 1):
        out[j] |= words[j + 1] << left
    return out


def _bit(words: List[np.ndarray], position: int) -> np.ndarray:
    q, r = divmod(position, _LIMB_BITS)
    return (words[q] >> _U64(r)) & _ONE


def _plan_terms(
    p: List[np.ndarray],
    c: List[np.ndarray],
    masks: _PlanMasks,
    window_size: int,
    wanted: Collection[str],
) -> Dict[str, np.ndarray]:
    """The ``wanted`` per-sample term flags of one window plan."""
    pm = _propagate_markers(p, masks)
    out: Dict[str, np.ndarray] = {}
    if "spec" in wanted or "s1" in wanted:
        hit = [m & cj for m, cj in zip(pm, c)]  # P ∧ cout
        if "spec" in wanted:
            out["spec"] = _any(hit)
        if "s1" in wanted:
            out["s1"] = _any([h ^ m for h, m in zip(hit, pm)])  # P ∧ ¬cout
    if "err1" in wanted:
        stop = [m ^ t for m, t in zip(pm, masks.top)]  # ¬P markers
        flags = _any([m & up for m, up in zip(pm, _shift_down(stop, window_size))])
        if masks.pair is not None:
            top_bit, below = masks.pair
            flags |= (_bit(pm, below) & ~_bit(pm, top_bit)) != 0
        out["err1"] = flags
    return out


def _block_terms(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    window_size: int,
    terms: FrozenSet[Tuple[str, str]],
) -> Dict[Tuple[str, str], np.ndarray]:
    """Per-sample term flags of one limb-major ``(limbs, rows)`` block."""
    limbs = a.shape[0]
    p: List[np.ndarray] = []
    c: List[np.ndarray] = []
    carry = None
    for j in range(limbs):
        aj, bj = a[j], b[j]
        pj = aj ^ bj
        s = aj + bj
        if carry is not None:
            s += carry
        cj = pj ^ s
        p.append(pj)
        c.append(cj)
        if j + 1 < limbs:
            carry = ((aj & bj) | (pj & cj)) >> _SIGN  # carry out of bit 63

    # Both plans are one plan when k divides n: compute its terms once.
    by_key: Dict[str, set] = {}
    for plan, term in terms:
        by_key.setdefault(_plan_key(width, window_size, plan), set()).add(term)
    found = {
        key: _plan_terms(p, c, _plan_masks(width, window_size, key), window_size, wanted)
        for key, wanted in by_key.items()
    }
    return {
        (plan, term): found[_plan_key(width, window_size, plan)][term] for plan, term in terms
    }


def _check_operands(a: np.ndarray, b: np.ndarray, width: int, window_size: int) -> None:
    if not 1 <= window_size <= SWAR_MAX_WINDOW:
        raise ValueError(
            f"SWAR kernel handles windows of 1..{SWAR_MAX_WINDOW} bits, got {window_size}"
        )
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != num_limbs(width):
        raise ValueError(f"operands must be equal (rows, {num_limbs(width)}) arrays")


def _blocks(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    window_size: int,
    wanted: Dict[str, Tuple[Tuple[str, str], ...]],
) -> Iterator[Tuple[int, Dict[str, np.ndarray]]]:
    """``(first row, {name: flags})`` per sub-block, each flag the AND of
    the ``(plan, term)`` flags ``wanted[name]`` lists."""
    _check_operands(a, b, width, window_size)
    terms = frozenset(t for conj in wanted.values() for t in conj)
    for start in range(0, a.shape[0], BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        found = _block_terms(
            np.ascontiguousarray(a[start:stop].T),
            np.ascontiguousarray(b[start:stop].T),
            width,
            window_size,
            terms,
        )
        flags = {}
        for name, (first, *rest) in wanted.items():
            value = found[first]
            for term in rest:
                value = value & found[term]
            flags[name] = value
        yield start, flags


def _counter_terms(counters: Collection[str]) -> Dict[str, Tuple[Tuple[str, str], ...]]:
    unknown = set(counters) - set(COUNTER_TERMS)
    if unknown:
        raise ValueError(f"unknown counters {sorted(unknown)}; choose from {ERROR_COUNTERS}")
    return {name: COUNTER_TERMS[name] for name in counters}


def _scsa1_terms(remainder: str) -> Dict[str, Tuple[Tuple[str, str], ...]]:
    if remainder not in ("lsb", "msb"):
        raise ValueError(f"remainder must be 'lsb' or 'msb', got {remainder!r}")
    return {"spec": ((remainder, "spec"),)}


def _gather(rows: int, names: Collection[str], blocks) -> Dict[str, np.ndarray]:
    out = {name: np.zeros(rows, dtype=bool) for name in names}
    for start, flags in blocks:
        for name, value in flags.items():
            out[name][start : start + value.shape[0]] = value
    return out


def _count(names: Collection[str], blocks) -> Dict[str, int]:
    totals = dict.fromkeys(names, 0)
    for _, flags in blocks:
        for name, value in flags.items():
            totals[name] += int(np.count_nonzero(value))
    return totals


def counter_flags(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    window_size: int,
    counters: Collection[str] = ERROR_COUNTERS,
) -> Dict[str, np.ndarray]:
    """Per-sample flags of each requested counter (see :data:`COUNTER_TERMS`).

    ``a`` and ``b`` are packed ``(rows, limbs)`` operands.  Bit-identical
    to the window_profile reference
    (:func:`repro.engine.jobs.reference_counter_flags`); windows above
    :data:`SWAR_MAX_WINDOW` bits raise ``ValueError``, as there.
    """
    wanted = _counter_terms(counters)
    return _gather(a.shape[0], wanted, _blocks(a, b, width, window_size, wanted))


def counter_counts(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    window_size: int,
    counters: Collection[str] = ERROR_COUNTERS,
) -> Dict[str, int]:
    """Number of flagged samples per counter (exact integers).

    One call of the C counter kernel when :func:`_counter_lib` finds it,
    the numpy kernel (:func:`_numpy_counter_counts`) otherwise.
    """
    lib = _counter_lib()
    if lib is None:
        return _numpy_counter_counts(a, b, width, window_size, counters)
    wanted = _counter_terms(counters)
    _check_operands(a, b, width, window_size)
    if not wanted:
        return {}
    tables, needs = _c_request(width, window_size, tuple(wanted))
    counts = lib.counter_counts(np.ascontiguousarray(a), np.ascontiguousarray(b), tables, needs)
    return dict(zip(wanted, counts))


def _counter_lib() -> Optional[_accel.AccelLib]:
    """The library when it loads with its tuned counter kernel, else ``None``."""
    lib = _accel.load()
    return lib if lib is not None and lib.tuned_counters else None


def _numpy_counter_counts(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    window_size: int,
    counters: Collection[str] = ERROR_COUNTERS,
) -> Dict[str, int]:
    """:func:`counter_counts` on the numpy kernel: its fallback and oracle."""
    wanted = _counter_terms(counters)
    return _count(wanted, _blocks(a, b, width, window_size, wanted))


def scsa1_error_flags_swar(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    window_size: int,
    remainder: str = "lsb",
) -> np.ndarray:
    """Per-sample SCSA 1 mis-speculation flags under either window plan.

    The ``spec`` term of the kernel; bit-identical to
    ``scsa1_error_flags(window_profile(...))``.
    """
    wanted = _scsa1_terms(remainder)
    return _gather(a.shape[0], wanted, _blocks(a, b, width, window_size, wanted))["spec"]


def scsa1_error_count(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    window_size: int,
    remainder: str = "lsb",
) -> int:
    """Number of mis-speculating samples in the batch (exact integer)."""
    wanted = _scsa1_terms(remainder)
    return _count(wanted, _blocks(a, b, width, window_size, wanted))["spec"]
