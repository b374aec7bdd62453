"""Structural-coverage feedback for the differential fuzzer.

Two complementary coverage signals decide whether an input batch taught
us anything new:

* **inter-window carry patterns** (behavioural) — for every adjacent
  window pair the 3-bit combination ``(G[i-1], P[i-1], carry_in[i])``.
  These eight states per boundary are exactly the cases the speculation
  and detection logic branch on (thesis Ch. 4-6): ``G=0,P=1,cin=1`` is
  the mis-speculation pattern, ``P[i]&G[i-1]`` drives ERR0, and so on.
  A fuzzer that has exercised all reachable combinations at every
  boundary has seen every window-level decision the architecture makes;

* **mux-select toggles** (structural) — for every MUX2 gate in the
  netlist (:func:`repro.netlist.compile.mux_select_points`, which
  reuses the kernel's levelization), whether its select has been
  observed at 0 and at 1.  The carry-select sum rows, the VLCSA 2
  hypothesis muxes, and the recovery path are all mux-structured, so
  select toggles approximate path coverage of the datapath.

Keys are small tuples, witnesses are the first operand pair (in vector
order) that exercised the key — the deterministic choice that makes the
corpus reproducible run over run.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.model.behavioral import WindowProfile

CoverageKey = Tuple  # ("w", boundary, combo) | ("m", gate_index, value)
Pair = Tuple[int, int]


def window_pattern_keys(
    profile: WindowProfile, remainder: str
) -> Dict[CoverageKey, int]:
    """Observed inter-window patterns -> first sample index exercising them.

    Key: ``("w", remainder, boundary, combo)`` with ``combo`` encoding
    ``G[i-1] | P[i-1] << 1 | carry_in[i] << 2``.
    """
    keys: Dict[CoverageKey, int] = {}
    m = profile.group_g.shape[1]
    for boundary in range(1, m):
        combos = (
            profile.group_g[:, boundary - 1].astype(int)
            | (profile.group_p[:, boundary - 1].astype(int) << 1)
            | (profile.carry_in[:, boundary].astype(int) << 2)
        )
        for combo in range(8):
            hits = combos == combo
            if hits.any():
                key = ("w", remainder, boundary, combo)
                keys[key] = int(hits.argmax())
    return keys


def _lowest_set_bits(rows: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of every limb row (``-1`` if none).

    Bit ``64 * limb + b`` of a row is vector ``64 * limb + b``, so this
    is the lowest vector index at which the row is 1.
    """
    nonzero = rows != 0
    limb = nonzero.argmax(axis=1)
    word = rows[np.arange(len(rows)), limb]
    low = word & (~word + np.uint64(1))  # isolate the lowest set bit
    # Powers of two are exact in float64, so log2 recovers the position.
    bit = np.log2(np.where(low == 0, np.uint64(1), low).astype(np.float64))
    index = limb * 64 + bit.astype(np.int64)
    return np.where(nonzero.any(axis=1), index, -1)


def mux_toggle_keys(
    points: Sequence[Tuple[int, int, int]],
    rows: np.ndarray,
    ones: np.ndarray,
    perm: np.ndarray,
) -> Dict[CoverageKey, int]:
    """Observed mux-select values -> first vector index exercising them.

    ``points`` comes from :func:`repro.netlist.compile.mux_select_points`;
    ``rows`` is the limb bit-plane array of one vectorized evaluation
    (every net is evaluated, so intermediate selects are free to read),
    ``ones`` its masked all-ones row and ``perm`` the plan's net-to-row
    map.  Key: ``("m", gate_index, value)``.
    """
    keys: Dict[CoverageKey, int] = {}
    if not points:
        return keys
    selects = rows[perm[[net for _, net, _ in points]]]
    first_one = _lowest_set_bits(selects)
    first_zero = _lowest_set_bits(selects ^ ones)
    for (gate_index, _net, _level), one, zero in zip(
        points, first_one.tolist(), first_zero.tolist()
    ):
        if one >= 0:
            keys[("m", gate_index, 1)] = one
        if zero >= 0:
            keys[("m", gate_index, 0)] = zero
    return keys


def witnessed(
    keys: Dict[CoverageKey, int], pairs: Sequence[Pair]
) -> List[Tuple[CoverageKey, int, int]]:
    """Attach operand witnesses: ``(key, a, b)`` in sorted key order."""
    out = []
    for key in sorted(keys):
        a, b = pairs[keys[key]]
        out.append((key, a, b))
    return out
