"""Analytical error-rate models for speculative addition (uniform inputs).

The thesis' headline model is Eq. 3.13 — the probability that SCSA
mis-speculates an n-bit addition of independent uniform operands::

    P_err ≈ (m - 1) · 2^-(k+1) · (1 - 2^-k),      m = ceil(n / k)

a union bound over the per-window-pair events ``P[i+1] & G[i]``.  We also
provide an *exact* computation (:func:`scsa_error_rate_exact`) via the
window-carry Markov chain, exploiting that window group signals over
disjoint bit ranges are independent for uniform operands.  The exact value
is necessarily ≤ the union bound; the gap is tiny at the thesis' operating
points, which is what Fig. 7.1 demonstrates by simulation.

For the VLSA baseline (thesis [17], speculation depth ``l`` bits per output)
the corresponding models quantify the probability that some generated carry
propagates through ``l`` further positions — the content of Table 7.3's
comparison that SCSA needs a *smaller* window than VLSA's chain length for
equal error rates.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.window import plan_windows


def scsa_error_rate(width: int, window_size: int) -> float:
    """Thesis Eq. 3.13: approximate SCSA error rate for uniform inputs."""
    if width < 1 or window_size < 1:
        raise ValueError("width and window size must be positive")
    m = math.ceil(width / window_size)
    if m < 2:
        return 0.0
    k = window_size
    return (m - 1) * 2.0 ** -(k + 1) * (1.0 - 2.0 ** -k)


def _window_pgk_probabilities(size: int) -> tuple[float, float, float]:
    """(P(all-propagate), P(generate-out), P(kill)) of one uniform window.

    Thesis Eq. 3.10/3.11: ``P(P=1) = 2^-s`` and ``P(G=1) = (1 - 2^-s)/2``.
    """
    p_prop = 2.0 ** -size
    p_gen = 0.5 * (1.0 - p_prop)
    return p_prop, p_gen, 1.0 - p_prop - p_gen


def scsa_error_rate_exact(width: int, window_size: int, remainder: str = "lsb") -> float:
    """Exact SCSA mis-speculation probability for uniform inputs.

    Dynamic program over the windows (LSB to MSB).  State: the true carry
    out of the window processed so far, restricted to trajectories on which
    every speculated inter-window carry so far was exact.  A window whose
    group-propagate is set while the incoming carry is 1 turns a correct
    speculation into a wrong one (its carry-out is 1 but the speculated
    value, its group generate, is 0 — P and G are mutually exclusive).

    Unlike Eq. 3.13, this accounts for overlapping error events and for the
    smaller remainder window, and it covers the speculated carry-out bit.
    ``remainder`` places that window as :func:`plan_windows` does.

    ERR0 is exact detection (:mod:`repro.engine.kernels`), so this is also
    the exact rate of the ``vlcsa1_nominal`` counter (``"lsb"``) and of
    ERR0 under the MSB plan, the ``spec`` term VLCSA 2 uses (``"msb"``).
    """
    plan = plan_windows(width, window_size, remainder)
    ok_c0, ok_c1 = 1.0, 0.0
    for size in plan.sizes:
        p_prop, p_gen, p_kill = _window_pgk_probabilities(size)
        new_c1 = (ok_c0 + ok_c1) * p_gen
        new_c0 = (ok_c0 + ok_c1) * p_kill + ok_c0 * p_prop
        ok_c0, ok_c1 = new_c0, new_c1
    return 1.0 - (ok_c0 + ok_c1)


def vlsa_error_rate_union(width: int, chain_length: int) -> float:
    """Union bound for VLSA: some generate followed by ``l`` propagates.

    Start positions ``j`` with ``j + l <= width - 1``; each pattern has
    probability ``(1/4) * 2^-l`` for uniform operands.
    """
    n, l = width, chain_length
    if l < 1:
        raise ValueError("chain length must be positive")
    starts = max(0, n - l)
    return starts * 0.25 * 2.0 ** -l


def vlsa_error_rate_exact(width: int, chain_length: int) -> float:
    """Exact VLSA mis-speculation probability for uniform inputs.

    DP over bit positions.  State ``s`` tracks the live chain: ``s = 0`` is
    "no generated carry alive"; ``s >= 1`` means the most recent generate is
    followed so far by ``s - 1`` propagates.  Reaching ``s = l + 1`` (a
    generate plus ``l`` propagates) is the absorbing error state: some
    speculative output's ``l``-bit lookahead window has been outrun.

    Per uniform bit: propagate 1/2, generate 1/4, kill 1/4.
    """
    n, l = width, chain_length
    if l < 1:
        raise ValueError("chain length must be positive")
    if n <= l:
        return 0.0
    probs = [0.0] * (l + 1)
    probs[0] = 1.0
    error = 0.0
    for _ in range(n):
        new = [0.0] * (l + 1)
        for s, p in enumerate(probs):
            if p == 0.0:
                continue
            # generate: chain restarts at s = 1
            new[1] += p * 0.25
            # kill: chain dies
            new[0] += p * 0.25
            # propagate
            if s == 0:
                new[0] += p * 0.5
            elif s == l:
                error += p * 0.5
            else:
                new[s + 1] += p * 0.5
        probs = new
    return error


def expected_long_chain_fraction(width: int, threshold: int) -> float:
    """Probability an n-bit uniform addition has a carry chain > threshold.

    A "carry chain" is a generate followed by consecutive propagates (the
    definition behind Figs. 6.1-6.5); this is
    :func:`vlsa_error_rate_exact` with the chain length as threshold.
    """
    return vlsa_error_rate_exact(width, threshold)


def union_bound_terms(width: int, window_size: int) -> Sequence[float]:
    """The per-window-pair probabilities summed by Eq. 3.13 (diagnostics)."""
    plan = plan_windows(width, window_size)
    terms = []
    for i in range(plan.num_windows - 1):
        size_low = plan.sizes[i]
        size_high = plan.sizes[i + 1]
        p_gen = 0.5 * (1.0 - 2.0 ** -size_low)
        p_prop = 2.0 ** -size_high
        terms.append(p_gen * p_prop)
    return terms
