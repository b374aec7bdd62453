"""Tests for the adversarial operand-pair strategies (repro.fuzz.generators)."""

import numpy as np
import pytest

from repro.fuzz.generators import (
    STRATEGIES,
    STRATEGY_ORDER,
    chain_pair,
    generate_pairs,
    mutate_pairs,
)


def _rng(seed=7):
    return np.random.default_rng(seed)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_strategies_respect_width(strategy):
    for width in (8, 16, 64, 128):
        pairs = generate_pairs(strategy, _rng(), width, 4, 40)
        assert len(pairs) == 40
        for a, b in pairs:
            assert 0 <= a < (1 << width)
            assert 0 <= b < (1 << width)


@pytest.mark.parametrize("strategy", STRATEGY_ORDER)
@pytest.mark.parametrize("width", (1, 2))
def test_strategies_fit_the_narrowest_buses(strategy, width):
    """Every strategy, the corpus mutator included, at widths 1 and 2 with
    and without a window: each operand fits its ``width``-bit bus."""
    base = [((1 << width) - 1, 1)]
    for window in (None, 1, width):
        for a, b in generate_pairs(strategy, _rng(), width, window, 60, base):
            assert 0 <= a < (1 << width) and 0 <= b < (1 << width), (a, b)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_strategies_deterministic(strategy):
    one = generate_pairs(strategy, _rng(3), 32, 8, 25)
    two = generate_pairs(strategy, _rng(3), 32, 8, 25)
    assert one == two


def test_chain_pair_generates_requested_carry_chain():
    width = 32
    a, b = chain_pair(width, start=5, length=9, noise_a=0, noise_b=0)
    total = a + b
    # generate at bit 5 launches a carry that ripples through the
    # propagate run: the sum flips bits 6..13 relative to a ^ b.
    assert (total >> 5) & 1 == 0
    for bit in range(6, 14):
        assert ((a ^ b) >> bit) & 1 == 1  # propagate positions
    assert (total >> 14) & 1 == 1  # chain terminates with a carry out


def test_corpus_strategy_mutates_base_pairs():
    base = ((0x1234, 0x4321), (0xFFFF, 0x0001))
    pairs = mutate_pairs(_rng(), 16, 4, 30, base)
    assert len(pairs) == 30
    assert all(0 <= a < 1 << 16 and 0 <= b < 1 << 16 for a, b in pairs)


def test_corpus_strategy_empty_base_falls_back_to_uniform():
    pairs = generate_pairs("corpus", _rng(1), 16, 4, 10, base=())
    assert len(pairs) == 10


def test_strategy_order_covers_all_plus_corpus():
    assert set(STRATEGY_ORDER) == set(STRATEGIES) | {"corpus"}


def test_unknown_strategy_raises():
    with pytest.raises(ValueError, match="unknown fuzz strategy"):
        generate_pairs("quantum", _rng(), 16, 4, 10)
