"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.engine import runner


@pytest.fixture(autouse=True)
def _fresh_process_pool():
    """Close the engine's process pool before and after each test.

    Pooled ``run_jobs`` and ``run_checkpointed`` calls reuse one resident
    pool per process.  Closing it around each test means a test's pooled
    run forks after the test's own monkeypatches, so the children see
    them, and no test inherits another's children.
    """
    runner._close_process_pool()
    yield
    runner._close_process_pool()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic numpy generator (fresh per test)."""
    return np.random.default_rng(20120301)


@pytest.fixture
def pyrng() -> random.Random:
    """Deterministic Python generator (fresh per test)."""
    return random.Random(20120301)


def random_pairs(width: int, count: int, seed: int = 1):
    """Deterministic random operand pairs, plus the usual corner cases."""
    gen = random.Random(seed)
    top = (1 << width) - 1
    pairs = [
        (0, 0),
        (top, top),
        (top, 1),
        (1, top),
        (top >> 1, top >> 1),
        (0, top),
    ]
    pairs.extend(
        (gen.randrange(1 << width), gen.randrange(1 << width))
        for _ in range(count)
    )
    return pairs
