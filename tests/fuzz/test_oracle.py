"""Tests for the differential oracle (repro.fuzz.oracle)."""

import numpy as np
import pytest

from repro.fuzz.generators import generate_pairs
from repro.fuzz.oracle import DesignPoint, Oracle
from repro.netlist.faults import enumerate_faults


def _pairs(width, count=48, seed=11, strategy="uniform"):
    rng = np.random.default_rng(seed)
    return generate_pairs(strategy, rng, width, 4, count)


@pytest.mark.parametrize(
    "design,window",
    [
        ("kogge_stone", None),
        ("scsa1", 4),
        ("scsa2", 4),
        ("vlcsa1", 4),
        ("vlcsa2", 4),
        ("vlsa", 5),  # windowed, but no speculative counters
    ],
)
def test_clean_designs_pass_every_check(design, window):
    oracle = Oracle(DesignPoint(design, 16, window))
    for strategy in ("uniform", "boundary", "carry-chain"):
        outcome = oracle.check_batch(_pairs(16, strategy=strategy))
        assert outcome.divergences == [], [
            d.to_dict() for d in outcome.divergences
        ]
        assert outcome.samples == 48


def test_coverage_collected_with_witnesses():
    oracle = Oracle(DesignPoint("vlcsa1", 16, 4))
    pairs = _pairs(16)
    outcome = oracle.check_batch(pairs)
    assert outcome.coverage
    kinds = {key[0] for key in outcome.coverage}
    assert kinds == {"w", "m"}  # both window patterns and mux toggles
    assert all(pair in pairs for pair in outcome.coverage.values())


def test_rate_counting_only_on_request():
    oracle = Oracle(DesignPoint("scsa1", 16, 4))
    pairs = _pairs(16, count=64)
    assert oracle.check_batch(pairs).lsb_profile_samples == 0
    counted = oracle.check_batch(pairs, count_rate=True)
    assert counted.lsb_profile_samples == 64
    assert 0 <= counted.lsb_profile_errors <= 64


def test_planted_fault_is_detected():
    point = DesignPoint("vlcsa1", 16, 4)
    clean = Oracle(point)
    net = clean.circuit.output_buses["sum"][0]
    mutant = Oracle(point, fault=(net, 1))
    outcome = mutant.check_batch(_pairs(16, strategy="boundary"))
    assert outcome.divergences
    checks = {d.check for d in outcome.divergences}
    # A stuck-at on the speculative sum trips the soundness cross-check.
    assert "err-soundness" in checks


def test_every_enumerable_fault_on_small_adder_is_caught():
    point = DesignPoint("scsa1", 8, 3)
    clean = Oracle(point)
    pairs = _pairs(8, count=64, strategy="boundary") + _pairs(
        8, count=64, strategy="carry-chain"
    )
    missed = []
    for fault in enumerate_faults(clean.circuit)[:40]:
        mutant = Oracle(point, fault=(fault.net, fault.stuck_at))
        if not mutant.check_batch(pairs).divergences:
            missed.append(fault)
    # The differential battery is a strong test set: at most a few
    # redundant-logic faults may escape on the unoptimized netlist.
    assert len(missed) <= 4, missed


def test_diverges_predicate_single_pair():
    point = DesignPoint("vlcsa2", 16, 4)
    clean = Oracle(point)
    assert clean.diverges(0x1234, 0x4321) == []
    net = clean.circuit.output_buses["sum_rec"][0]
    mutant = Oracle(point, fault=(net, 1))
    assert any(d.check == "recovery" for d in mutant.diverges(0, 0))


def test_machine_latency_cross_check_runs():
    from repro.fuzz.oracle import _MACHINE_SAMPLE

    oracle = Oracle(DesignPoint("vlcsa2", 16, 4))
    # sign-extension pairs force stalls; the machine subsample must agree.
    outcome = oracle.check_batch(_pairs(16, strategy="sign-extension"))
    assert outcome.divergences == []
    assert _MACHINE_SAMPLE > 0


def test_machine_that_does_not_drain_is_a_machine_result_divergence(monkeypatch):
    oracle = Oracle(DesignPoint("vlcsa1", 16, 4))

    def lose_operations(operands, max_cycles=None):
        raise RuntimeError("pipeline did not drain — protocol bug")

    monkeypatch.setattr(oracle._machine, "run_stream", lose_operations)
    outcome = oracle.check_batch(_pairs(16))
    assert [d.check for d in outcome.divergences] == ["machine-result"]
    assert "did not drain" in outcome.divergences[0].detail


@pytest.mark.parametrize("design", ["vlcsa1", "vlcsa2"])
def test_kernel_leg_catches_a_wrong_counter_flag(design, monkeypatch):
    """The SWAR kernel leg compares per-sample counter flags with the
    profile's; a kernel that drops one flagged sample must diverge."""
    from repro.engine import kernels

    real = kernels.counter_flags

    def off_by_one(a, b, width, window, counters):
        flags = real(a, b, width, window, counters)
        flags[counters[0]][0] = ~flags[counters[0]][0]
        return flags

    oracle = Oracle(DesignPoint(design, 16, 5))
    pairs = _pairs(16, strategy="boundary")
    assert oracle.check_batch(pairs).divergences == []
    monkeypatch.setattr(kernels, "counter_flags", off_by_one)
    checks = [d for d in oracle.check_batch(pairs).divergences if d.check == "kernel-swar"]
    assert len(checks) == 1 and (checks[0].a, checks[0].b) == pairs[0]


@pytest.mark.parametrize("design", ["vlcsa1", "vlcsa2"])
def test_kernel_leg_catches_a_wrong_counter_count(design, monkeypatch):
    """The leg also compares ``counter_counts`` (the C kernel when the
    library loads tuned) with the flag sums, and names a pair whose one-row
    count disagrees."""
    from repro.engine import kernels

    real = kernels.counter_counts
    oracle = Oracle(DesignPoint(design, 16, 5))
    pairs = _pairs(16, strategy="boundary")
    bad_a, bad_b = pairs[2]

    def miscount(a, b, width, window, counters):
        counts = real(a, b, width, window, counters)
        if ((a[:, 0] == bad_a) & (b[:, 0] == bad_b)).any():
            counts[counters[0]] += 1
        return counts

    assert oracle.check_batch(pairs).divergences == []
    monkeypatch.setattr(kernels, "counter_counts", miscount)
    checks = [d for d in oracle.check_batch(pairs).divergences if d.check == "kernel-swar"]
    assert len(checks) == 1 and (checks[0].a, checks[0].b) == (bad_a, bad_b)
    assert "counter counts" in checks[0].detail
