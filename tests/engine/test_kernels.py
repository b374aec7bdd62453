"""SWAR kernel equivalence: must match the window-profile reference bit
for bit at every width/window/remainder combination."""

import itertools

import numpy as np
import pytest

from repro.engine.jobs import ChunkSpec, MonteCarloErrorJob, reference_counter_flags
from repro.engine.kernels import (
    BLOCK_ROWS,
    ERROR_COUNTERS,
    SWAR_MAX_WINDOW,
    counter_counts,
    counter_flags,
    scsa1_error_count,
    scsa1_error_flags_swar,
)
from repro.engine.runner import run_job
from repro.inputs.generators import gaussian_operands, uniform_operands
from repro.model.behavioral import pack_ints, scsa1_error_flags, window_profile


def _reference(a, b, width, k, remainder):
    return scsa1_error_flags(window_profile(a, b, width, k, remainder))


class TestEquivalence:
    @pytest.mark.parametrize("width", [8, 16, 31, 32, 63, 64, 65, 128, 256, 512])
    @pytest.mark.parametrize("remainder", ["lsb", "msb"])
    def test_matches_profile_path_uniform(self, width, remainder):
        rng = np.random.default_rng(width * 2 + (remainder == "msb"))
        a = uniform_operands(width, 4000, rng)
        b = uniform_operands(width, 4000, rng)
        for k in (2, 3, 5, 8, min(13, width), min(17, width)):
            got = scsa1_error_flags_swar(a, b, width, k, remainder)
            want = _reference(a, b, width, k, remainder)
            assert np.array_equal(got, want), (width, k, remainder)

    @pytest.mark.parametrize("width", [64, 128])
    def test_matches_profile_path_gaussian(self, width):
        rng = np.random.default_rng(9)
        a = gaussian_operands(width, 4000, rng=rng)
        b = gaussian_operands(width, 4000, rng=rng)
        for k in (6, 14):
            for remainder in ("lsb", "msb"):
                got = scsa1_error_flags_swar(a, b, width, k, remainder)
                want = _reference(a, b, width, k, remainder)
                assert np.array_equal(got, want), (width, k, remainder)

    def test_window_equals_width(self):
        """k == n: a single window, error iff the whole add propagates."""
        a = pack_ints([0b1111, 0b0001, 0b1010], 4)
        b = pack_ints([0b0001, 0b1110, 0b0101], 4)
        got = scsa1_error_flags_swar(a, b, 4, 4)
        assert np.array_equal(got, _reference(a, b, 4, 4, "lsb"))

    def test_oversized_window_rejected_like_reference(self):
        """k > 63 exceeds single-field extraction in the reference path too;
        the kernel delegates and surfaces the same ValueError."""
        rng = np.random.default_rng(1)
        a = uniform_operands(256, 50, rng)
        b = uniform_operands(256, 50, rng)
        with pytest.raises(ValueError):
            _reference(a, b, 256, 70, "lsb")
        with pytest.raises(ValueError):
            scsa1_error_flags_swar(a, b, 256, 70)


class TestCornerCases:
    def test_adversarial_all_propagate(self):
        """a ^ b == all ones with carry-in chains crossing every boundary."""
        width = 64
        a = pack_ints([(1 << width) - 1, 0x5555555555555555, 1], width)
        b = pack_ints([1, 0xAAAAAAAAAAAAAAAA, (1 << width) - 1], width)
        for k in (4, 6, 9):
            got = scsa1_error_flags_swar(a, b, width, k)
            assert np.array_equal(got, _reference(a, b, width, k, "lsb"))

    def test_count_is_flag_sum(self):
        rng = np.random.default_rng(5)
        a = uniform_operands(64, 2000, rng)
        b = uniform_operands(64, 2000, rng)
        assert scsa1_error_count(a, b, 64, 6) == int(
            scsa1_error_flags_swar(a, b, 64, 6).sum()
        )

    def test_zero_operands_never_error(self):
        a = pack_ints([0] * 8, 128)
        b = pack_ints([0] * 8, 128)
        assert not scsa1_error_flags_swar(a, b, 128, 8).any()


# -- the all-counter kernel ------------------------------------------------

ORACLE_WIDTHS = [8, 63, 64, 65, 127, 128, 129, 256, 300, 512]
DISTRIBUTIONS = ["uniform", "gaussian", "gaussian-unsigned"]


def _operands(width, rows, distribution, seed):
    rng = np.random.default_rng(seed)
    if distribution == "uniform":
        return uniform_operands(width, rows, rng), uniform_operands(width, rows, rng)
    # Thesis sigma where it fits; narrow widths scale it down to stay in range.
    sigma = 2.0 ** min(32, width // 4)
    signed = distribution == "gaussian"
    return (
        gaussian_operands(width, rows, sigma=sigma, signed=signed, rng=rng),
        gaussian_operands(width, rows, sigma=sigma, signed=signed, rng=rng),
    )


def _counts(agg):
    return (agg.scsa1_errors, agg.vlcsa1_nominal, agg.vlcsa2_errors, agg.vlcsa2_stalls)


def _assert_matches_oracle(a, b, width, k, counters=ERROR_COUNTERS):
    got = counter_flags(a, b, width, k, counters)
    want = reference_counter_flags(a, b, width, k, counters)
    assert list(got) == list(counters)
    for name in counters:
        bad = np.flatnonzero(got[name] != want[name])
        assert bad.size == 0, (width, k, name, bad[:5])
    counts = counter_counts(a, b, width, k, counters)
    assert counts == {name: int(want[name].sum()) for name in counters}


class TestAllCounterKernel:
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("width", ORACLE_WIDTHS)
    def test_every_window_matches_profile_oracle(self, width, distribution):
        """Windows 1..63 (dividing n or not), per-sample, every counter."""
        a, b = _operands(width, 160, distribution, seed=width)
        for k in range(1, min(SWAR_MAX_WINDOW, width) + 1):
            _assert_matches_oracle(a, b, width, k)

    @pytest.mark.parametrize("rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, (1 << 16) + 1])
    def test_block_seams(self, rows):
        """Flags land in the right rows on both sides of every sub-block seam."""
        a, b = _operands(64, rows, "gaussian", seed=rows)
        _assert_matches_oracle(a, b, 64, 7)  # 7 does not divide 64
        if rows <= BLOCK_ROWS + 1:
            wa, wb = _operands(129, rows, "uniform", seed=rows + 1)
            _assert_matches_oracle(wa, wb, 129, 12)

    def test_chunk_counts_across_seams_match_oracle(self):
        job = MonteCarloErrorJob(width=65, window=6, samples=(1 << 16) + 1,
                                 distribution="gaussian", chunk_size=(1 << 16) + 1)
        got = job.run_chunk(ChunkSpec(0, (1 << 16) + 1))
        rng = np.random.default_rng(np.random.SeedSequence(job.seed, spawn_key=(0,)))
        a, b = job._operands(rng, (1 << 16) + 1)
        want = reference_counter_flags(a, b, 65, 6)
        assert _counts(got) == tuple(int(want[name].sum()) for name in ERROR_COUNTERS)

    def test_every_counter_subset_matches(self):
        a, b = _operands(300, 500, "uniform", seed=3)
        for size in range(1, len(ERROR_COUNTERS) + 1):
            for subset in itertools.combinations(ERROR_COUNTERS, size):
                _assert_matches_oracle(a, b, 300, 13, subset)


class TestAdversarialOperands:
    @pytest.mark.parametrize("width", [8, 64, 65, 128, 300])
    def test_all_propagate_all_generate_and_runs(self, width):
        full = (1 << width) - 1
        rng = np.random.default_rng(width)
        a_vals, b_vals = [], []
        # All propagate with every carry-in: a ^ b == all ones.
        for x in (0, full, 1, full >> 1, 0x5555555555555555 & full):
            a_vals.append(x)
            b_vals.append(full ^ x)
            a_vals.append(x)
            b_vals.append((full ^ x) + 1 & full)
        # All generate, all kill, and one generate below a propagate run.
        a_vals += [full, 0, 1, full - 1]
        b_vals += [full, 0, full, 1]
        # Alternating propagate/generate runs of assorted lengths.
        for run in (1, 2, 3, 5, 7, 8, 11, 12, 13, 31, 63):
            pattern_p = 0
            for lo in range(0, width, 2 * run):
                pattern_p |= ((1 << run) - 1) << lo
            pattern_p &= full
            pattern_g = full ^ pattern_p
            for _ in range(3):
                x = int.from_bytes(rng.bytes(width // 8 + 1), "little") & pattern_p
                a_vals.append(x | pattern_g)
                b_vals.append((pattern_p ^ x) | pattern_g)
                a_vals.append(x)
                b_vals.append(pattern_p ^ x)
        a = pack_ints(a_vals, width)
        b = pack_ints(b_vals, width)
        for k in range(1, min(SWAR_MAX_WINDOW, width) + 1):
            _assert_matches_oracle(a, b, width, k)

    def test_generate_into_propagate_run_is_flagged(self):
        """One generate at bit 0 carries through 63 propagating bits: every
        upper window mis-speculates and ERR0 fires on window 1."""
        width, k = 64, 8
        a = pack_ints([(1 << width) - 1], width)
        b = pack_ints([1], width)  # bit 0 generates, bits 1.. propagate
        flags = counter_flags(a, b, width, k)
        assert flags["scsa1"][0] and flags["vlcsa1_nominal"][0]
        _assert_matches_oracle(a, b, width, k)


class TestKernelSurface:
    def test_counter_names_are_the_job_counters(self):
        from repro.engine.jobs import _ERROR_COUNTERS

        assert ERROR_COUNTERS == _ERROR_COUNTERS
        assert ERROR_COUNTERS == ("scsa1", "vlcsa1_nominal", "vlcsa2", "vlcsa2_stall")

    def test_oversized_window_and_unknown_counter_rejected(self):
        a, b = _operands(256, 10, "uniform", seed=1)
        with pytest.raises(ValueError):
            counter_counts(a, b, 256, SWAR_MAX_WINDOW + 1)
        with pytest.raises(ValueError):
            counter_counts(a, b, 256, 8, ("scsa3",))
        with pytest.raises(ValueError):
            scsa1_error_flags_swar(a, b, 256, 8, "middle")

    def test_job_with_oversized_window_is_rejected_like_the_reference(self):
        """window_profile cannot take windows above 63 bits either, so a job
        asking for one is refused when it is constructed."""
        with pytest.raises(ValueError, match="windows of 1..63"):
            MonteCarloErrorJob(width=128, window=70, samples=16)
        a, b = _operands(128, 16, "uniform", seed=2)
        with pytest.raises(ValueError, match="field size"):
            reference_counter_flags(a, b, 128, 70)

    def test_scsa1_slice_is_the_scsa1_counter(self):
        a, b = _operands(256, 3000, "uniform", seed=8)
        scsa1 = counter_counts(a, b, 256, 12, ("scsa1",))["scsa1"]
        assert scsa1_error_count(a, b, 256, 12) == scsa1
        msb = scsa1_error_flags_swar(a, b, 256, 12, "msb")
        assert np.array_equal(msb, _reference(a, b, 256, 12, "msb"))


#: ``run_job`` aggregates (scsa1, vlcsa1_nominal, vlcsa2, vlcsa2_stall) of
#: 2 * 2^16 + 8193 samples at seed 2012, recorded with the window_profile
#: chunk path before the all-counter kernel replaced it.
GOLDEN = {
    (64, 8, "uniform", "default"): (1985, 1985, 23, 1702),
    (64, 8, "uniform", "serve"): (1985, 0, 23, 1702),
    (256, 12, "uniform", "default"): (380, 380, 20, 350),
    (256, 12, "uniform", "serve"): (380, 0, 20, 350),
    (64, 8, "gaussian", "default"): (35169, 35169, 463, 993),
    (64, 8, "gaussian", "serve"): (35169, 0, 463, 993),
}
SUBSETS = {
    "default": ERROR_COUNTERS,
    "serve": ("scsa1", "vlcsa2", "vlcsa2_stall"),
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_thesis_point_aggregates_are_unchanged(key):
    width, window, distribution, subset = key
    job = MonteCarloErrorJob(
        width=width,
        window=window,
        samples=2 * (1 << 16) + 8193,
        distribution=distribution,
        seed=2012,
        counters=SUBSETS[subset],
    )
    agg = run_job(job).aggregate
    assert agg.samples == job.samples
    assert _counts(agg) == GOLDEN[key]
