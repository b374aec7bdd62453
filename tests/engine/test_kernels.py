"""SWAR kernel equivalence: must match the window-profile reference bit
for bit at every width/window/remainder combination."""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.engine import kernels
from repro.engine.jobs import (
    ChunkSpec,
    MonteCarloErrorJob,
    _chunk_draw,
    chunk_seed_sequence,
    reference_counter_flags,
)
from repro.engine.jobs import _operands as _recipe
from repro.engine.kernels import (
    BLOCK_ROWS,
    ERROR_COUNTERS,
    SWAR_MAX_WINDOW,
    OperandDraw,
    counter_counts,
    counter_flags,
    drawn_counter_counts,
    scsa1_error_count,
    scsa1_error_flags_swar,
)
from repro.engine.runner import run_job
from repro.inputs.generators import GAUSSIAN_HEADROOM, gaussian_operands, uniform_operands
from repro.model.behavioral import mask_top, pack_ints, scsa1_error_flags, window_profile
from repro.netlist import _accel


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
    sigma = 2.0 ** min(32, width // 4) if width >= 8 else 0.5
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
        spec = ChunkSpec(0, (1 << 16) + 1)
        got = job.run_chunk(spec)
        a, b = _recipe(_chunk_draw(job, spec))
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


# -- the C counter kernel ----------------------------------------------------

C_WIDTHS = [2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300, 512]
SUBSETS_ALL = [
    subset
    for size in range(1, len(ERROR_COUNTERS) + 1)
    for subset in itertools.combinations(ERROR_COUNTERS, size)
]


def _windows(width):
    """1, 2, a k dividing n, a k not dividing n, 63 and k = n, where they fit."""
    divides = max(k for k in range(1, min(SWAR_MAX_WINDOW, width) + 1) if width % k == 0)
    rest = [k for k in range(3, min(SWAR_MAX_WINDOW, width) + 1) if width % k]
    picks = {1, 2, divides, SWAR_MAX_WINDOW, width}
    if rest:
        picks.add(rest[len(rest) // 2])
    return sorted(k for k in picks if k <= min(width, SWAR_MAX_WINDOW))


_numpy_counts = kernels._numpy_counter_counts


@pytest.fixture
def lib(monkeypatch):
    """The loaded library, its counter kernel serving ``counter_counts``
    whichever build it got."""
    loaded = _accel.load()
    if loaded is None or not loaded.counters:
        pytest.skip("C library or its counter kernel unavailable")
    monkeypatch.setattr(loaded, "tuned_counters", True)
    return loaded


@pytest.fixture(params=["c", "numpy"])
def counter_path(request, monkeypatch):
    """``counter_counts`` on the C kernel, then with the library forced off."""
    if request.param == "c":
        request.getfixturevalue("lib")
    else:
        monkeypatch.setattr(_accel, "load", lambda: None)
    return request.param


def _assert_counts_match(a, b, width, k, subsets=SUBSETS_ALL):
    want = reference_counter_flags(a, b, width, k)
    flags = counter_flags(a, b, width, k)
    for name in ERROR_COUNTERS:
        assert np.array_equal(flags[name], want[name]), (width, k, name)
    for subset in subsets:
        got = counter_counts(a, b, width, k, subset)
        assert got == {name: int(want[name].sum()) for name in subset}, (width, k, subset)


class TestCounterCountsPaths:
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("width", C_WIDTHS)
    def test_counts_match_flag_sums_and_reference(self, counter_path, width, distribution):
        """Every counter subset at windows 1, 2, k | n, k not dividing n,
        63 and k = n; the counters span both window plans."""
        a, b = _operands(width, 300, distribution, seed=width + 7)
        for k in _windows(width):
            _assert_counts_match(a, b, width, k)

    @pytest.mark.parametrize("rows", [0, 1, 7, BLOCK_ROWS - 1, BLOCK_ROWS + 1, 1 << 16])
    def test_row_counts(self, counter_path, rows):
        for width, k, distribution in ((129, 12, "uniform"), (64, 7, "gaussian"),
                                       (257, 63, "gaussian-unsigned")):
            a, b = _operands(width, rows, distribution, seed=rows + width)
            subsets = SUBSETS_ALL if rows < BLOCK_ROWS else [ERROR_COUNTERS, ("scsa1",)]
            _assert_counts_match(a, b, width, k, subsets)

    def test_c_kernel_equals_numpy_kernel_at_a_full_chunk(self, lib):
        for width, k, distribution in ((256, 12, "uniform"), (64, 8, "gaussian")):
            a, b = _operands(width, 1 << 16, distribution, seed=k)
            for subset in SUBSETS_ALL:
                assert counter_counts(a, b, width, k, subset) == _numpy_counts(
                    a, b, width, k, subset
                ), (width, k, subset)

    def test_bad_window_and_counter_raise_the_numpy_errors(self, lib, monkeypatch):
        a, b = _operands(256, 10, "uniform", seed=1)
        cases = [(SWAR_MAX_WINDOW + 1, ERROR_COUNTERS), (0, ERROR_COUNTERS),
                 (8, ("scsa3",)), (SWAR_MAX_WINDOW + 1, ())]
        for window, counters in cases:
            with pytest.raises(ValueError) as on:
                counter_counts(a, b, 256, window, counters)
            with monkeypatch.context() as patch:
                patch.setattr(_accel, "load", lambda: None)
                with pytest.raises(ValueError) as off:
                    counter_counts(a, b, 256, window, counters)
            assert str(on.value) == str(off.value)

    def test_strided_operands_count_like_contiguous_ones(self, counter_path):
        a, b = _operands(128, 600, "uniform", seed=4)
        got = counter_counts(a[::2], b[::2], 128, 9)
        assert got == _numpy_counts(a[::2].copy(), b[::2].copy(), 128, 9, ERROR_COUNTERS)

    def test_bits_above_the_width_do_not_count(self, counter_path):
        """The drawing kernel leaves them unmasked, relying on this."""
        for width, distribution in ((65, "uniform"), (300, "gaussian"), (2, "uniform")):
            a, b = _operands(width, 400, distribution, seed=width)
            junk = np.random.default_rng(width).integers(
                0, 1 << 64, size=(2, 400), dtype=np.uint64
            ) << np.uint64(width % 64)
            dirty_a, dirty_b = a.copy(), b.copy()
            dirty_a[:, -1] |= junk[0]
            dirty_b[:, -1] |= junk[1]
            for k in _windows(width):
                assert counter_counts(dirty_a, dirty_b, width, k) == _numpy_counts(
                    a, b, width, k, ERROR_COUNTERS
                ), (width, k)

    def test_empty_counter_set_counts_nothing(self, counter_path):
        a, b = _operands(64, 50, "uniform", seed=2)
        assert counter_counts(a, b, 64, 8, ()) == {}

    def test_untuned_build_counts_on_numpy(self, lib, monkeypatch):
        """Only the tuned build serves ``counter_counts``, in one call."""
        a, b = _operands(64, 300, "uniform", seed=3)
        want = _numpy_counts(a, b, 64, 8, ERROR_COUNTERS)
        calls = []
        real = lib.counter_counts
        monkeypatch.setattr(lib, "counter_counts", lambda *args: calls.append(1) or real(*args))
        assert counter_counts(a, b, 64, 8) == want and len(calls) == 1
        monkeypatch.setattr(lib, "tuned_counters", False)
        assert counter_counts(a, b, 64, 8) == want and len(calls) == 1


# -- the drawn C path ---------------------------------------------------------


def _edge_sigma(width):
    """The widest sigma the headroom rule admits at ``width``."""
    return 2.0 ** (width - 1) / GAUSSIAN_HEADROOM


def _draw(width, rows, distribution, seed, sigma=None):
    return OperandDraw(
        width=width,
        rows=rows,
        distribution=distribution,
        rng=np.random.default_rng(chunk_seed_sequence(seed, 3)),
        sigma=_edge_sigma(width) if sigma is None else sigma,
    )


class _Replay:
    """A generator that replays fixed normal draws, for a sigma-1 draw."""

    bit_generator = np.random.PCG64(0)

    def __init__(self, draws):
        self.left = [np.array(d, dtype=float) for d in draws]

    def normal(self, loc, scale, size):
        assert (loc, scale) == (0.0, 1.0)
        return self.left.pop(0)[:size]

    def standard_normal(self, out):
        out[:] = self.left.pop(0)


def _replay(width, distribution, draws):
    return OperandDraw(width, len(draws[0]), distribution, _Replay(draws), sigma=1.0)


def _assert_drawn_counts_match(width, k, rows, distribution, seed, subsets=SUBSETS_ALL):
    """The drawn C path against the numpy kernel on the recipe's arrays."""
    want = _numpy_counts(*_recipe(_draw(width, rows, distribution, seed)), width, k)
    for subset in subsets:
        got = drawn_counter_counts(_draw(width, rows, distribution, seed), k, subset)
        assert got == {name: want[name] for name in subset}, (width, k, rows, subset)


class TestDrawnCounterCounts:
    @pytest.mark.parametrize("width", [2, 64, 65, 256, 300])
    def test_uniform_operands_are_the_raw_pcg64_stream(self, width):
        """``integers(0, 2**64, uint64)`` takes one raw word per element,
        row-major: the property the kernel's own PCG64 relies on."""
        rows = 37
        seeds = chunk_seed_sequence(2012, 5)
        got = uniform_operands(width, rows, np.random.Generator(np.random.PCG64(seeds)))
        raw = np.random.PCG64(seeds).random_raw(rows * got.shape[1])
        assert np.array_equal(got, mask_top(raw.reshape(rows, -1), width))

    @pytest.mark.parametrize("delta", [0, 1, 127, 128 * 4, 128 * 5, (1 << 64) + 3])
    def test_jump_ahead_is_numpy_advance(self, lib, delta):
        bits = np.random.PCG64(chunk_seed_sequence(7, 1))
        start = bits.state["state"]
        bits.advance(delta)
        got = lib.pcg64_advance(start["state"], start["inc"], delta)
        assert got == bits.state["state"]["state"]

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("width", C_WIDTHS)
    def test_counts_match_the_recipe(self, lib, width, distribution):
        """Every counter subset at windows 1, 2, k | n, k not dividing n,
        63 and k = n, Gaussian sigma at the edge of the headroom rule."""
        for k in _windows(width):
            _assert_drawn_counts_match(width, k, 300, distribution, seed=width + k)

    @pytest.mark.parametrize("rows", [0, 1, 7, 127, 128, 129, 1 << 16])
    def test_row_counts(self, lib, rows):
        """Partial, single and many blocks, so every lane jump is crossed."""
        subsets = SUBSETS_ALL if rows < 1 << 16 else [ERROR_COUNTERS, ("scsa1",)]
        for width, k, distribution in ((129, 12, "uniform"), (256, 12, "uniform"),
                                       (64, 7, "gaussian"), (257, 63, "gaussian-unsigned")):
            _assert_drawn_counts_match(width, k, rows, distribution, rows + width, subsets)

    def test_thesis_sigma_counts_match_the_recipe(self, lib):
        for width, distribution in ((64, "gaussian"), (129, "gaussian-unsigned")):
            want = _numpy_counts(
                *_recipe(_draw(width, 5000, distribution, 1, sigma=2.0 ** 32)), width, 8
            )
            assert drawn_counter_counts(
                _draw(width, 5000, distribution, 1, sigma=2.0 ** 32), 8
            ) == want

    @pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
    def test_one_drawing_call_and_no_operand_arrays(self, lib, monkeypatch,
                                                    distribution):
        calls = []
        real = lib.counter_counts_drawn
        monkeypatch.setattr(lib, "counter_counts_drawn",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        monkeypatch.setattr(kernels, "counter_counts", None)  # arrays would need it
        drawn_counter_counts(_draw(64, 300, distribution, 1), 8)
        assert len(calls) == 1

    def test_untuned_build_draws_the_recipe_on_numpy(self, lib, monkeypatch):
        want = _numpy_counts(*_recipe(_draw(256, 300, "uniform", 1)), 256, 12)
        monkeypatch.setattr(lib, "tuned_counters", False)
        monkeypatch.setattr(lib, "counter_counts_drawn", None)
        assert drawn_counter_counts(_draw(256, 300, "uniform", 1), 12) == want

    @pytest.mark.parametrize("distribution", ["gaussian", "gaussian-unsigned"])
    @pytest.mark.parametrize("last", [None, 127.4, 127.5, 128.0, -128.0, -128.5, -129.0])
    def test_out_of_range_gaussian_raises_like_the_recipe(self, lib, monkeypatch,
                                                          distribution, last):
        """Signed values outside [-128, 128) raise the encoder's error on
        both paths at width 8; magnitudes are masked, as the recipe masks
        them.  ``None`` draws at sigma 2^10, else zeros and one ``last``."""
        def outcome():
            if last is None:
                draw = _draw(8, 300, distribution, 1, sigma=2.0 ** 10)
            else:
                a = np.zeros(300)
                a[-1] = last
                draw = _replay(8, distribution, [a, np.zeros(300)])
            try:
                return drawn_counter_counts(draw, 4)
            except ValueError as error:
                return str(error)

        on = outcome()
        with monkeypatch.context() as patch:
            patch.setattr(_accel, "load", lambda: None)
            off = outcome()
        assert on == off
        fits = last in (127.4, -128.0, -128.5)
        assert (on == "some values do not fit in 8-bit signed range") == (
            distribution == "gaussian" and not fits
        )

    @pytest.mark.parametrize("width, distribution", [
        (64, "gaussian"), (65, "gaussian"), (129, "gaussian"),
        (63, "gaussian-unsigned"), (64, "gaussian-unsigned"), (129, "gaussian-unsigned"),
    ])
    def test_rounding_ties_and_huge_draws_encode_like_the_recipe(self, lib, width,
                                                                 distribution):
        """Halves round to even, draws past 2^51 take the kernel's scalar
        steps, past 2^62 they clip.  Against b = 1 at k = 1 a row errs
        iff a ends in binary 11, so rounding a half the wrong way shows."""
        special = [
            0.5, 1.5, 2.5, 6.5, 10.5, -0.5, -1.5, -2.5, -4.5, 0.49999999999999994, -0.0,
            2.0 ** 51 - 0.5, 2.0 ** 51 + 0.5, -(2.0 ** 51) - 1.5, 2.0 ** 52 - 0.5,
            2.0 ** 52 + 3, 2.0 ** 62, 2.0 ** 62 + 2 ** 11, -(2.0 ** 63), 1e300, -1e300,
        ]
        rng = np.random.default_rng(width)
        noise = rng.standard_normal((2, 300)) * 2.0 ** rng.integers(0, 70, (2, 300))
        draws = [np.concatenate([special, noise[0]]),
                 np.concatenate([np.ones(len(special)), noise[1]])]

        for k in (1, 7):
            want = _numpy_counts(*_recipe(_replay(width, distribution, draws)), width, k)
            assert drawn_counter_counts(_replay(width, distribution, draws), k) == want, k

    def test_uniform_chunk_draws_no_operand_arrays(self, lib):
        """A counters-only n=256 chunk of 2^16 rows: its operand arrays
        alone would take 4 MiB."""
        job = MonteCarloErrorJob(width=256, window=12, samples=1 << 16)
        spec = ChunkSpec(0, 1 << 16)
        job.run_chunk(spec)  # warm the library and plan caches
        tracemalloc.start()
        try:
            job.run_chunk(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("half_word", [False, True])
    def test_generator_ends_where_the_recipe_leaves_it(self, lib, distribution,
                                                        half_word):
        """Either path consumes ``rng``; ``half_word`` first leaves half a
        word buffered in the generator, which neither path touches."""
        states = []
        for count in (drawn_counter_counts, lambda d, k: _numpy_counts(*_recipe(d), 129, k)):
            rng = np.random.default_rng(chunk_seed_sequence(5, 2))
            if half_word:
                rng.integers(0, 1 << 32, dtype=np.uint32)
            count(OperandDraw(129, 1000, distribution, rng, sigma=2.0 ** 32), 12)
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]
        assert states[0]["has_uint32"] == half_word


@pytest.fixture
def normals_lib(lib):
    if not lib.normals:
        pytest.skip("C standard normals unavailable (no libnpyrandom.a, or the check failed)")
    return lib


def _fresh_load(monkeypatch, tmp_path):
    """Build and load the library anew, in an empty cache, for this test."""
    monkeypatch.setattr(_accel, "_LIB", None)
    monkeypatch.setattr(_accel, "_TRIED", False)
    monkeypatch.setenv("REPRO_ACCEL_CACHE", str(tmp_path))
    loaded = _accel.load()
    if loaded is None or not loaded.counters:
        pytest.skip("C library or its counter kernel unavailable")
    monkeypatch.setattr(loaded, "tuned_counters", True)
    return loaded


class TestStandardNormals:
    def test_linked_and_checked_wherever_numpy_ships_the_archive(self, lib):
        """The load-time check gates the C draws, so a broken fast path
        would otherwise pass unseen as a silent fall back to numpy."""
        if _accel._npyrandom_archive() is None:
            pytest.skip("this numpy ships no libnpyrandom.a")
        assert lib.normals

    def test_bit_identical_to_numpy_across_chunk_seeds(self, normals_lib):
        """2^16 draws per seed: each crosses the tail strip (|z| past the
        ziggurat's r = 3.654) ~17 times and the wedges far more often,
        both numpy's own code behind the C fast path."""
        tails = 0
        for index in range(6):
            seeds = chunk_seed_sequence(2012, index)
            bits = np.random.PCG64(seeds)
            got = normals_lib.standard_normals(bits, np.empty(1 << 16))
            numpy = np.random.Generator(np.random.PCG64(seeds))
            want = numpy.standard_normal(1 << 16)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), index
            assert bits.state == numpy.bit_generator.state, index
            tails += int(np.count_nonzero(np.abs(want) > 3.6541528853610088))
        assert tails > 6 * 8

    def test_calls_continue_one_stream_and_scale_like_normal(self, normals_lib):
        seeds = chunk_seed_sequence(7, 1)
        bits = np.random.PCG64(seeds)
        out = np.empty(30_001)
        for part in (out[:1], out[1:12_345], out[12_345:12_345], out[12_345:]):
            normals_lib.standard_normals(bits, part, 2.0 ** 32)
        want = np.random.Generator(np.random.PCG64(seeds)).normal(0, 2.0 ** 32, out.size)
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64))

    def test_gaussian_chunks_draw_in_c_from_a_plain_generator_only(self, normals_lib,
                                                                   monkeypatch):
        calls = []
        real = normals_lib.standard_normals
        monkeypatch.setattr(normals_lib, "standard_normals",
                            lambda *args: calls.append(1) or real(*args))
        drawn_counter_counts(_draw(64, 300, "gaussian", 1), 8)
        assert len(calls) == 1
        drawn_counter_counts(_replay(64, "gaussian", [np.zeros(9), np.ones(9)]), 8)
        assert len(calls) == 1

    def test_load_check_refuses_a_wrong_draw_or_a_wrong_end_state(self, normals_lib):
        assert _accel._normals_agree(normals_lib.standard_normals)

        def one_ulp_off(bits, out):
            normals_lib.standard_normals(bits, out)
            out[100] = np.nextafter(out[100], np.inf)
            return out

        def one_word_short(bits, out):
            normals_lib.standard_normals(bits, out)
            bits.advance(-1)
            return out

        assert not _accel._normals_agree(one_ulp_off)
        assert not _accel._normals_agree(one_word_short)

    @pytest.mark.parametrize("fault", ["check fails", "no archive"])
    def test_without_c_normals_gaussian_chunks_count_on_numpy(self, monkeypatch,
                                                              tmp_path, fault):
        if fault == "check fails":
            monkeypatch.setattr(_accel, "_normals_agree", lambda fill: False)
        else:
            monkeypatch.setattr(_accel, "_npyrandom_archive", lambda: None)
        loaded = _fresh_load(monkeypatch, tmp_path)
        assert not loaded.normals
        monkeypatch.setattr(loaded, "standard_normals", None)
        for width, distribution in ((64, "gaussian"), (129, "gaussian-unsigned")):
            draw = _draw(width, 5000, distribution, 1, sigma=2.0 ** 32)
            want = _numpy_counts(*_recipe(draw), width, 8)
            assert drawn_counter_counts(
                _draw(width, 5000, distribution, 1, sigma=2.0 ** 32), 8
            ) == want

    def test_concurrent_threads_agree_with_serial_counts(self, normals_lib):
        from concurrent.futures import ThreadPoolExecutor

        def count(seed):
            return drawn_counter_counts(_draw(64, 1 << 14, "gaussian", seed, 2.0 ** 32), 8)

        seeds = list(range(16))
        with ThreadPoolExecutor(4) as pool:
            together = list(pool.map(count, seeds))
        assert together == [count(seed) for seed in seeds]


def _table(width=128, window=12, key="msb"):
    return kernels._plan_table(width, window, key)


class TestCounterBindingRefusals:
    def test_wrong_dtype_is_refused(self, lib):
        a, b = _operands(128, 8, "uniform", seed=1)
        with pytest.raises(TypeError, match="uint64"):
            lib.counter_counts(a.astype(np.int64), b, [_table()], [1])
        with pytest.raises(TypeError, match="uint64"):
            lib.counter_counts(a, a.tolist(), [_table()], [1])

    def test_strided_and_non_contiguous_operands_are_refused(self, lib):
        a, b = _operands(128, 8, "uniform", seed=1)
        for bad in (a[::2], np.asfortranarray(a), a.T, a[:, :1]):
            with pytest.raises(ValueError, match="C-contiguous|operands"):
                lib.counter_counts(bad, bad.copy(), [_table()], [1])

    def test_mismatched_shapes_are_refused(self, lib):
        a, b = _operands(128, 8, "uniform", seed=1)
        with pytest.raises(ValueError, match="operands"):
            lib.counter_counts(a, b[:7].copy(), [_table()], [1])
        wide, _ = _operands(129, 8, "uniform", seed=1)
        with pytest.raises(ValueError, match="operands"):
            lib.counter_counts(wide, wide.copy(), [_table()], [1])
        with pytest.raises(ValueError, match="2-D"):
            lib.counter_counts(a.ravel(), b.ravel(), [_table()], [1])

    def test_foreign_tables_are_refused(self, lib):
        a, b = _operands(128, 8, "uniform", seed=1)
        foreign = [
            _accel.RowTable([np.arange(3, dtype=np.int32)], 3),
            np.asarray(_table().masks),
        ]
        for table in foreign:
            with pytest.raises(TypeError, match="PlanTable"):
                lib.counter_counts(a, b, [table], [1])
        for tables in ([], [_table()] * 3):
            with pytest.raises(ValueError, match="one or two"):
                lib.counter_counts(a, b, tables, [1])
        for other in (_table(window=13), _table(width=127)):
            with pytest.raises(ValueError, match="different adders"):
                lib.counter_counts(a, b, [_table(), other], [1])

    def test_out_of_range_tables_and_masks_are_refused(self, lib):
        good = _table()
        masks = np.array(good.masks)
        with pytest.raises(TypeError, match="uint64"):
            _accel.PlanTable(masks.astype(np.int64), 128, 12, None)
        with pytest.raises(ValueError, match="shape"):
            _accel.PlanTable(masks[:2], 128, 12, None)
        with pytest.raises(ValueError, match="shape"):
            _accel.PlanTable(masks, 129, 12, None)
        for window in (0, SWAR_MAX_WINDOW + 1):
            with pytest.raises(ValueError, match="window"):
                _accel.PlanTable(masks, 128, window, None)
        for pair in ((128, 100), (100, 100), (127, -1)):
            with pytest.raises(ValueError, match="pair"):
                _accel.PlanTable(masks, 128, 12, pair)
        narrow = np.array(_table(width=100).masks)
        narrow[2, -1] |= np.uint64(1) << np.uint64(40)  # bit 104 of a 100-bit adder
        with pytest.raises(ValueError, match="at or above"):
            _accel.PlanTable(narrow, 100, 12, None)
        assert not good.masks.flags.writeable
        a, b = _operands(128, 8, "uniform", seed=1)
        for needs in ([0], [1 << 3], [-1]):
            with pytest.raises(ValueError, match="needs"):
                lib.counter_counts(a, b, [good], needs)


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
