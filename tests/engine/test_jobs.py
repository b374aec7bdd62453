"""Job-spec tests: seeding discipline, chunking, aggregate algebra."""

import numpy as np
import pytest

from repro.engine import (
    DEFAULT_CHUNK,
    ErrorCounts,
    MonteCarloErrorJob,
    SweepJob,
    SweepPoint,
    chunk_seed_sequence,
)
from repro.engine.checkpoint import chunk_digest, job_digest
from repro.engine.jobs import _chunk_draw, _operands
from repro.model.behavioral import unpack_ints

from tests.core.test_scsa import _reference_scsa

MAGNITUDE = ("scsa1", "magnitude")


class TestChunkSeeds:
    def test_matches_seed_sequence_spawn(self):
        """chunk_seed_sequence(s, i) is exactly SeedSequence(s).spawn(...)[i]."""
        for seed in (0, 2012, 2**63):
            spawned = np.random.SeedSequence(seed).spawn(8)
            for i, child in enumerate(spawned):
                direct = chunk_seed_sequence(seed, i)
                assert direct.generate_state(4).tolist() == child.generate_state(
                    4
                ).tolist()

    def test_streams_differ_across_chunks(self):
        states = {
            tuple(chunk_seed_sequence(2012, i).generate_state(2)) for i in range(64)
        }
        assert len(states) == 64

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            chunk_seed_sequence(2012, -1)


class TestErrorJob:
    def test_chunk_specs_cover_samples(self):
        job = MonteCarloErrorJob(width=64, window=8, samples=150_000, chunk_size=2**16)
        specs = job.chunk_specs()
        assert [s.index for s in specs] == list(range(len(specs)))
        assert sum(s.size for s in specs) == 150_000
        assert all(s.size == 2**16 for s in specs[:-1])

    def test_exact_multiple_has_no_tail_chunk(self):
        job = MonteCarloErrorJob(width=64, window=8, samples=3 * DEFAULT_CHUNK)
        assert len(job.chunk_specs()) == 3

    def test_chunk_result_independent_of_other_chunks(self):
        """A chunk's counts depend only on (seed, index)."""
        job = MonteCarloErrorJob(width=64, window=8, samples=200_000, chunk_size=2**14)
        spec = job.chunk_specs()[3]
        small = MonteCarloErrorJob(width=64, window=8, samples=2**16, chunk_size=2**14)
        again = small.chunk_specs()[3]
        a = job.run_chunk(spec)
        b = small.run_chunk(again)
        assert (a.samples, a.scsa1_errors, a.vlcsa2_errors, a.vlcsa2_stalls) == (
            b.samples,
            b.scsa1_errors,
            b.vlcsa2_errors,
            b.vlcsa2_stalls,
        )

    def test_with_seed_changes_counts(self):
        base = MonteCarloErrorJob(width=64, window=6, samples=2**15)
        spec = base.chunk_specs()[0]
        assert (
            base.run_chunk(spec).scsa1_errors
            != base.with_seed(9).run_chunk(spec).scsa1_errors
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width": 1, "window": 1, "samples": 10},
            {"width": 64, "window": 0, "samples": 10},
            {"width": 64, "window": 65, "samples": 10},
            {"width": 64, "window": 8, "samples": 0},
            {"width": 64, "window": 8, "samples": 10, "chunk_size": 0},
            {"width": 64, "window": 8, "samples": 10, "distribution": "exponential"},
            {"width": 64, "window": 8, "samples": 10, "counters": ("bogus",)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MonteCarloErrorJob(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"width": 128, "window": 70}, "windows of 1..63"),
            ({"width": 32, "window": 8, "distribution": "gaussian"}, "does not fit"),
            ({"width": 35, "window": 8, "distribution": "gaussian-unsigned"}, "width >= 36"),
            ({"width": 64, "window": 8, "distribution": "gaussian", "sigma": 0.0}, "positive"),
        ],
    )
    def test_jobs_that_cannot_run_are_refused_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            MonteCarloErrorJob(samples=16, **kwargs)

    def test_wide_window_without_counters_is_accepted(self):
        """The 63-bit cap is the counters' limit; a chain-length-only job
        never runs the kernel."""
        job = MonteCarloErrorJob(width=128, window=70, samples=16, counters=(),
                                 chain_lengths=True)
        counts = job.run_chunk(job.chunk_specs()[0])
        assert counts.samples == 16 and counts.chain_counts.sum() > 0

    def test_gaussian_at_the_headroom_edge_runs(self):
        """8 sigma = 2^(width-1) exactly: the thesis sigma fits 36 bits."""
        job = MonteCarloErrorJob(width=36, window=8, samples=4096,
                                 distribution="gaussian")
        assert job.run_chunk(job.chunk_specs()[0]).samples == 4096


class TestAggregates:
    def test_error_counts_merge_is_commutative(self):
        a = ErrorCounts(samples=10, scsa1_errors=2, vlcsa2_stalls=1)
        b = ErrorCounts(samples=20, scsa1_errors=5, vlcsa2_errors=1)
        left = ErrorCounts().merge(a).merge(b)
        right = ErrorCounts().merge(b).merge(a)
        for field in ("samples", "scsa1_errors", "vlcsa2_errors", "vlcsa2_stalls"):
            assert getattr(left, field) == getattr(right, field)

    def test_chain_count_merge(self):
        a = ErrorCounts(samples=1, chain_counts=np.array([0, 1, 2], dtype=np.int64))
        b = ErrorCounts(samples=1, chain_counts=np.array([3, 0, 1], dtype=np.int64))
        merged = a.merge(b)
        assert merged.chain_counts.tolist() == [3, 1, 3]

    def test_rate_on_empty_aggregate(self):
        assert ErrorCounts().rate("scsa1_errors") == 0.0

    def test_magnitude_merge_tracks_max_and_exact_sum(self):
        a = ErrorCounts(samples=5, scsa1_errors=1, sum_abs_error=1 << 70, max_abs_error=9)
        b = ErrorCounts(samples=5, scsa1_errors=2, sum_abs_error=3, max_abs_error=11)
        merged = a.merge(b)
        assert merged.sum_abs_error == (1 << 70) + 3  # Python int, no overflow
        assert merged.max_abs_error == 11
        assert merged.scsa1_errors == 3
        # An aggregate without magnitude totals folds in as zero totals.
        zero = ErrorCounts().merge(ErrorCounts(samples=2)).merge(b)
        assert (zero.sum_abs_error, zero.max_abs_error) == (3, 11)
        assert ErrorCounts.from_payload(merged.to_payload()) == merged

    def test_payload_carries_magnitude_only_when_set(self):
        plain = ErrorCounts(samples=4, scsa1_errors=1)
        assert "sum_abs_error" not in plain.to_payload()
        assert "max_abs_error" not in plain.to_payload()
        assert ErrorCounts.from_payload(plain.to_payload()).sum_abs_error is None
        big = ErrorCounts(samples=4, sum_abs_error=3 << 1100, max_abs_error=1 << 1100)
        payload = big.to_payload()
        assert payload["sum_abs_error"] == 3 << 1100
        assert ErrorCounts.from_payload(payload) == big


#: ``repro engine magnitude --json`` at the parent of the change that
#: folded magnitude into ``MonteCarloErrorJob`` (``--seed 7``, 40 000
#: samples, default chunk unless given): (width, window, distribution,
#: chunk, errors, sum_abs_error, max_abs_error).
PARENT_MAGNITUDES = [
    (63, 6, "uniform", DEFAULT_CHUNK, 2865, 2959764922480811931648, 9225623836668461568),
    (40, 4, "gaussian", DEFAULT_CHUNK, 15722, 5340617059369728, 1103823437824),
    (20, 3, "uniform", DEFAULT_CHUNK, 11726, 2560994560, 1065216),
    (63, 63, "uniform", DEFAULT_CHUNK, 0, 0, 0),
    (17, 5, "uniform", 1000, 1686, 83033472, 131200),
]


class TestMagnitudeJob:
    def test_error_count_matches_error_job(self):
        """A magnitude chunk (operand arrays) sees the same operand stream
        as a counters-only chunk (drawn by the counting kernel)."""
        mag = MonteCarloErrorJob(width=32, window=8, samples=2**15, counters=MAGNITUDE)
        err = MonteCarloErrorJob(
            width=32, window=8, samples=2**15, counters=("scsa1",)
        )
        spec = mag.chunk_specs()[0]
        assert mag.run_chunk(spec).scsa1_errors == err.run_chunk(spec).scsa1_errors

    @pytest.mark.parametrize("width, window, distribution, chunk, errors, total, largest",
                             PARENT_MAGNITUDES)
    def test_matches_the_single_limb_job_it_replaced(
        self, width, window, distribution, chunk, errors, total, largest
    ):
        job = MonteCarloErrorJob(width=width, window=window, samples=40_000,
                                 distribution=distribution, seed=7, chunk_size=chunk,
                                 counters=MAGNITUDE)
        counts = job.new_aggregate()
        for spec in job.chunk_specs():
            counts.merge(job.run_chunk(spec))
        assert (counts.samples, counts.scsa1_errors) == (40_000, errors)
        assert (counts.sum_abs_error, counts.max_abs_error) == (total, largest)

    def test_unsigned_gaussian_matches_the_single_limb_job(self):
        """The replaced job's library-only distribution, pinned the same way."""
        job = MonteCarloErrorJob(width=40, window=4, samples=30_000, seed=9,
                                 distribution="gaussian-unsigned", chunk_size=8192,
                                 counters=MAGNITUDE)
        counts = job.new_aggregate()
        for spec in job.chunk_specs():
            counts.merge(job.run_chunk(spec))
        assert (counts.scsa1_errors, counts.sum_abs_error, counts.max_abs_error) == (
            5654, 3657228852480, 4311810048
        )

    @pytest.mark.parametrize("width, window", [(64, 8), (128, 6), (256, 12), (257, 7)])
    def test_wide_widths_match_reference_scsa(self, width, window):
        """Past one limb, a chunk's totals equal the pure-Python SCSA 1
        model's on the same operands."""
        job = MonteCarloErrorJob(width=width, window=window, samples=3000, seed=width,
                                 counters=MAGNITUDE)
        spec = job.chunk_specs()[0]
        a, b = (unpack_ints(x, width) for x in _operands(_chunk_draw(job, spec)))
        errors = [x + y - _reference_scsa(x, y, width, window) for x, y in zip(a, b)]
        counts = job.run_chunk(spec)
        assert counts.scsa1_errors == sum(1 for e in errors if e)
        assert counts.sum_abs_error == sum(errors)
        assert counts.max_abs_error == max(errors)
        assert counts.max_abs_error > 0

    def test_magnitude_alone_and_with_other_counters(self):
        """``"magnitude"`` is independent of the other selected counters."""
        base = dict(width=96, window=7, samples=5000, seed=4)
        alone = MonteCarloErrorJob(counters=("magnitude",), **base)
        every = MonteCarloErrorJob(counters=MAGNITUDE + ("vlcsa2", "vlcsa2_stall"),
                                   chain_lengths=True, **base)
        plain = MonteCarloErrorJob(counters=("scsa1", "vlcsa2", "vlcsa2_stall"),
                                   chain_lengths=True, **base)
        spec = alone.chunk_specs()[0]
        one, both, none = (job.run_chunk(spec) for job in (alone, every, plain))
        assert one.scsa1_errors == 0 and both.scsa1_errors == none.scsa1_errors > 0
        assert (one.sum_abs_error, one.max_abs_error) == (
            both.sum_abs_error, both.max_abs_error
        )
        assert none.sum_abs_error is None
        assert both.chain_counts.tolist() == none.chain_counts.tolist()
        assert both.vlcsa2_stalls == none.vlcsa2_stalls

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"chunk_size": -5}, "chunk_size must be positive"),
            ({"chunk_size": 0}, "chunk_size must be positive"),
            ({"counters": ("magnitude", "msb")}, "unknown counters"),
            ({"distribution": "gaussian"}, "does not fit 32-bit"),
        ],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            MonteCarloErrorJob(**{"width": 32, "window": 8, "samples": 100,
                                  "counters": MAGNITUDE, **kwargs})

    def test_magnitude_window_cap_is_the_counters(self):
        with pytest.raises(ValueError, match="windows of 1..63"):
            MonteCarloErrorJob(width=128, window=64, samples=10, counters=("magnitude",))


class TestCompatibility:
    """Digests of jobs that do not count magnitude, pinned at the parent of
    the change that added the counter: existing schema-2 checkpoint
    directories and served results must still match."""

    def test_counters_only_job_and_chunk_digests(self):
        job = MonteCarloErrorJob(width=64, window=8, samples=5000, seed=11,
                                 chunk_size=2048, counters=("scsa1", "vlcsa2_stall"))
        assert job_digest(job) == (
            "679630e8d696c3b419833a5829c6f02ae0858c5be2ff445a2084e89b2e802bf1"
        )
        payload = job.run_chunk(job.chunk_specs()[0]).to_payload()
        assert payload == {"samples": 2048, "scsa1_errors": 36, "vlcsa1_nominal": 0,
                           "vlcsa2_errors": 0, "vlcsa2_stalls": 30, "vlsa_errors": 0}
        assert chunk_digest(0, payload) == (
            "0c1e1bb2c44445b711b6e50df92867faeaf2797fb864c7125683789513f314aa"
        )

    def test_chain_statistics_job_and_chunk_digests(self):
        job = MonteCarloErrorJob(width=32, window=6, samples=3000, seed=5,
                                 chunk_size=1024, chain_lengths=True, vlsa_chain=5)
        assert job_digest(job) == (
            "501dab65677a1a920f4431df781c65a4d9cefebdb8fee8abf7dede443630f98d"
        )
        payload = job.run_chunk(job.chunk_specs()[0]).to_payload()
        assert chunk_digest(0, payload) == (
            "ac342e2f758a0b0af446412f59c3b060f2e617205c382c470811b675fe691dbe"
        )


class TestSweepJob:
    def test_rows_keyed_by_point_order(self):
        job = SweepJob(
            points=(
                SweepPoint("vlcsa1", 16, 4),
                SweepPoint("designware", 16, None),
            )
        )
        specs = job.chunk_specs()
        assert [s.payload.architecture for s in specs] == ["vlcsa1", "designware"]
        agg = job.new_aggregate()
        for spec in reversed(specs):  # out-of-order completion
            agg = agg.merge(job.run_chunk(spec))
        rows = agg.ordered()
        assert [r["architecture"] for r in rows] == ["vlcsa1", "designware"]
        assert all(r["delay"] > 0 and r["area"] > 0 for r in rows)

    def test_model_rate_only_on_windowed_designs(self):
        job = SweepJob(points=(SweepPoint("designware", 16, None),))
        (row,) = job.new_aggregate().merge(
            job.run_chunk(job.chunk_specs()[0])
        ).ordered()
        assert "model_error_rate" not in row

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            SweepJob(points=())
