"""Job-spec tests: seeding discipline, chunking, aggregate algebra."""

import numpy as np
import pytest

from repro.engine import (
    DEFAULT_CHUNK,
    ErrorCounts,
    MagnitudeStats,
    MonteCarloErrorJob,
    MonteCarloMagnitudeJob,
    SweepJob,
    SweepPoint,
    chunk_seed_sequence,
)


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
        a = MagnitudeStats(samples=5, errors=1, sum_abs_error=1 << 70, max_abs_error=9)
        b = MagnitudeStats(samples=5, errors=2, sum_abs_error=3, max_abs_error=11)
        merged = a.merge(b)
        assert merged.sum_abs_error == (1 << 70) + 3  # Python int, no overflow
        assert merged.max_abs_error == 11
        assert merged.mean_abs_error == merged.sum_abs_error / 10


class TestMagnitudeJob:
    def test_error_count_matches_error_job(self):
        """Magnitude job sees the same operand streams as the error job."""
        mag = MonteCarloMagnitudeJob(width=32, window=8, samples=2**15)
        err = MonteCarloErrorJob(
            width=32, window=8, samples=2**15, counters=("scsa1",)
        )
        spec = mag.chunk_specs()[0]
        assert mag.run_chunk(spec).errors == err.run_chunk(spec).scsa1_errors

    def test_width_cap(self):
        with pytest.raises(ValueError):
            MonteCarloMagnitudeJob(width=64, window=8, samples=10)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"chunk_size": -5}, "chunk_size must be positive"),
            ({"chunk_size": 0}, "chunk_size must be positive"),
            ({"remainder": "middle"}, "remainder"),
            ({"distribution": "gaussian"}, "does not fit 32-bit"),
        ],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            MonteCarloMagnitudeJob(width=32, window=8, samples=100, **kwargs)


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
