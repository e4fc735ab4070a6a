"""Fading model, parameter validation, and reproducible windowed sampling."""

import sys

import numpy as np
import pytest

from blockrate.channel import (
    _BLOCK_VALUES,
    Rayleigh,
    SystemParams,
    _exponential_from_uniform,
    _on_row_blocks,
    _run_rows,
    draw_gain_matrix,
    substream,
    uniform_windows,
)
from blockrate.effective_rate import SampleSet
from blockrate.errors import ComputationError, DomainError


# values the one integer rule (channel._check_integer) rejects at any low >= 1
NOT_INTEGRAL = [0, -2, 2.5, 100.0, np.float64(3.0), "3", None]


class TestSystemParams:
    def test_nm(self):
        assert SystemParams(1.0, 50, 4, 0.01).nm == 200

    @pytest.mark.parametrize("db,linear", [(0.0, 1.0), (10.0, 10.0), (-10.0, 0.1),
                                           (3.0, 1.9952623149688795)])
    def test_from_db(self, db, linear):
        assert SystemParams.from_db(db, 10, 1, 0.0).snr_linear == pytest.approx(linear, rel=1e-15)

    def test_theta_zero_allowed(self):
        assert SystemParams(1.0, 10, 1, 0.0).theta == 0.0

    @pytest.mark.parametrize("kw", [
        dict(snr_linear=0.0), dict(snr_linear=-1.0), dict(snr_linear=float("inf")),
        dict(n=0), dict(n=-3), dict(n=1.5),
        dict(m=0), dict(m=2.5),
        dict(theta=-0.1), dict(theta=float("nan")),
    ])
    def test_validation(self, kw):
        base = dict(snr_linear=1.0, n=10, m=2, theta=0.01)
        base.update(kw)
        with pytest.raises(DomainError):
            SystemParams(**base)

    @pytest.mark.parametrize("field,rule", [("snr_linear", "finite and > 0"),
                                            ("theta", "finite and >= 0")])
    def test_infinity_names_the_finite_rule(self, field, rule):
        base = {**dict(snr_linear=1.0, n=10, m=2, theta=0.01), field: float("inf")}
        with pytest.raises(DomainError, match=f"^{field} must be {rule}, got inf$"):
            SystemParams(**base)

    def test_subnormal_theta_nm_rejected(self):
        # theta * n * m below the least normal float keeps a few bits in
        # every kernel; the least normal one itself and zero are points
        tiny = sys.float_info.min
        assert SystemParams(1.0, 1, 1, tiny).theta == tiny
        assert SystemParams(1.0, 4, 2, tiny / 8).theta == tiny / 8
        for theta, n in ((np.nextafter(tiny, 0.0), 1), (tiny / 8, 7), (5e-324, 10**6)):
            with pytest.raises(DomainError, match="is subnormal.*use theta = 0 for the ergodic"):
                SystemParams(1.0, n, 1, theta)

    @pytest.mark.parametrize("field", ["n", "m"])
    @pytest.mark.parametrize("value", NOT_INTEGRAL)
    def test_integer_rule(self, field, value):
        base = {**dict(snr_linear=1.0, n=10, m=2, theta=0.01), field: value}
        with pytest.raises(DomainError, match=f"{field} must be >= 1 and integral"):
            SystemParams(**base)


class TestFadingModels:
    def test_rayleigh_moments(self):
        # LLN at one million draws: relative error ~ 1/sqrt(1e6) = 1e-3
        z = draw_gain_matrix(Rayleigh(), 1, 1_000_000, seed=7).ravel()
        assert z.mean() == pytest.approx(1.0, rel=0.01)
        assert z.var() == pytest.approx(1.0, rel=0.02)
        assert np.all(z >= 0)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_rayleigh_exponential_tail(self, t):
        # P(z > t) = exp(-t) for the unit-mean exponential
        z = draw_gain_matrix(Rayleigh(), 1, 1_000_000, seed=11).ravel()
        assert (z > t).mean() == pytest.approx(np.exp(-t), rel=0.01)


class TestWindowedSampling:
    def test_matches_per_sample_substreams(self):
        batch = draw_gain_matrix(Rayleigh(), 3, 50, seed=42)
        for i in range(50):
            # sample i's own substream, read and transformed independently
            row = -np.log1p(-substream(42, i, 3).random(3))
            np.testing.assert_array_equal(batch[i], row)

    def test_start_offset_slicing(self):
        full = draw_gain_matrix(Rayleigh(), 2, 100, seed=9)
        part = draw_gain_matrix(Rayleigh(), 2, 30, seed=9, start=37)
        np.testing.assert_array_equal(part, full[37:67])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_start_offset_slicing_across_blocks(self, monkeypatch, threads):
        # past two row blocks of padded width-4 rows at any worker count:
        # each block must draw its windows at start + lo
        monkeypatch.setenv("BLOCKRATE_THREADS", threads)
        count = 2 * (_BLOCK_VALUES // 4) + 5
        full = draw_gain_matrix(Rayleigh(), 2, 37 + count, seed=9)
        part = draw_gain_matrix(Rayleigh(), 2, count, seed=9, start=37)
        np.testing.assert_array_equal(part, full[37:])

    def test_chunked_equals_whole(self):
        whole = uniform_windows(5, 0, 64, 7)
        parts = np.concatenate([uniform_windows(5, 0, 20, 7),
                                uniform_windows(5, 20, 20, 7),
                                uniform_windows(5, 40, 24, 7)])
        np.testing.assert_array_equal(parts, whole)

    def test_windows_padded_to_philox_blocks(self):
        # widths 1..4 share counter blocks of 4 draws: sample i of a
        # width-w<=4 stream starts at counter block i regardless of w
        a = uniform_windows(3, 5, 1, 1)
        b = uniform_windows(3, 5, 1, 4)
        assert a[0, 0] == b[0, 0]

    def test_different_seeds_differ(self):
        assert not np.array_equal(uniform_windows(1, 0, 8, 3),
                                  uniform_windows(2, 0, 8, 3))

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            uniform_windows(-1, 0, 8, 3)

    @pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(3.0), "4", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(DomainError, match="integral"):
            uniform_windows(seed, 0, 8, 3)
        with pytest.raises(DomainError, match="integral"):
            draw_gain_matrix(Rayleigh(), 2, 4, seed=seed)

    @pytest.mark.parametrize("start", [-1, 1.5, 10**80])
    def test_start_off_the_stream_rejected(self, start):
        # a negative start, or one past the 2**256 counter blocks, wrapped
        # Philox's counter and drew rows from the far end of the stream
        with pytest.raises(DomainError):
            draw_gain_matrix(Rayleigh(), 2, 3, 1, start=start)
        with pytest.raises(DomainError):
            uniform_windows(1, start, 3, 2)

    def test_last_window_of_the_stream(self):
        # with one counter block per window, samples 2**256 - 3 .. 2**256 - 1
        # end on the stream's last block; one sample more would wrap
        last = 2**256 - 1
        np.testing.assert_array_equal(uniform_windows(1, last - 2, 3, 2)[-1],
                                      substream(1, last, 2).random(2))
        with pytest.raises(DomainError, match=r"2\*\*256 counter blocks"):
            uniform_windows(1, last - 1, 3, 2)

    def test_numpy_integer_seed_accepted(self):
        np.testing.assert_array_equal(uniform_windows(np.int64(5), 0, 8, 3),
                                      uniform_windows(5, 0, 8, 3))

    def test_uniform_range(self):
        u = uniform_windows(13, 0, 10_000, 5)
        assert u.min() >= 0.0 and u.max() < 1.0


def _row_blocks(count: int, width: int) -> list[tuple[int, int]]:
    seen = []  # appended from the pool's threads: list.append is atomic
    _on_row_blocks(count, width, lambda lo, hi: seen.append((lo, hi)))
    return sorted(seen)


class TestRowBlocks:
    # (count, width) -> blocks at 1, 2 and 3 workers: fig2's padded (1e5, 52)
    # master stays in cache-sized blocks, while a 1e5-row draw with m <= 5,
    # its statistics and a phi sweep take one block per worker
    SPLITS = {(100_000, 52): (10, 10, 12), (100_000, 50): (10, 10, 12),
              (100_000, 8): (2, 2, 3), (100_000, 1): (1, 2, 3),
              (2**19 + 3, 1): (2, 2, 3), (1, 1): (1, 1, 1), (2, 1): (1, 2, 2),
              (3, 52): (1, 2, 3)}

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_equal_shares_under_the_cap(self, monkeypatch, threads):
        monkeypatch.setenv("BLOCKRATE_THREADS", str(threads))
        for (count, width), counts in self.SPLITS.items():
            blocks = _row_blocks(count, width)
            assert len(blocks) == counts[threads - 1], (count, width)
            # the blocks tile [0, count) in order, and differ by at most a row
            assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
            assert blocks[-1][1] == count
            sizes = [hi - lo for lo, hi in blocks]
            assert max(sizes) - min(sizes) <= 1
            assert max(sizes) * width <= _BLOCK_VALUES + width

    def test_one_worker_inside_a_pool_task(self, monkeypatch):
        # a call on a pool worker runs its tasks inline: one block suffices
        monkeypatch.setenv("BLOCKRATE_THREADS", "2")
        assert _run_rows([lambda: _row_blocks(100_000, 1)] * 2) == [[(0, 100_000)]] * 2


class TestExponentialTransform:
    def test_endpoints(self):
        assert _exponential_from_uniform(np.array(0.0)) == 0.0
        top = _exponential_from_uniform(np.array(np.nextafter(1.0, 0.0)))
        assert np.isfinite(top) and top > 30.0

    def test_inverse_cdf_identity(self):
        u = np.linspace(0.0, 0.999, 200)
        z = _exponential_from_uniform(u)
        np.testing.assert_allclose(1.0 - np.exp(-z), u, atol=1e-12)


def test_draw_gain_matrix_validates_m():
    with pytest.raises(DomainError):
        draw_gain_matrix(Rayleigh(), 0, 1, seed=0)


def test_draw_gain_matrix_validates_count():
    with pytest.raises(DomainError):
        draw_gain_matrix(Rayleigh(), 1, 0, seed=0)


@pytest.mark.parametrize("field", ["m", "count"])
@pytest.mark.parametrize("value", NOT_INTEGRAL)
def test_draw_gain_matrix_integer_rule(field, value):
    kw = {**dict(m=2, count=100), field: value}
    with pytest.raises(DomainError, match=f"{field} must be >= 1 and integral"):
        draw_gain_matrix(Rayleigh(), kw["m"], kw["count"], seed=0)


@pytest.mark.parametrize("model", [None, "rayleigh", Rayleigh])
def test_draws_reject_a_model_that_is_not_rayleigh(model):
    with pytest.raises(DomainError, match="model must be a Rayleigh"):
        draw_gain_matrix(model, 2, 10, seed=0)
    with pytest.raises(DomainError, match="model must be a Rayleigh"):
        SampleSet.draw(model, 2, 10, seed=0)


@pytest.mark.parametrize("count", [10**16, 10**17])
def test_unallocatable_draw_is_computation_error(count):
    # 10**16 rows of 52 padded gains need 3.6 EiB (MemoryError); 10**17 rows
    # exceed the largest array numpy can describe (ValueError).  Neither can
    # be mapped, so no memory is touched.
    with pytest.raises(ComputationError, match="cannot allocate"):
        draw_gain_matrix(Rayleigh(), 50, count, seed=0)
    with pytest.raises(ComputationError, match="cannot allocate"):
        SampleSet.draw(Rayleigh(), 50, count, seed=0)
