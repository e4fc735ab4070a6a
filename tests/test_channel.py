"""Fading model, parameter validation, and reproducible windowed sampling."""

import numpy as np
import pytest

from blockrate.channel import (
    Rayleigh,
    SystemParams,
    _exponential_from_uniform,
    draw_gain_matrix,
    substream,
    uniform_windows,
)
from blockrate.errors import DomainError


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

    @pytest.mark.parametrize("field", ["n", "m"])
    @pytest.mark.parametrize("value", NOT_INTEGRAL)
    def test_integer_rule(self, field, value):
        base = {**dict(snr_linear=1.0, n=10, m=2, theta=0.01), field: value}
        with pytest.raises(DomainError, match=f"{field} must be >= 1 and integral"):
            SystemParams(**base)


class TestFadingModels:
    def test_rayleigh_validation(self):
        with pytest.raises(DomainError):
            Rayleigh(mean_power=0.0)

    def test_rayleigh_moments(self):
        # LLN at one million draws: relative error ~ 1/sqrt(1e6) = 1e-3
        z = draw_gain_matrix(Rayleigh(), 1, 1_000_000, seed=7).ravel()
        assert z.mean() == pytest.approx(1.0, rel=0.01)
        assert z.var() == pytest.approx(1.0, rel=0.02)
        assert np.all(z >= 0)

    def test_rayleigh_mean_power_scaling(self):
        z1 = draw_gain_matrix(Rayleigh(1.0), 2, 1000, seed=3)
        z4 = draw_gain_matrix(Rayleigh(4.0), 2, 1000, seed=3)
        np.testing.assert_allclose(z4, 4.0 * z1, rtol=1e-15)

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

    def test_numpy_integer_seed_accepted(self):
        np.testing.assert_array_equal(uniform_windows(np.int64(5), 0, 8, 3),
                                      uniform_windows(5, 0, 8, 3))

    def test_uniform_range(self):
        u = uniform_windows(13, 0, 10_000, 5)
        assert u.min() >= 0.0 and u.max() < 1.0


class TestExponentialTransform:
    def test_endpoints(self):
        assert _exponential_from_uniform(np.array(0.0), 1.0) == 0.0
        top = _exponential_from_uniform(np.array(np.nextafter(1.0, 0.0)), 1.0)
        assert np.isfinite(top) and top > 30.0

    def test_inverse_cdf_identity(self):
        u = np.linspace(0.0, 0.999, 200)
        z = _exponential_from_uniform(u, 2.5)
        np.testing.assert_allclose(1.0 - np.exp(-z / 2.5), u, atol=1e-12)


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
