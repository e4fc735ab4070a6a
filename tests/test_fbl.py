"""Per-realization rate/error formulas and the exact mutual-information
density sampler.

Frozen reference values were computed with mpmath at 40 digits from
mu = (1/m) * sum log2(1 + SNR z_l) and
delta = log2(e) * sqrt(2/(n m^2) * sum s_l/(1+s_l)), s_l = SNR z_l.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from blockrate.channel import (
    _BLOCK_VALUES,
    Rayleigh,
    SystemParams,
    _pool_width,
    draw_gain_matrix,
    substream,
    uniform_windows,
)
from blockrate.errors import DomainError
from blockrate.fbl import (
    LOG2E,
    FixedRate,
    RateStats,
    VariableRate,
    _error_terms,
    _laplace_from_uniform,
    _rate_at,
    error_probability,
    error_probability_arrays,
    mi_density_samples_exact,
    rate_lower_bound,
    rate_lower_bound_arrays,
    rate_stats,
    rate_stats_arrays,
    rate_stats_widths,
)

P200 = SystemParams(snr_linear=1.0, n=200, m=1, theta=0.01)
P50X2 = SystemParams(snr_linear=1.0, n=50, m=2, theta=0.01)


class TestRateStats:
    def test_single_block_reference(self):
        st_ = rate_stats(np.array([1.0]), P200)
        assert st_.mu == pytest.approx(1.0, rel=1e-15)           # log2(1+1)
        assert st_.delta == pytest.approx(0.10201394465967895, rel=1e-14)

    def test_two_block_reference(self):
        st_ = rate_stats(np.array([0.5, 2.0]), P50X2)
        assert st_.mu == pytest.approx(1.0849625007211562, rel=1e-14)
        # s/(1+s) sums to exactly 1 here, so delta = log2(e)/10
        assert st_.delta == pytest.approx(LOG2E / 10.0, rel=1e-14)

    def test_arrays_match_scalar(self):
        gains = np.array([[0.3, 1.7], [2.0, 0.1], [1.0, 1.0]])
        mu, delta = rate_stats_arrays(gains, P50X2)
        for i in range(3):
            one = rate_stats(gains[i], P50X2)
            assert mu[i] == one.mu and delta[i] == one.delta

    def test_reduced_column_views_match_contiguous_prefixes(self):
        # widths 1..20 and 50 cross the 8-lane blocks of numpy's pairwise sum
        gains = np.random.default_rng(3).exponential(size=(500, 50))
        widths = [*range(1, 21), 50]
        stats = rate_stats_widths(gains, widths, P50X2.snr_linear, P50X2.n)
        assert sorted(stats) == widths
        s = P50X2.snr_linear * gains
        log_terms, frac_terms = np.log1p(s), s / (1.0 + s)
        # the plain left-to-right float loop, row by row
        loop = {m: ([], []) for m in widths}
        for lt, ft in zip(log_terms.tolist(), frac_terms.tolist()):
            log_sum = frac_sum = 0.0
            for m in range(1, 51):
                log_sum += lt[m - 1]
                frac_sum += ft[m - 1]
                if m in loop:
                    loop[m][0].append(LOG2E * (log_sum / m))
                    loop[m][1].append(LOG2E * math.sqrt(frac_sum * (2.0 / (P50X2.n * m * m))))
        for m in widths:
            mu, delta = stats[m]
            ref = rate_stats_arrays(np.ascontiguousarray(gains[:, :m]),
                                    SystemParams(1.0, 50, m, 0.01))
            assert np.array_equal(mu, ref[0]) and np.array_equal(delta, ref[1]), m
            assert np.array_equal(mu, loop[m][0]) and np.array_equal(delta, loop[m][1]), m
            # numpy's pairwise row sums differ only in rounding, by m ulps at most
            rel = m * np.finfo(float).eps / 2
            pairwise_mu = LOG2E * np.mean(log_terms[:, :m], axis=1)
            pairwise_delta = LOG2E * np.sqrt(frac_terms[:, :m].sum(axis=1)
                                             * (2.0 / (P50X2.n * m * m)))
            np.testing.assert_allclose(mu, pairwise_mu, rtol=rel, atol=0)
            np.testing.assert_allclose(delta, pairwise_delta, rtol=rel, atol=0)

    @pytest.mark.parametrize("widths", [[], [0], [1, 4], [-1, 2]])
    def test_widths_validation(self, widths):
        with pytest.raises(DomainError):
            rate_stats_widths(np.ones((3, 3)), widths, 1.0, 50)

    def test_snr_to_infinity_dispersion_limit(self):
        # s/(1+s) -> 1 per block, so delta -> log2(e)*sqrt(2/(n m))
        p = SystemParams(snr_linear=1e12, n=100, m=4, theta=0.01)
        st_ = rate_stats(np.ones(4), p)
        assert st_.delta == pytest.approx(LOG2E * math.sqrt(2.0 / 400.0), rel=1e-9)

    def test_zero_gain_degenerate(self):
        st_ = rate_stats(np.zeros(1), P200)
        assert st_.mu == 0.0 and st_.delta == 0.0

    @pytest.mark.parametrize("z", [np.array([-0.1]), np.array([np.nan]),
                                   np.array([1.0, 2.0])])
    def test_realization_validation(self, z):
        with pytest.raises(DomainError):
            rate_stats(z, P200)


class TestRateLowerBound:
    def test_reference_value(self):
        r = rate_lower_bound(np.array([1.0]), P200, 0.01)
        assert r == pytest.approx(0.76268007671843586, rel=1e-14)

    def test_increasing_in_epsilon(self):
        # tolerating more errors buys rate
        z = np.array([0.8, 1.2])
        rates = [rate_lower_bound(z, P50X2, e) for e in (0.001, 0.01, 0.1, 0.5)]
        assert rates == sorted(rates)

    def test_increasing_in_n(self):
        z = np.array([1.0])
        r_small = rate_lower_bound(z, SystemParams(1.0, 50, 1, 0.01), 0.01)
        r_big = rate_lower_bound(z, SystemParams(1.0, 5000, 1, 0.01), 0.01)
        assert r_small < r_big < 1.0

    def test_approaches_mu_for_large_n(self):
        z = np.array([1.0])
        r = rate_lower_bound(z, SystemParams(1.0, 10**9, 1, 0.01), 0.01)
        assert r == pytest.approx(1.0, abs=1e-3)

    def test_negative_rate_and_clamp(self):
        # deep fade at a strict error target drives the bound negative
        z = np.array([0.001])
        p = SystemParams(1.0, 50, 1, 0.01)
        raw = rate_lower_bound(z, p, 1e-6)
        assert raw < 0.0
        assert rate_lower_bound(z, p, 1e-6, clamp=True) == 0.0

    def test_epsilon_above_half_exceeds_mu(self):
        z = np.array([1.0])
        assert rate_lower_bound(z, P200, 0.9) > 1.0

    @pytest.mark.parametrize("clamp", [False, True])
    def test_arrays_match_scalar_rows(self, clamp):
        gains = np.vstack([draw_gain_matrix(Rayleigh(), 2, 200, seed=4), [[0.0, 0.0]]])
        mu, delta = rate_stats_arrays(gains, P50X2)
        for eps in (1e-6, 0.01, 0.7):
            r = rate_lower_bound_arrays(mu, delta, eps, clamp)
            expect = [rate_lower_bound(z, P50X2, eps, clamp) for z in gains]
            np.testing.assert_array_equal(r, expect)
            if clamp:
                assert (r >= 0.0).all()
        # the clamp has work to do: deep fades go negative at eps = 1e-6
        assert (rate_lower_bound_arrays(mu, delta, 1e-6) < 0.0).any()


@pytest.fixture(scope="module")
def wide_draws():
    """1e6 N(0, 20^2) draws for mu and |draws| for delta, far past both Q
    saturation points; delta is kept above 0 so every row takes the Q path."""
    rng = np.random.default_rng(11)
    mu = rng.normal(0.0, 20.0, 1_000_000)
    delta = np.maximum(np.abs(rng.normal(0.0, 20.0, 1_000_000)), 1e-300)
    return mu, delta


@pytest.fixture(scope="module")
def dead_draws(wide_draws):
    """wide_draws with delta = 0 on every fifth row; those rows' mu cycle
    through 0.7 - 1, 0.7 and 0.7 + 1, so at rate 0.7 each limit case occurs."""
    mu, delta = wide_draws[0][:100_000].copy(), wide_draws[1][:100_000].copy()
    delta[::5] = 0.0
    mu[::5] = 0.7 + np.resize([-1.0, 0.0, 1.0], mu[::5].size)
    return mu, delta


def _literal_gather_scatter(mu, delta, rate):
    # the error probability as written before the one-pass form: Q of the
    # literal z on rows with delta > 0, the 0 / 0.5 / 1 limit on the rest
    pos = delta > 0.0
    eps = np.empty_like(mu)
    eps[pos] = 0.5 * erfc(((mu[pos] - rate) / delta[pos]) / math.sqrt(2.0))
    deg = ~pos
    eps[deg] = np.where(rate < mu[deg], 0.0, np.where(rate > mu[deg], 1.0, 0.5))
    return eps


class TestInPlaceExpressions:
    @pytest.mark.parametrize("x", [-3.7, 0.0, 2.3263478740408408, 6.0])
    def test_rate_at_is_mu_minus_delta_x(self, wide_draws, x):
        mu, delta = wide_draws
        assert np.array_equal(_rate_at(mu, delta, x), mu - delta * x)
        m2, d2 = mu[:20_000].reshape(400, 50), delta[:20_000].reshape(400, 50)
        assert np.array_equal(_rate_at(m2, d2, x), m2 - d2 * x)
        m0, d0 = np.asarray(mu[3]), np.asarray(delta[3])
        assert _rate_at(m0, d0, x) == m0 - d0 * x

    @pytest.mark.parametrize("rate", [0.0, 0.7, 25.0])
    def test_error_probability_is_q_of_literal_z(self, wide_draws, rate):
        mu, delta = wide_draws
        literal = 0.5 * erfc(((mu - rate) / delta) / math.sqrt(2.0))
        assert np.array_equal(error_probability_arrays(mu, delta, rate), literal)
        m2, d2 = mu[:20_000].reshape(400, 50), delta[:20_000].reshape(400, 50)
        assert np.array_equal(error_probability_arrays(m2, d2, rate), literal[:20_000].reshape(400, 50))
        m0, d0 = np.asarray(mu[5]), np.asarray(delta[5])
        assert error_probability_arrays(m0, d0, rate) == literal[5]

    @pytest.mark.parametrize("rate", [0.0, 0.7, 25.0])
    def test_error_probability_with_dead_rows_is_gather_scatter(self, dead_draws, rate):
        mu, delta = dead_draws
        literal = _literal_gather_scatter(mu, delta, rate)
        assert np.array_equal(error_probability_arrays(mu, delta, rate), literal)
        m2, d2 = mu[:20_000].reshape(400, 50), delta[:20_000].reshape(400, 50)
        assert np.array_equal(error_probability_arrays(m2, d2, rate), literal[:20_000].reshape(400, 50))
        for i in (0, 5, 10):  # a 0-d row with delta = 0, in each limit case at rate 0.7
            m0, d0 = np.asarray(mu[i]), np.asarray(delta[i])
            assert error_probability_arrays(m0, d0, rate) == literal[i]
        if rate == 0.7:
            assert list(literal[[0, 5, 10]]) == [1.0, 0.5, 0.0]


class TestErrorProbability:
    def test_reference_value(self):
        eps = error_probability(np.array([0.5, 2.0]), P50X2, 0.6)
        assert eps == pytest.approx(0.00038759630873508802, rel=1e-12)

    def test_round_trip_with_rate(self):
        rng = np.random.default_rng(123)
        checked = 0
        for _ in range(150):
            m = int(rng.integers(1, 5))
            p = SystemParams(float(rng.uniform(0.1, 10)), int(rng.integers(10, 500)),
                             m, 0.01)
            z = rng.exponential(1.0, m)
            eps = float(rng.uniform(1e-6, 1 - 1e-6))
            r = rate_lower_bound(z, p, eps)
            if r < 0:   # error_probability rejects negative rates by contract
                continue
            assert error_probability(z, p, r) == pytest.approx(eps, abs=1e-10)
            checked += 1
        assert checked > 100

    def test_increasing_in_rate(self):
        z = np.array([1.0])
        es = [error_probability(z, P200, r) for r in (0.2, 0.6, 1.0, 1.4)]
        assert es == sorted(es)
        assert 0.0 < es[0] < es[-1] < 1.0

    def test_infinite_rate(self):
        # the one rate rule: a rate must be finite
        with pytest.raises(DomainError, match="rate must be finite and >= 0"):
            error_probability(np.array([1.0]), P200, float("inf"))

    def test_rate_zero(self):
        # mu > 0 and R = 0 puts the threshold far below the mean
        assert error_probability(np.array([1.0]), P200, 0.0) < 1e-15

    def test_degenerate_zero_dispersion(self):
        z = np.zeros(1)
        assert error_probability(z, P200, 0.5) == 1.0   # rate above mu = 0
        assert error_probability(z, P200, 0.0) == 0.5   # rate equals mu
        p_idle = error_probability(np.array([1.0]), P200, 1.0)
        assert p_idle == 0.5                             # rate equals mu, delta > 0 ok

    @pytest.mark.parametrize("rate", [-0.1, float("nan")])
    def test_rate_validation(self, rate):
        with pytest.raises(DomainError):
            error_probability(np.array([1.0]), P200, rate)

    def test_arrays_match_scalar(self):
        gains = np.array([[0.2], [1.0], [4.0]])
        mu, delta = rate_stats_arrays(gains, P200)
        out = error_probability_arrays(mu, delta, 0.7)
        for i in range(3):
            assert out[i] == error_probability(gains[i], P200, 0.7)

    def test_rate_past_float_range_of_z(self, wide_draws):
        # (mu - rate)/delta overflows on every row with delta < 0.55: those
        # rows are steps at eps = 1, as rows with delta = 0 are, and give the
        # slopes a finite z over an infinite spread
        mu, delta = wide_draws
        eps, z, spread = _error_terms(mu, delta, 1e308)
        assert (eps == 1.0).all()
        assert np.isfinite(z).all()
        assert (spread[delta < 0.5] == math.inf).all()
        i = int(np.argmin(delta))  # a 0-d row whose z overflows
        assert error_probability_arrays(np.asarray(mu[i]), np.asarray(delta[i]), 1e308) == 1.0

    def test_all_positive_delta_matches_mixed_path(self):
        # appending one zero-gain row (spread inf there) leaves the bits of
        # every other row as they are
        gains = draw_gain_matrix(Rayleigh(), 2, 5_000, 4)
        mu, delta = rate_stats_arrays(gains, P50X2)
        assert (delta > 0).all()
        mixed = error_probability_arrays(np.append(mu, 0.0), np.append(delta, 0.0), 0.6)
        assert np.array_equal(error_probability_arrays(mu, delta, 0.6), mixed[:-1])
        assert mixed[-1] == 1.0


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6),
       st.floats(min_value=0.05, max_value=20.0),
       st.integers(min_value=10, max_value=1000))
@settings(max_examples=150, deadline=None)
def test_round_trip_property(eps, z_val, n):
    p = SystemParams(1.0, n, 1, 0.01)
    z = np.array([z_val])
    r = rate_lower_bound(z, p, eps)
    if r >= 0:
        assert error_probability(z, p, r) == pytest.approx(eps, abs=1e-9)


class TestPolicies:
    def test_variable_rate_describe(self):
        assert "0.01" in VariableRate(epsilon=0.01).describe()
        assert "clamp" in VariableRate(epsilon=0.5, clamp_negative=True).describe()

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.3, 1.5, float("nan")])
    def test_variable_rate_validation(self, eps):
        with pytest.raises(DomainError):
            VariableRate(epsilon=eps)

    def test_open_policy_allowed(self):
        assert VariableRate().epsilon is None
        assert FixedRate().rate is None

    @pytest.mark.parametrize("rate", [-0.5, float("inf"), float("nan")])
    def test_fixed_rate_validation(self, rate):
        with pytest.raises(DomainError):
            FixedRate(rate=rate)


def _weights(z: np.ndarray, p: SystemParams) -> np.ndarray:
    s = p.snr_linear * z
    return np.sqrt(s / (1.0 + s))


def _left_to_right(sums: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each row's block sums (the last axis) weighted and added left to right."""
    total = sums[..., 0] * weights[0]
    for block in range(1, weights.size):
        total = total + sums[..., block] * weights[block]
    return total


class TestExactDensitySampler:
    def test_laplace_transform_moments_and_tail(self):
        u = np.random.default_rng(5).random(1_000_000)
        w = _laplace_from_uniform(u)
        assert abs(w.mean()) < 3.0 * math.sqrt(2.0 / w.size)   # mean 0, var 2
        assert w.var() == pytest.approx(2.0, rel=0.02)
        # one-sided tail of the unit-scale Laplace: P(w > t) = exp(-t)/2
        for t in (1.0, 3.0):
            assert (w > t).mean() == pytest.approx(0.5 * math.exp(-t), rel=0.05)

    def test_sample_moments_match_stats(self):
        z = np.array([1.0])
        x = mi_density_samples_exact(z, P200, 200_000, seed=17)
        st_ = rate_stats(z, P200)
        assert x.mean() == pytest.approx(st_.mu, abs=3 * st_.delta / math.sqrt(x.size))
        assert x.std() == pytest.approx(st_.delta, rel=0.01)

    def test_multiblock_moments(self):
        z = np.array([0.5, 2.0, 1.0, 0.2])
        p = SystemParams(1.0, 50, 4, 0.01)
        x = mi_density_samples_exact(z, p, 200_000, seed=23)
        st_ = rate_stats(z, p)
        assert x.mean() == pytest.approx(st_.mu, abs=3 * st_.delta / math.sqrt(x.size))
        assert x.std() == pytest.approx(st_.delta, rel=0.01)

    @pytest.mark.parametrize("n,m", [(50, 2), (25, 8), (1, 7), (40, 5)])
    def test_single_draw_matches_batch(self, n, m):
        p = SystemParams(1.0, n, m, 0.01)
        z = np.random.default_rng(7).exponential(1.0, m)
        batch = mi_density_samples_exact(z, p, 10, seed=3)
        mu = rate_stats(z, p).mu
        weights = _weights(z, p)
        for i in range(10):
            # one draw made alone from sample i's own substream
            u = substream(3, i, p.nm).random(p.nm)
            sums = _laplace_from_uniform(u).reshape(m, n).sum(axis=1)
            assert mu + LOG2E / p.nm * _left_to_right(sums, weights) == batch[i]

    @pytest.mark.parametrize("n,m", [(25, 8), (1, 7), (40, 5), (100, 2)])
    def test_draws_do_not_depend_on_count(self, n, m):
        # a draw is arithmetic on its own row alone, so the first c draws of
        # a c-draw call are those of a 16-draw call, even at the counts
        # under a block's worth of rows per worker
        p = SystemParams(1.0, n, m, 0.01)
        z = np.random.default_rng(7).exponential(1.0, m)
        for seed in range(20):
            ref = mi_density_samples_exact(z, p, 16, seed)
            for c in (1, 2, 3, 5):
                np.testing.assert_array_equal(mi_density_samples_exact(z, p, c, seed), ref[:c])

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    @pytest.mark.parametrize("n,m", [(200, 1), (25, 8), (7, 1), (1, 7)])
    def test_row_blocks_keep_every_draw(self, monkeypatch, threads, n, m):
        # counts 1 to 7, which split into blocks of one to three rows on
        # two or three workers, and three blocks' worth of rows plus five,
        # which split in 4 or 6: every draw is the weighted sum, left to
        # right, of the per-block Laplace sums of its own substream's window.
        # Those sums are checked against a draw made alone on every row
        # beside a block edge (every row of the small counts)
        monkeypatch.setenv("BLOCKRATE_THREADS", threads)
        p = SystemParams(2.0, n, m, 0.01)
        z = np.linspace(0.3, 1.7, m)
        mu = rate_stats(z, p).mu
        weights = _weights(z, p)
        for count in (*range(1, 8), 3 * -(-_BLOCK_VALUES // p.nm) + 5):
            draws = mi_density_samples_exact(z, p, count, seed=8)
            w = _laplace_from_uniform(uniform_windows(8, 0, count, p.nm))
            sums = w.reshape(count, m, n).sum(axis=2)
            np.testing.assert_array_equal(draws, mu + LOG2E / p.nm * _left_to_right(sums, weights))
            edges = {i * count // b for b in range(1, 13) for i in range(b + 1)}
            for i in {min(max(e + d, 0), count - 1) for e in edges for d in (-1, 0)}:
                one = _laplace_from_uniform(substream(8, i, p.nm).random(p.nm))
                np.testing.assert_array_equal(one.reshape(m, n).sum(axis=1), sums[i])

    def test_memory_is_one_block_per_worker(self):
        # 1e5 draws at n*m = 200: one block of about 2^19 values (4 MB) and
        # its Laplace temporaries per worker, 20 MB on one; in 2^24-value
        # chunks the peak was 641 MB
        z = np.array([1.0])
        mi_density_samples_exact(z, P200, 10, seed=1)  # the pool and its threads
        tracemalloc.start()
        try:
            mi_density_samples_exact(z, P200, 100_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20 * _pool_width()

    def test_validation(self):
        with pytest.raises(DomainError):
            mi_density_samples_exact(np.array([1.0]), P50X2, 10, seed=0)  # m mismatch
        with pytest.raises(DomainError):
            mi_density_samples_exact(np.array([1.0]), P200, 0, seed=0)   # count

    @pytest.mark.parametrize("count", [0, 2.5, 100.0, "3", None])
    def test_count_integer_rule(self, count):
        with pytest.raises(DomainError, match="count must be >= 1 and integral"):
            mi_density_samples_exact(np.array([1.0]), P200, count, seed=0)
