"""Throughput expectations: Monte Carlo paths, closed forms, and the
Gauss-Laguerre oracle.

The adaptive-integration reference values below were computed with
mpmath.quad at 30 digits over the exponential density; the package's
200-node Gauss-Laguerre rule agrees to ~1e-4 relative (the integrand's
derivative has a sqrt(z) singularity at the origin, which caps polynomial
convergence), and Monte Carlo agrees within sampling error.
"""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import log_ndtr

from blockrate import channel
from blockrate.channel import (
    _BLOCK_VALUES,
    Rayleigh,
    SystemParams,
    _exponential_from_uniform,
    draw_gain_matrix,
    uniform_windows,
)
from blockrate.effective_rate import (
    _mean,
    _spread,
    EffectiveRateEstimate,
    SampleSet,
    effective_rate_fixed,
    effective_rate_variable,
    ergodic_rate_fixed,
    ergodic_rate_variable,
    log_phi_slopes,
    log_psi,
    log_psi_slopes,
    phi,
)
from blockrate.errors import ComputationError, DomainError
from blockrate.fbl import (
    LOG2E,
    _error_terms,
    error_probability_arrays,
    rate_stats,
    rate_stats_arrays,
    rate_stats_widths,
)
from blockrate.optimize import optimal_rate
from blockrate.special import SQRT_2PI, q_function, q_inverse

P1 = SystemParams(snr_linear=1.0, n=200, m=1, theta=0.01)

# mpmath.quad references for SNR = 1, n = 200, m = 1, theta = 0.01
REF_PSI_003 = 0.40885307136378908          # psi at eps = 0.03
REF_VALUE_VAR_003 = 0.44719971310018193    # -ln(psi)/(theta n)
REF_PHI_R05 = 0.58395236011189887          # phi at R = 0.5
REF_VALUE_FIX_05 = 0.26896793731610084
REF_ERGODIC_003 = 0.67570831938964499      # E[(1-eps) R(z, 0.03)]
REF_ERGODIC_FIX_05 = 0.32908883762546682   # E[(1-eps(z, 0.5))] * 0.5


def _assert_slopes_match_differences(slopes, x, h, rel=1e-5):
    """The first and second derivatives slopes(x) returns agree with central
    differences of its value and of its first derivative."""
    _, d1, d2 = slopes(x)
    lo, hi = slopes(x - h), slopes(x + h)
    assert d1 == pytest.approx((hi[0] - lo[0]) / (2 * h), rel=rel)
    assert d2 == pytest.approx((hi[1] - lo[1]) / (2 * h), rel=rel)


@pytest.fixture(scope="module")
def samples():
    return SampleSet.draw(Rayleigh(), 1, 100_000, seed=2024)


class TestSampleSet:
    @pytest.mark.parametrize("field", ["m", "count"])
    @pytest.mark.parametrize("value", [0, 2.5, 100.0, "3", None])
    def test_draw_integer_rule(self, field, value):
        kw = {**dict(m=2, count=100), field: value}
        with pytest.raises(DomainError, match=f"{field} must be >= 1 and integral"):
            SampleSet.draw(Rayleigh(), kw["m"], kw["count"], 1)

    def test_draw_shape_and_flags(self):
        ss = SampleSet.draw(Rayleigh(), 3, 100, seed=1)
        assert ss.count == 100 and ss.m == 3
        assert not ss.gains.flags.writeable

    def test_prefix_shares_leading_blocks(self):
        ss = SampleSet.draw(Rayleigh(), 4, 50, seed=5)
        sub = ss.prefix(2)
        np.testing.assert_array_equal(sub.gains, ss.gains[:, :2])
        assert ss.prefix(4) is ss

    def test_prefix_is_read_only_view(self):
        ss = SampleSet.draw(Rayleigh(), 4, 50, seed=5)
        sub = ss.prefix(2)
        assert np.shares_memory(sub.gains, ss.gains)
        assert not sub.gains.flags.writeable

    def test_prefixes_stats_match_contiguous_copies(self, monkeypatch):
        ss = SampleSet.draw(Rayleigh(), 50, 2_000, seed=6)
        p = SystemParams(2.0, 50, 50, 0.01)
        ms = [*range(1, 21), 50]
        subs = ss.prefixes(ms, p)
        assert sorted(subs) == ms and subs[50] is ss
        expected = {m: rate_stats_arrays(np.ascontiguousarray(ss.gains[:, :m]),
                                         SystemParams(2.0, 50, m, 0.01))
                    for m in ms}
        # the stats must come from the cache that prefixes() filled
        monkeypatch.setattr("blockrate.effective_rate.rate_stats_widths", None)
        for m in ms:
            mu, delta = subs[m].stats(SystemParams(2.0, 50, m, 0.01))
            assert np.array_equal(mu, expected[m][0]), m
            assert np.array_equal(delta, expected[m][1]), m

    def test_prefixes_allocate_no_term_matrix(self):
        # beyond the 100 cached stats vectors, only a few (count,) working
        # vectors may be alive at once: never a (count, m) matrix of terms
        ss = SampleSet.draw(Rayleigh(), 50, 2_000, seed=6)
        tracemalloc.start()
        try:
            subs = ss.prefixes(range(1, 51), SystemParams(2.0, 50, 50, 0.01))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cached = sum(a.nbytes for sub in subs.values()
                     for stats in sub._stats_cache.values() for a in stats)
        assert cached == 100 * ss.count * 8
        assert peak < cached + 10 * ss.count * 8

    @pytest.mark.parametrize("threads", ["1", "2", "4"])  # 4: more workers than cores
    @pytest.mark.parametrize("m", [1, 3, 4, 50])  # 1, 3 and 50 pad their Philox windows
    @pytest.mark.parametrize("count", [1, 8191, 8192, 8193, 24581])
    def test_block_walk_matches_serial_reference(self, monkeypatch, count, m, threads):
        # the draw and the statistics run in row blocks on the pool; one
        # whole-range draw and one walk over the whole matrix must give the
        # same bits.  A cap of 4096 values per block puts 2 to 313 blocks,
        # even and odd, into these counts at every m and worker count.
        monkeypatch.setenv("BLOCKRATE_THREADS", threads)
        monkeypatch.setattr(channel, "_BLOCK_VALUES", 4096)
        widths = sorted({1, (m + 1) // 2, m})
        subs = SampleSet.draw(Rayleigh(), m, count, seed=8).prefixes(
            widths, SystemParams(2.0, 50, m, 0.01))
        gains = _exponential_from_uniform(uniform_windows(8, 0, count, m))
        ref = rate_stats_widths(gains, widths, 2.0, 50)
        assert np.array_equal(subs[m].gains, gains)
        for w in widths:
            mu, delta = subs[w]._stats_cache[(2.0, 50)]
            assert np.array_equal(mu, ref[w][0]) and np.array_equal(delta, ref[w][1]), w

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_draw_allocates_only_the_master(self, monkeypatch, threads):
        # each block is drawn, transformed and checked in place on its own
        # rows of the padded master: no block-sized temporary, let alone a
        # full-size one, is alive beside it.  Here every block holds about
        # a quarter of the master (four blocks at one or two workers).
        monkeypatch.setenv("BLOCKRATE_THREADS", threads)
        count, m = 3 * (_BLOCK_VALUES // 52) + 5, 50
        master_bytes = count * 52 * 8
        tracemalloc.start()
        try:
            ss = SampleSet.draw(Rayleigh(), m, count, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ss.gains.base.nbytes == master_bytes
        assert peak < master_bytes + master_bytes // 8

    def test_prefix_bounds(self):
        ss = SampleSet.draw(Rayleigh(), 2, 10, seed=0)
        with pytest.raises(DomainError):
            ss.prefix(0)
        with pytest.raises(DomainError):
            ss.prefix(3)

    def test_stats_cached_and_validated(self):
        ss = SampleSet.draw(Rayleigh(), 2, 10, seed=0)
        p = SystemParams(1.0, 50, 2, 0.01)
        first = ss.stats(p)
        again = ss.stats(p)
        assert first[0] is again[0] and first[1] is again[1]
        with pytest.raises(DomainError):
            ss.stats(SystemParams(1.0, 50, 3, 0.01))

    @pytest.mark.parametrize("gains", [np.ones(5), np.ones((0, 2)),
                                       -np.ones((3, 1)), np.full((2, 2), np.nan)])
    def test_validation(self, gains):
        with pytest.raises(DomainError):
            SampleSet(gains)


def _set_with_dead_row(m: int = 2, count: int = 5_000) -> SampleSet:
    """Monte Carlo gains plus one all-zero-gain row (delta = 0)."""
    gains = draw_gain_matrix(Rayleigh(), m, count, seed=3)
    return SampleSet(np.vstack([gains, np.zeros((1, m))]))


class TestFrozenStats:
    def test_cached_stats_read_only_and_untouched_by_kernels(self):
        ss = _set_with_dead_row()
        p = SystemParams(1.0, 50, 2, 0.05)
        mu, delta = ss.stats(p)
        assert not mu.flags.writeable and not delta.flags.writeable
        before = mu.copy(), delta.copy()
        for x in (-2.0, 1.0, 4.0, 7.0):
            log_psi_slopes(x, ss, p)
            log_psi_slopes(x, ss, p, clamp=True)
        for rate in (0.0, 0.3, 2.0):
            log_phi_slopes(rate, ss, p)
            phi(rate, ss, p)
            effective_rate_fixed(rate, ss, p)
            ergodic_rate_fixed(rate, ss, p)
        for eps in (1e-6, 0.01, 0.3):
            for clamp in (False, True):
                effective_rate_variable(eps, ss, p, clamp)
                ergodic_rate_variable(eps, ss, p, clamp)
        assert ss.stats(p)[0] is mu and ss.stats(p)[1] is delta
        assert np.array_equal(mu, before[0]) and np.array_equal(delta, before[1])
        with pytest.raises(ValueError):
            mu += 1.0

    def test_prefixes_cache_read_only_stats(self):
        ss = SampleSet.draw(Rayleigh(), 4, 300, seed=2)
        p = SystemParams(1.0, 50, 4, 0.05)
        for m, sub in ss.prefixes([1, 3, 4], p).items():
            for a in sub.stats(SystemParams(1.0, 50, m, 0.05)):
                assert not a.flags.writeable


# The kernels' plain forms as literal expressions: mu - delta*x,
# delta*(delta*e), (mu - rate)/delta, 1 - eps, a sum divided by ln phi in
# log space; the in-place kernel must return the same bits.
def _literal_log_psi_slopes(x, samples, params, clamp=False):
    mu, delta = samples.stats(params)
    r = mu - delta * x
    if clamp:
        r = np.maximum(r, 0.0)
        delta = np.where(r > 0.0, delta, 0.0)
    y = -params.theta * params.nm * r
    shift = max(float(y.max()), 0.0)
    e = np.exp(y - shift)
    w = delta * e
    mean_e, mean_w, mean_ww = _mean(samples, e), _mean(samples, w), _mean(samples, delta * w)
    c = params.theta * params.nm
    eps, keep = q_function(x), q_function(-x)
    g = math.exp(-0.5 * x * x) / SQRT_2PI
    floor = math.exp(-shift)
    lost = floor - mean_e
    psi_s = eps * floor + keep * mean_e
    d1 = (keep * c * mean_w - g * lost) / psi_s
    d2 = (x * g * lost + 2.0 * g * c * mean_w + keep * c * c * mean_ww) / psi_s - d1 * d1
    return shift + math.log(psi_s), d1, d2


def _literal_log_phi(a, b, t):
    """ln(a + b*exp(-t)): the complement below 0.9, else logaddexp."""
    comp = -math.expm1(-t) * b
    if comp < 0.9:
        return math.log1p(-comp)
    return float(np.logaddexp(math.log(a), math.log(b) - t))


def _literal_over(v, log_scale):
    """v * exp(-log_scale), through the logs of |v| and the scale."""
    return math.copysign(math.exp(math.log(abs(v)) - log_scale), v) if v else 0.0


def _literal_log_phi_slopes(rate, samples, params):
    mu, delta = samples.stats(params)
    pos = delta > 0.0
    spread = delta if pos.all() else np.where(pos, delta, math.inf)
    z = (mu - rate) / spread
    eps = q_function(z) if spread is delta else error_probability_arrays(mu, delta, rate)
    a, b = _mean(samples, eps), _mean(samples, 1.0 - eps)  # E[1-eps] its own sum
    p = np.exp(-0.5 * (z * z)) / spread
    dens = _mean(samples, p) / SQRT_2PI
    curv = _mean(samples, p * z / spread) / SQRT_2PI
    c = params.theta * params.nm
    t = c * rate
    decay = -math.expm1(-t)
    log_phi = _literal_log_phi(a, b, t)
    kept = _literal_over(b, log_phi + t)
    d1 = decay * _literal_over(dens, log_phi) - c * kept
    d2 = (decay * _literal_over(curv, log_phi) + 2.0 * c * _literal_over(dens, log_phi + t)
          + c * c * kept - d1 * d1)
    return log_phi, d1, d2


def _literal_fixed(rate, samples, params):
    mu, delta = samples.stats(params)
    eps_z = error_probability_arrays(mu, delta, rate)
    t = params.theta * params.nm * rate
    log_phi = _literal_log_phi(_mean(samples, eps_z), _mean(samples, 1.0 - eps_z), t)
    ergodic = _mean(samples, (1.0 - eps_z) * rate)
    return log_phi, _literal_spread(samples, eps_z), ergodic


def _literal_spread(samples, y):
    return 0.0 if samples.weights is not None else float(np.std(y, ddof=1))


@pytest.fixture(scope="module", params=["monte-carlo", "dead-row", "laguerre"])
def kernel_set(request):
    if request.param == "laguerre":
        return SampleSet.laguerre(), SystemParams(1.0, 200, 1, 0.01)
    ss = (SampleSet.draw(Rayleigh(), 3, 20_000, seed=8) if request.param == "monte-carlo"
          else _set_with_dead_row(3))
    return ss, SystemParams(10 ** -0.5, 50, 3, 0.05)


class TestInPlaceKernelsKeepBits:
    @pytest.mark.parametrize("clamp", [False, True])
    def test_log_psi_slopes(self, kernel_set, clamp):
        ss, p = kernel_set
        for x in (-6.0, -1.3, 0.0, 1.0, 2.3263478740408408, 5.2, 6.3613409):
            assert log_psi_slopes(x, ss, p, clamp) == _literal_log_psi_slopes(x, ss, p, clamp)

    def test_phi_kernels(self, kernel_set):
        ss, p = kernel_set
        for rate in (0.0, 1e-3, 0.05, 0.3, 1.1, 4.0):
            assert log_phi_slopes(rate, ss, p) == _literal_log_phi_slopes(rate, ss, p)
            log_phi, sd, ergodic = _literal_fixed(rate, ss, p)
            assert phi(rate, ss, p) == math.exp(log_phi)
            est = effective_rate_fixed(rate, ss, p)
            assert est.value == -log_phi / (p.theta * p.nm)
            if sd:
                assert est.std_error == (-math.expm1(-p.theta * p.nm * rate) * sd
                                         / (math.sqrt(ss.count) * math.exp(log_phi)
                                            * p.theta * p.nm))
            assert ergodic_rate_fixed(rate, ss, p).value == ergodic

    @pytest.mark.parametrize("clamp", [False, True])
    def test_ergodic_variable(self, kernel_set, clamp):
        ss, p = kernel_set
        mu, delta = ss.stats(p)
        for eps in (1e-8, 0.01, 0.4):
            r = mu - delta * q_inverse(eps)
            if clamp:
                r = np.maximum(r, 0.0)
            y = (1.0 - eps) * r
            est = ergodic_rate_variable(eps, ss, p, clamp)
            se = _literal_spread(ss, y) / math.sqrt(y.size)
            assert (est.value, est.std_error) == (_mean(ss, y), se)

    @pytest.mark.parametrize("shape", [(1_000_000,), (2,)])
    def test_spread_is_numpy_std(self, shape):
        y = np.random.default_rng(5).normal(0.0, 20.0, size=shape)
        expected = float(np.std(y, ddof=1))
        assert _spread(SampleSet(np.ones((1, 1))), y, float(np.mean(y))) == expected


def _serial_phi(rate, samples, params, want):
    """The phi branch of `_kernel` as one serial pass: one `_error_terms`
    over every row, then in-place passes over its eps buffer in the order
    they ran before the rows were split into blocks.  (ln phi, standard
    error) for want "spread", else (ln phi, d1, d2)."""
    mu, delta = samples.stats(params)
    c = params.theta * params.nm
    row, z, spread = _error_terms(mu, delta, rate)
    shift, t, decay = 0.0, c * rate, -math.expm1(-c * rate)
    a = _mean(samples, row)
    b = _mean(samples, np.subtract(1.0, row, out=None if want == "spread" else row))
    if decay * b < 0.9:
        log = math.log1p(-decay * b)
    elif a >= sys.float_info.min:
        log = float(np.logaddexp(math.log(a), math.log(b) - t))
    else:
        row = log_ndtr(np.negative(z))
        shift = max(float(row.max()), math.log(b) - t)
        row -= shift
        a = _mean(samples, np.exp(row, out=row))
        log = shift + math.log(a + b * math.exp(-t - shift))
    if want == "spread":
        return log, decay * _spread(samples, row, a) / (
            math.sqrt(samples.count) * math.exp(log - shift) * c)
    np.multiply(z, z, out=row)
    row *= -0.5
    row -= shift
    dens = _mean(samples, np.divide(np.exp(row, out=row), spread, out=row)) / SQRT_2PI
    np.multiply(row, z, out=row)
    curv = _mean(samples, np.divide(row, spread, out=row)) / SQRT_2PI
    kept = _literal_over(b, log + t)
    a1, a2 = decay * _literal_over(dens, log - shift), decay * _literal_over(curv, log - shift)
    b1, ab, b2 = c * kept, c * _literal_over(dens, log - shift + t), c * c * kept
    d1 = a1 - b1
    return log, d1, a2 + 2.0 * ab + b2 - d1 * d1


class TestPhiSweepKeepsBits:
    """phi's rows are filled in blocks on the pool; every split, at any
    worker count, gives the bits of one serial pass."""

    @staticmethod
    def _check(ss, p, rate):
        c = p.theta * p.nm
        assert log_phi_slopes(rate, ss, p) == _serial_phi(rate, ss, p, "slopes")
        assert phi(rate, ss, p) == math.exp(_serial_phi(rate, ss, p, "log")[0])
        log, se = _serial_phi(rate, ss, p, "spread")
        assert effective_rate_fixed(rate, ss, p) == EffectiveRateEstimate(-log / c, se)

    @staticmethod
    def _set(count):
        # every 7th row from the second has all-zero gains (delta = 0)
        gains = draw_gain_matrix(Rayleigh(), 2, count, seed=12)
        gains[1::7] = 0.0
        return SampleSet(gains)

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    @pytest.mark.parametrize("count", [1, 2, 3, 1001, 2**19 + 3])
    def test_matches_serial_reference(self, monkeypatch, count, threads):
        # one block per worker, two per worker past 2^19 rows; at 1e308
        # (mu - R)/delta overflows on every row with 0 < delta < 0.55, a step
        monkeypatch.setenv("BLOCKRATE_THREADS", threads)
        ss, p = self._set(count), SystemParams(10 ** -0.5, 50, 2, 0.05)
        for rate in (0.0, 0.05, 0.3, 1.1, 4.0, 1e308):
            self._check(ss, p, rate)

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_many_blocks_match_serial_reference(self, monkeypatch, threads):
        # a cap of 64 values per block splits 1001 rows into 16 or 18 blocks
        monkeypatch.setenv("BLOCKRATE_THREADS", threads)
        monkeypatch.setattr(channel, "_BLOCK_VALUES", 64)
        ss, p = self._set(1001), SystemParams(10 ** -0.5, 50, 2, 0.05)
        for rate in (0.05, 1.1, 1e308):
            self._check(ss, p, rate)

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_log_form_matches_serial_reference(self, monkeypatch, threads):
        # a point of the probe grid (tests/test_optimize.py) where, at the
        # optimum, every row's eps underflows: ln phi takes the log form
        monkeypatch.setenv("BLOCKRATE_THREADS", threads)
        ss = SampleSet.draw(Rayleigh(), 10, 20_000, seed=1).prefix(5)
        p = SystemParams.from_db(20.0, 500, 5, 1.0)
        rate = optimal_rate(ss, p).argument
        eps = error_probability_arrays(*ss.stats(p), rate)
        assert _mean(ss, eps) < sys.float_info.min
        assert -math.expm1(-p.theta * p.nm * rate) * _mean(ss, 1.0 - eps) >= 0.9
        self._check(ss, p, rate)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sweep_holds_at_most_three_set_length_arrays(self, monkeypatch, threads):
        # slopes: eps (then 1 - eps), p and z (then z*p/delta), one array
        # more than one serial pass's z and eps; phi and effective_rate_fixed
        # hold eps and z (then 1 - eps)
        monkeypatch.setenv("BLOCKRATE_THREADS", threads)
        ss, p = SampleSet.draw(Rayleigh(), 2, 100_000, seed=4), SystemParams(1.0, 200, 2, 0.01)
        ss.stats(p)  # cached before tracing
        for f, arrays in ((log_phi_slopes, 3), (phi, 2), (effective_rate_fixed, 2)):
            tracemalloc.start()
            try:
                f(0.3, ss, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < (arrays + 0.05) * ss.count * 8, f.__name__


def _atom_samples(z0: float, count: int = 64) -> SampleSet:
    return SampleSet(np.full((count, 1), z0))


class TestPsi:
    def test_single_atom_closed_form(self):
        # one fading atom: psi(eps) = eps + (1-eps)*exp(a*Qinv(eps) + b)
        z0, p = 0.8, P1
        st = rate_stats(np.array([z0]), p)
        a = p.theta * p.nm * st.delta
        b = -p.theta * p.nm * st.mu
        ss = _atom_samples(z0)
        for eps in (1e-6, 0.01, 0.2, 0.9):
            closed = eps + (1 - eps) * math.exp(a * q_inverse(eps) + b)
            assert math.exp(log_psi(eps, ss, p)) == pytest.approx(closed, rel=1e-14)

    def test_matches_quad_reference(self, samples):
        got = math.exp(log_psi(0.03, samples, P1))
        se = 3.0 / math.sqrt(samples.count)  # summand sd < 1
        assert got == pytest.approx(REF_PSI_003, abs=se)

    def test_log_psi_consistency(self, samples):
        # the shifted log-space sum against the plain mean of the summands
        mu, delta = samples.stats(P1)
        eps = 0.03
        summand = eps + (1 - eps) * np.exp(-P1.theta * P1.nm * (mu - delta * q_inverse(eps)))
        assert math.exp(log_psi(eps, samples, P1)) == pytest.approx(
            summand.mean(), rel=1e-12)

    def test_epsilon_to_one_limit(self, samples):
        # dropping every codeword: psi -> 1, throughput -> 0
        eps = 1 - 1e-9
        assert math.exp(log_psi(eps, samples, P1)) == pytest.approx(1.0, abs=1e-6)
        assert effective_rate_variable(eps, samples, P1).value < 1e-6

    def test_convex_on_grid(self, samples):
        grid = np.linspace(0.001, 0.999, 200)
        vals = np.array([math.exp(log_psi(e, samples, P1)) for e in grid])
        assert np.all(np.diff(vals, 2) > 0)

    def test_derivative_matches_finite_difference(self, samples):
        for eps in (1e-6, 0.01, 0.1, 0.5):
            x = q_inverse(eps)
            value, d1, d2 = log_psi_slopes(x, samples, P1)
            assert value == pytest.approx(log_psi(eps, samples, P1), rel=1e-12)
            _assert_slopes_match_differences(lambda x: log_psi_slopes(x, samples, P1), x, 1e-4)

    def test_derivative_with_clamping(self):
        # deep-fade atoms go negative-rate at tiny eps; the clamped psi is
        # still differentiable except at the kink, and FD must agree off it
        ss = SampleSet(np.array([[0.02], [1.5]] * 32))
        p = SystemParams(1.0, 50, 1, 0.05)
        x = q_inverse(0.001)
        clamped = log_psi_slopes(x, ss, p, clamp=True)
        assert clamped[0] == pytest.approx(log_psi(0.001, ss, p, clamp=True), rel=1e-12)
        assert clamped[1] != pytest.approx(log_psi_slopes(x, ss, p)[1], rel=1e-3)
        _assert_slopes_match_differences(
            lambda x: log_psi_slopes(x, ss, p, clamp=True), x, 1e-5)

    def test_overflowing_theta_raises(self, samples):
        with pytest.raises(DomainError, match=r"theta \* n \* m overflows"):
            SystemParams(1.0, 200, 1, 1e308)
        # theta * n * m = 1e308 is finite, but theta*n*m*R is not where |R| > 1.8
        huge = SystemParams(1.0, 1, 1, 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ComputationError):
                log_psi(1e-6, samples, huge)

    @pytest.mark.parametrize("kind, gains, params, k", [
        # -theta*n*m*R overflows to +inf on the two unit-gain rows only
        ("inf", [1e6, 1e6, 1.0, 1e6, 1.0], SystemParams(1.0, 1, 1, 1e308), 2),
    ])
    def test_non_finite_summand_names_its_realization(self, kind, gains, params, k):
        ss = SampleSet(np.array(gains)[:, np.newaxis])
        message = f"^non-finite throughput summand at realization {k}$"
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(ss.stats(params)).all()
            for estimate in (lambda: log_psi(1e-6, ss, params),
                             lambda: log_psi_slopes(q_inverse(1e-6), ss, params),
                             lambda: effective_rate_variable(1e-6, ss, params)):
                with pytest.raises(ComputationError, match=message):
                    estimate()

    def test_overflowing_snr_gain_rejected_by_stats(self):
        # SNR*z overflows on row 2, which would make its mu inf and its
        # delta nan; the statistics refuse it, quietly, before any
        # estimator sees it, and so do the prefixes' statistics at every m
        ss = SampleSet(np.array([[0.5, 1.0], [1.0, 0.1], [3.0, 0.2], [0.2, 0.3]]))
        params = SystemParams(1e308, 1, 2, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^snr_linear \* gain overflows.*1e\+308"):
                ss.stats(params)
            with pytest.raises(DomainError, match="snr_linear"):
                ss.prefixes([1, 2], params)
            with pytest.raises(DomainError, match="snr_linear"):
                rate_stats(np.array([3.0, 0.2]), params)

    def test_epsilon_domain(self, samples):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(DomainError):
                log_psi(bad, samples, P1)
        with pytest.raises(DomainError, match=r"^epsilon = 1e-310 is subnormal"):
            effective_rate_variable(1e-310, samples, P1)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                log_psi_slopes(bad, samples, P1)

    def test_theta_zero_rejected(self, samples):
        p0 = SystemParams(1.0, 200, 1, 0.0)
        with pytest.raises(DomainError):
            log_psi(0.03, samples, p0)
        with pytest.raises(DomainError):
            effective_rate_variable(0.03, samples, p0)
        with pytest.raises(DomainError):
            effective_rate_fixed(0.5, samples, p0)
        with pytest.raises(DomainError):
            log_psi_slopes(1.0, samples, p0)
        with pytest.raises(DomainError):
            log_phi_slopes(0.5, samples, p0)


class TestEffectiveRateVariable:
    def test_matches_quad_reference(self, samples):
        est = effective_rate_variable(0.03, samples, P1)
        assert isinstance(est, EffectiveRateEstimate)
        assert est.value == pytest.approx(REF_VALUE_VAR_003, abs=3 * est.std_error)
        assert 0 < est.std_error < 0.01

    def test_value_is_log_psi_scaled(self, samples):
        est = effective_rate_variable(0.03, samples, P1)
        assert est.value == pytest.approx(
            -log_psi(0.03, samples, P1) / (P1.theta * P1.nm), rel=1e-14)

    def test_nonincreasing_in_theta(self, samples):
        vals = [effective_rate_variable(
            0.03, samples, SystemParams(1.0, 200, 1, t)).value
            for t in (0.001, 0.01, 0.1, 1.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_small_theta_approaches_ergodic(self, samples):
        tiny = effective_rate_variable(
            0.03, samples, SystemParams(1.0, 200, 1, 1e-8)).value
        erg = ergodic_rate_variable(0.03, samples, P1).value
        assert tiny == pytest.approx(erg, abs=1e-5)

    def test_clamped_value_not_below_unclamped(self, samples):
        p = SystemParams(1.0, 50, 1, 0.05)
        for eps in (1e-5, 0.01):
            raw = effective_rate_variable(eps, samples, p).value
            cl = effective_rate_variable(eps, samples, p, clamp=True).value
            assert cl >= raw - 1e-15


class TestEffectiveRateFixed:
    @pytest.mark.parametrize("case", ["complement", "logaddexp", "zero-gain row"])
    def test_slopes_match_finite_differences(self, samples, case):
        if case == "complement":  # phi near 0.58: ln phi = log1p(-(1 - phi))
            ss, p, rate = samples, P1, 0.5
        elif case == "logaddexp":  # phi near 1e-35, where 1 - phi rounds to 1
            ss, rate = SampleSet.draw(Rayleigh(), 10, 20_000, 7), 0.04
            p = SystemParams(1.0, 200, 10, 1.0)
        else:  # a zero gain has delta = 0: its error probability is a step in R
            ss, p, rate = SampleSet(np.array([[0.0], [0.4], [1.5]] * 20)), P1, 0.5
        value = log_phi_slopes(rate, ss, p)[0]
        est = effective_rate_fixed(rate, ss, p)
        assert value == pytest.approx(-est.value * p.theta * p.nm, rel=1e-12)
        assert (value < math.log(0.1)) == (case == "logaddexp")
        _assert_slopes_match_differences(lambda r: log_phi_slopes(r, ss, p), rate, 1e-6)

    def test_phi_boundaries(self, samples):
        assert phi(0.0, samples, P1) == 1.0
        assert effective_rate_fixed(0.0, samples, P1).value == 0.0

    def test_phi_tends_to_one_at_huge_rate(self, samples):
        assert phi(1e3, samples, P1) == pytest.approx(1.0, abs=1e-12)
        assert effective_rate_fixed(1e3, samples, P1).value == pytest.approx(0.0, abs=1e-9)

    def test_matches_quad_reference(self, samples):
        est = effective_rate_fixed(0.5, samples, P1)
        assert est.value == pytest.approx(REF_VALUE_FIX_05, abs=3 * est.std_error)
        assert phi(0.5, samples, P1) == pytest.approx(REF_PHI_R05, abs=3e-3)

    def test_unimodal_shape_smoke(self, samples):
        lo = effective_rate_fixed(0.05, samples, P1).value
        mid = effective_rate_fixed(0.6, samples, P1).value
        hi = effective_rate_fixed(2.5, samples, P1).value
        assert mid > lo and mid > hi

    def test_all_success_degenerate_returns_rate(self):
        # gain so high the failure probability underflows to exactly zero:
        # every codeword is delivered and the value collapses to exactly R
        ss = SampleSet(np.full((16, 1), 1e6))
        p = SystemParams(1.0, 200, 1, 10.0)
        est = effective_rate_fixed(1.0, ss, p)
        assert est.value == 1.0 and est.std_error == 0.0

    def test_rare_failure_dominates_at_extreme_theta(self):
        # theta*n*m = 2000: even a ~1e-235 failure probability caps the
        # value at -ln(eps)/(theta n m), far below the nominal rate
        ss = SampleSet(np.full((16, 1), 50.0))
        p = SystemParams(1.0, 200, 1, 10.0)
        from blockrate.fbl import error_probability
        eps = error_probability(np.full(1, 50.0), p, 1.0)
        est = effective_rate_fixed(1.0, ss, p)
        assert 0.0 < eps < 1e-200
        assert est.value == pytest.approx(-math.log(eps) / (p.theta * p.nm), rel=1e-12)

    def test_rate_domain(self, samples):
        for bad in (-0.2, math.inf, math.nan):
            for fn in (effective_rate_fixed, ergodic_rate_fixed, phi, log_phi_slopes):
                with pytest.raises(DomainError, match="rate must be finite and >= 0"):
                    fn(bad, samples, P1)


class TestErgodic:
    def test_variable_matches_quad_reference(self, samples):
        est = ergodic_rate_variable(0.03, samples, P1)
        assert est.value == pytest.approx(REF_ERGODIC_003, abs=3 * est.std_error)

    def test_fixed_formula(self):
        ss = _atom_samples(1.0)
        est = ergodic_rate_fixed(0.7, ss, P1)
        st = rate_stats(np.array([1.0]), P1)
        from blockrate.special import q_function
        expect = (1 - q_function((st.mu - 0.7) / st.delta)) * 0.7
        assert est.value == pytest.approx(expect, rel=1e-14)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_clamp_never_lowers(self, samples):
        p = SystemParams(1.0, 50, 1, 0.0)
        raw = ergodic_rate_variable(1e-5, samples, p).value
        cl = ergodic_rate_variable(1e-5, samples, p, clamp=True).value
        assert cl > raw


@pytest.fixture(scope="module")
def rule():
    return SampleSet.laguerre()


class TestQuadratureOracle:
    """The ordinary estimators on the 200-node Gauss-Laguerre set."""

    def test_weights_sum_to_one(self, rule):
        assert rule.count == 200 and rule.m == 1
        assert abs(rule.weights.sum() - 1.0) <= 1e-12

    def test_variable_against_adaptive_quad(self, rule):
        got = effective_rate_variable(0.03, rule, P1)
        assert got.value == pytest.approx(REF_VALUE_VAR_003, rel=1e-3)
        assert math.exp(log_psi(0.03, rule, P1)) == pytest.approx(REF_PSI_003, rel=1e-3)

    def test_fixed_against_adaptive_quad(self, rule):
        got = effective_rate_fixed(0.5, rule, P1)
        assert got.value == pytest.approx(REF_VALUE_FIX_05, rel=1e-3)
        assert phi(0.5, rule, P1) == pytest.approx(REF_PHI_R05, rel=1e-3)

    def test_ergodic_against_adaptive_quad(self, rule):
        got = ergodic_rate_variable(0.03, rule, P1)
        assert got.value == pytest.approx(REF_ERGODIC_003, rel=1e-3)

    def test_ergodic_fixed_against_adaptive_quad(self, rule):
        got = ergodic_rate_fixed(0.5, rule, P1)
        assert got.value == pytest.approx(REF_ERGODIC_FIX_05, rel=1e-3)

    def test_no_sampling_error(self, rule):
        p0 = SystemParams(1.0, 200, 1, 0.0)
        estimates = [
            effective_rate_variable(0.03, rule, P1),
            effective_rate_variable(1e-6, rule, P1, clamp=True),
            effective_rate_fixed(0.5, rule, P1),
            ergodic_rate_variable(0.03, rule, p0),
            ergodic_rate_variable(1e-6, rule, p0, clamp=True),
            ergodic_rate_fixed(0.5, rule, p0),
        ]
        for est in estimates:
            assert est.std_error == 0.0

    def test_mc_within_three_standard_errors(self, samples, rule):
        est = effective_rate_variable(0.03, samples, P1)
        quad = effective_rate_variable(0.03, rule, P1).value
        assert abs(est.value - quad) <= 3 * est.std_error
        estf = effective_rate_fixed(0.5, samples, P1)
        quadf = effective_rate_fixed(0.5, rule, P1).value
        assert abs(estf.value - quadf) <= 3 * estf.std_error

    def test_m_restriction(self, rule):
        p2 = SystemParams(1.0, 50, 2, 0.01)
        with pytest.raises(DomainError):
            effective_rate_variable(0.03, rule, p2)
        with pytest.raises(DomainError):
            effective_rate_fixed(0.5, rule, p2)
        with pytest.raises(DomainError):
            ergodic_rate_fixed(0.5, rule, p2)

    def test_monte_carlo_sets_are_unweighted(self, samples):
        assert samples.weights is None and samples.prefix(1).weights is None


def test_deterministic_model_gives_zero_spread():
    ss = SampleSet(np.ones((32, 1)))
    est = effective_rate_variable(0.05, ss, P1)
    assert est.std_error == 0.0
