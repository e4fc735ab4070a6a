"""Gaussian Q-function / inverse / inverse-derivative against outside oracles.

Reference values were computed with mpmath at 40 significant digits (50 for
the far-tail inverses): Q(x) = erfc(x/sqrt(2))/2 and the inverse by
root-finding on that expression.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from blockrate import special
from blockrate.channel import Rayleigh, SystemParams
from blockrate.effective_rate import SampleSet, effective_rate_variable
from blockrate.errors import DomainError
from blockrate.fbl import rate_lower_bound
from blockrate.special import SQRT_2PI, q_function, q_inverse, q_inverse_deriv

# (x, Q(x)) pairs, mpmath 40-digit evaluation rounded to double
Q_TABLE = [
    (0.0, 0.5),
    (1.0, 0.15865525393145705),
    (2.3263478740408408, 0.010000000000000008),
    (-1.281551565544600467, 0.9),
    (5.9978070150076869, 1e-9),
]

# (p, Q^{-1}(p)) pairs from mpmath root-finding
QINV_TABLE = [
    (0.5, 0.0),
    (0.01, 2.3263478740408411),
    (1e-9, 5.9978070150076869),
    (0.9, -1.281551565544600467),
    (1e-20, 9.262340089798407),
    (1e-40, 13.31092137142517),
    (1e-100, 21.273453560965326),
    (1e-300, 37.0470962993612),
    (1.499887501660316e-300, 37.036160082091214),
]


@pytest.mark.parametrize("x,expected", Q_TABLE)
def test_q_function_reference_values(x, expected):
    assert q_function(x) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("p,expected", QINV_TABLE)
def test_q_inverse_reference_values(p, expected):
    # within 2 units of the larger of x's own rounding and the move in x
    # that p's rounding makes: 2 ulps of x in the tail
    pdf = math.exp(-0.5 * expected * expected) / SQRT_2PI
    unit = max(math.ulp(expected), math.ulp(p) / pdf)
    assert abs(q_inverse(p) - expected) <= 2 * unit


def test_q_inverse_stops_on_its_own_step(monkeypatch):
    # Newton from Acklam's seed converges in a step or two; a loop that
    # bisects away from a converged root takes tens of evaluations
    calls = []

    def counted(x):
        calls.append(x)
        return q_function(x)

    monkeypatch.setattr(special, "q_function", counted)
    grid = np.concatenate([np.geomspace(sys.float_info.min, 0.5, 3000),
                           1.0 - np.geomspace(1e-16, 0.5, 1000)])
    for p in grid:
        calls.clear()
        q_inverse(p)
        assert len(calls) <= 4, p


def test_q_function_vectorized():
    x = np.array([-2.0, 0.0, 1.0, 3.0])
    out = q_function(x)
    assert out.shape == x.shape
    np.testing.assert_allclose(out[1], 0.5, rtol=0, atol=0)
    # matches the scalar path entry by entry
    for xi, oi in zip(x, out):
        assert q_function(float(xi)) == oi


@pytest.mark.parametrize("shape", [(1_000_000,), (500, 40), ()])
def test_q_function_is_half_erfc_bit_for_bit(shape):
    """The in-place array path keeps the bits of 0.5*erfc(x/sqrt(2)), from
    the centre to both saturated tails, and leaves its input untouched."""
    x = np.random.default_rng(7).normal(0.0, 20.0, size=shape)
    before = x.copy()
    q = q_function(x)
    assert np.array_equal(q, 0.5 * erfc(x / math.sqrt(2.0)))
    assert np.array_equal(x, before)
    assert isinstance(q, float) if x.ndim == 0 else q.shape == x.shape


def test_q_function_monotone_decreasing():
    x = np.linspace(-8.0, 8.0, 400)
    q = q_function(x)
    assert np.all(np.diff(q) < 0)


@pytest.mark.parametrize("x", np.linspace(-4.0, 6.0, 21).tolist())
def test_round_trip_from_x(x):
    assert q_inverse(q_function(x)) == pytest.approx(x, abs=1e-11)


@pytest.mark.parametrize("x", [-6.0, -5.5, -5.0, -4.5])
def test_round_trip_from_x_far_left(x):
    # Q(x) is within one ulp of 1 here, so the recoverable x-precision is
    # capped at ulp(1)/2 * sqrt(2*pi) * exp(x^2/2) ~ 9e-9 at x = -6 for any
    # double-precision implementation; the achieved error must stay at that
    # information bound, not at machine precision.
    cap = 1.2 * (1.1102230246251565e-16 / 2) * SQRT_2PI * math.exp(0.5 * x * x)
    assert abs(q_inverse(q_function(x)) - x) <= max(cap, 1e-11)


@pytest.mark.parametrize("x", np.linspace(-6.0, 6.0, 49).tolist())
def test_round_trip_in_probability(x):
    # the direction that is exact in doubles: p -> x -> p
    p = q_function(x)
    assert q_function(q_inverse(p)) == pytest.approx(p, abs=1e-10)


@pytest.mark.parametrize("p", [1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-9])
def test_round_trip_from_p(p):
    assert q_function(q_inverse(p)) == pytest.approx(p, rel=1e-12)


@given(st.floats(min_value=sys.float_info.min, max_value=1.0 - 1e-13, exclude_max=True))
@settings(max_examples=200, deadline=None)
@example(1.499887501660316e-300)
def test_round_trip_property(p):
    x = q_inverse(p)
    assert math.isfinite(x)
    assert q_function(x) == pytest.approx(p, rel=1e-9, abs=0.0)


@given(st.floats(min_value=1e-12, max_value=0.5), st.floats(min_value=1e-12, max_value=0.5))
@settings(max_examples=100, deadline=None)
@example(1e-12, math.nextafter(1e-12, 1.0))
def test_q_inverse_decreasing_property(p1, p2):
    # Q^{-1} is strictly decreasing, but p one ulp apart can map to one
    # double: at 1e-12 the exact inverses differ by 2.8e-17, under the
    # 8.9e-16 ulp of x = 7.03, and both round to 7.034483825301132.  So the
    # decrease is only required to be strict once p moves by 1e-6 relative.
    lo, hi = min(p1, p2), max(p1, p2)
    assert q_inverse(lo) >= q_inverse(hi)
    if hi >= lo * (1.0 + 1e-6):
        assert q_inverse(lo) > q_inverse(hi)


def test_q_inverse_deriv_reference_value():
    # mpmath: d/dp Q^{-1}(p) at p = 0.01 is -sqrt(2*pi)*exp(x^2/2), x = Q^{-1}(0.01)
    assert q_inverse_deriv(0.01) == pytest.approx(-37.520436157295173, rel=1e-12)
    assert q_inverse_deriv(0.5) == pytest.approx(-SQRT_2PI, rel=1e-14)


@pytest.mark.parametrize("p", [0.001, 0.01, 0.1, 0.5, 0.9, 0.999])
def test_q_inverse_deriv_matches_finite_difference(p):
    h = 1e-7 * p
    fd = (q_inverse(p + h) - q_inverse(p - h)) / (2 * h)
    assert q_inverse_deriv(p) == pytest.approx(fd, rel=1e-5)


def test_q_inverse_deriv_always_negative():
    for p in np.geomspace(1e-9, 0.5, 30):
        assert q_inverse_deriv(p) < 0
        assert q_inverse_deriv(1 - p) < 0


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0, float("nan")])
def test_q_inverse_domain(bad):
    with pytest.raises(DomainError):
        q_inverse(bad)


def test_q_inverse_takes_any_real_scalar():
    # p is taken as float(p), so a 0-d array or a numpy scalar gives the
    # float that p = 0.01 gives
    ref = q_inverse(0.01)
    for p in (np.array(0.01), np.float64(0.01)):
        assert type(q_inverse(p)) is float and q_inverse(p) == ref
    assert q_inverse_deriv(np.array(0.01)) == q_inverse_deriv(0.01)
    with pytest.raises(DomainError):
        q_inverse(np.array(1.0))
    z, params = np.ones(2), SystemParams(10.0, 50, 2, 0.01)
    assert rate_lower_bound(z, params, np.array(0.01)) == rate_lower_bound(z, params, 0.01)
    ss = SampleSet.draw(Rayleigh(), 2, 100, seed=1)
    assert (effective_rate_variable(np.array(0.01), ss, params)
            == effective_rate_variable(0.01, ss, params))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_q_function_domain(bad):
    with pytest.raises(DomainError):
        q_function(bad)


def test_far_tail_round_trip():
    # p near underflow: the seed's lower branch keeps precision without 1-p
    for p in (1e-100, 1e-300):
        x = q_inverse(p)
        assert q_function(x) == pytest.approx(p, rel=1e-9, abs=0.0)
