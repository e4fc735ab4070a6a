"""Effective-rate (throughput under a queue-tail constraint) estimation.

Variable-rate transmission with error target epsilon has throughput

    R_E = -(1/(theta*n*m)) * ln E_z[ eps + (1-eps)*exp(-theta*n*m*R(z,eps)) ]

where R(z,eps) is the finite-blocklength rate lower bound; the expectation
inside the log is psi.  Fixed-rate transmission replaces the summand with
eps(z,R) + (1-eps(z,R))*exp(-theta*n*m*R); that expectation is `phi`.  One
kernel, `_kernel`, computes both, with their first two derivatives, for all
six estimators.  theta = 0, where the formula divides by zero, is the
ergodic limit E[(1-eps)*R] (`ergodic_rate_variable`, `ergodic_rate_fixed`).

Expectations are sample averages over a SampleSet of channel realizations,
or weighted sums over a quadrature rule's (`SampleSet.laguerre`), reused
across all epsilon/rate/theta points (common random numbers), so
differences between nearby points reflect the parameters and not fresh
sampling noise — argmax detection depends on this.  Every expectation is
one deterministic pairwise sum over a fixed-layout array, so no result
depends on the thread count.  The kernel has the bits of the plain
expressions except at two ends, where exact forms keep ln psi and ln phi
within 4.2e-16 relative of 50-digit references.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import log_ndtr, roots_laguerre

from .channel import Rayleigh, SystemParams, _check_gains, _on_row_blocks, draw_gain_matrix
from .errors import ComputationError, DomainError
from .fbl import (
    _check_epsilon,
    _check_rate,
    _error_terms,
    _rate_at,
    error_probability_arrays,
    rate_lower_bound_arrays,
    rate_stats_widths,
)
from .special import SQRT_2PI, q_function, q_inverse

_QUAD_NODES = 200


class SampleSet:
    """Common-random-numbers set of channel realizations.

    `gains` is a read-only (count, m) matrix, one realization per row.  Rate
    statistics (mu, delta) are cached per (snr_linear, n), since optimizers
    re-evaluate the same set at many epsilon/rate points.  `prefix(m)` returns
    a set whose gains are a read-only view of the leading m blocks of each
    row, neither copied nor validated again; `prefixes` builds several, with
    their statistics.  `weights` is None for a Monte Carlo set, whose rows
    are equally likely; a quadrature set (`laguerre`) carries one weight per
    row instead.  The sets `draw`, `prefix` and `laguerre` build skip the
    gains check.
    """

    def __init__(self, gains: np.ndarray):
        gains = np.ascontiguousarray(gains, dtype=float)
        if gains.ndim != 2 or gains.shape[0] < 1 or gains.shape[1] < 1:
            raise DomainError(f"gains must be a (count, m) matrix, got shape {gains.shape}")
        _check_gains(gains)
        self._init(gains)

    def _init(self, gains: np.ndarray, weights: np.ndarray | None = None) -> "SampleSet":
        """This set over gains and weights, both frozen, with no statistics."""
        for a in (gains, weights):
            if a is not None:
                a.setflags(write=False)
        self.gains = gains
        self.weights = weights
        self._stats_cache: dict[tuple[float, int], tuple[np.ndarray, np.ndarray]] = {}
        return self

    @property
    def count(self) -> int:
        return self.gains.shape[0]

    @property
    def m(self) -> int:
        return self.gains.shape[1]

    @classmethod
    def draw(cls, model: Rayleigh, m: int, count: int, seed: int) -> "SampleSet":
        """The gains `draw_gain_matrix` gives: each is -log1p(-u) with u in
        [0, 1), so finite and >= 0, and none is checked again."""
        return object.__new__(cls)._init(draw_gain_matrix(model, m, count, seed))

    @classmethod
    def laguerre(cls) -> "SampleSet":
        """The 200-node Gauss-Laguerre rule for m = 1 Rayleigh gains: E_z f(z)
        for z ~ Exponential(1) is sum_i w_i f(x_i) over the Laguerre nodes
        x_i (positive and finite) and weights w_i (which sum to 1)."""
        x, w = roots_laguerre(_QUAD_NODES)
        return object.__new__(cls)._init(x[:, np.newaxis], w)

    def prefix(self, m: int) -> "SampleSet":
        """Set built from the first m blocks of each realization."""
        if not 1 <= m <= self.m:
            raise DomainError(f"prefix length {m} outside 1..{self.m}")
        if m == self.m:
            return self
        # a view of validated gains
        return object.__new__(SampleSet)._init(self.gains[:, :m], self.weights)

    def prefixes(self, m_values: Sequence[int],
                 params: SystemParams) -> dict[int, "SampleSet"]:
        """prefix(m) for each distinct m, with stats cached at params' (snr, n).

        One running sum over the master's blocks gives every prefix its
        statistics, bit for bit those `stats` computes on that prefix alone,
        and builds no (count, m) matrix of per-block terms.  The cached arrays
        are read-only once filled: the kernels write only their own buffers.
        """
        subs = {m: self.prefix(m) for m in sorted(set(m_values))}
        key = (params.snr_linear, params.n)
        todo = [m for m, sub in subs.items() if key not in sub._stats_cache]
        if todo:
            stats = {m: (np.empty(self.count), np.empty(self.count)) for m in todo}
            _on_row_blocks(self.count, max(todo), lambda lo, hi: rate_stats_widths(
                self.gains[lo:hi], todo, params.snr_linear, params.n,
                {m: (mu[lo:hi], delta[lo:hi]) for m, (mu, delta) in stats.items()}))
            for m in todo:
                for a in stats[m]:
                    a.setflags(write=False)
                subs[m]._stats_cache[key] = stats[m]
        return subs

    def stats(self, params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
        """(mu, delta) arrays for every realization, cached."""
        if params.m != self.m:
            raise DomainError(f"params.m={params.m} does not match sample set m={self.m}")
        key = (params.snr_linear, params.n)
        if key not in self._stats_cache:
            self.prefixes([self.m], params)
        return self._stats_cache[key]


@dataclass(frozen=True)
class EffectiveRateEstimate:
    """Throughput estimate in bits per channel use, with its Monte Carlo
    standard error, 0 on a quadrature set, which has no sampling error."""

    value: float
    std_error: float


def _mean(samples: SampleSet, y: np.ndarray) -> float:
    """E[y] over the set: the sample mean, or the weighted sum of a rule,
    a pairwise sum rather than BLAS's dot, whose bits follow its thread count."""
    w = samples.weights
    return float(np.mean(y) if w is None else np.multiply(w, y).sum())


def _spread(samples: SampleSet, y: np.ndarray, mean: float) -> float:
    """Sample standard deviation of y about mean = _mean(samples, y), bit for
    bit np.std(y, ddof=1), with y overwritten by its squared deviations; 0
    for a quadrature set or one row.

    Call it after the last other read of y: it builds no temporary of y's size.
    """
    if samples.weights is not None or y.size < 2:
        return 0.0
    y -= mean
    y *= y
    return math.sqrt(np.sum(y) / (y.size - 1))


# the thresholds of `_kernel`'s end forms, psi's and phi's
_COMPLEMENT_BELOW, _LOG_FORM_BELOW = 2.0 ** -14, sys.float_info.min


class _Expectation(NamedTuple):
    """`_kernel`'s ln V, its two slopes and the throughput's standard error."""

    log: float
    d1: float = 0.0
    d2: float = 0.0
    std_error: float = 0.0


def _density_terms(z: np.ndarray, spread: np.ndarray, shift: float, p: np.ndarray) -> None:
    """sqrt(2*pi) * pdf(z)/spread into p, and that times z/spread over z,
    both times exp(-shift)."""
    np.multiply(z, z, out=p)
    p *= -0.5
    p -= shift
    np.exp(p, out=p)
    p /= spread
    z *= p
    z /= spread


def _kernel(samples: SampleSet, params: SystemParams, arg: float,
            eps_pair: tuple[float, float] | None = None, clamp: bool = False,
            want: str = "log") -> _Expectation:
    """ln V = ln E[A + B*e], e = exp(-T) and A + B = 1 on every row; with
    want "slopes" also its two derivatives in arg, with want "spread" the
    standard error of the throughput -ln(V)/c, c = theta*n*m.

    psi passes eps_pair = (eps, 1-eps) at arg = x = Q^{-1}(eps), so T =
    c*(mu - delta*x) varies by row; phi passes arg = R, so A = Q(z), z =
    (mu - R)/delta, varies by row.  With ' the derivative in arg,

        V'  = E[A'*(1-e)] - E[B*T'*e]
        V'' = E[A''*(1-e)] + 2*E[A'*T'*e] + E[B*T'^2*e]

    and ln V has slopes V'/V and V''/V - (V'/V)^2.  Only the row-varying
    factor is summed, times exp(-L) for one shift L: psi sums e with L =
    max(0, max(-T)) and combines the means with eps and 1-eps as scalars
    (its spread is that of the summand eps*exp(-L) + (1-eps)*e, row by
    row); phi sums eps, 1-eps (its own sum), p = pdf(z)/delta and z*p/delta
    with L = 0 and divides them by V in log space.  phi's ln V is
    log1p(-E[1-eps]*(1-e)) below 0.9, else logaddexp(ln E[eps],
    ln E[1-eps] - T).  Two ends select exact forms instead: psi, where
    max(-T) and |E[1-e]| are at most _COMPLEMENT_BELOW (e rounds to 1),
    takes log1p(E[B*expm1(-T)]), with E[1-e] and the spread from
    -expm1(-T); phi, where E[eps] is below _LOG_FORM_BELOW (subnormal eps
    have cost the mean its digits), takes ln eps = log_ndtr(-z) per row and
    sums eps, p and z*p/delta on L = max(max ln eps, ln E[1-eps] - T).
    phi's per-row terms on L = 0 go in `channel._on_row_blocks` blocks; the
    log form, rare, takes z again in one serial pass.
    """
    if params.theta <= 0.0:
        raise DomainError("theta must be > 0 here; use ergodic_rate_* for the theta = 0 limit")
    mu, delta = samples.stats(params)
    c, root_n, se = params.theta * params.nm, math.sqrt(samples.count), 0.0
    if eps_pair is not None:
        eps, keep = eps_pair
        rates = functools.partial(_rate_at, mu, delta, arg, clamp)
        # one buffer holds R, -T - L, then e, delta*e and delta^2*e on the shift
        row = rates()
        pinned = row == 0.0 if clamp and want == "slopes" else None  # no slope in x
        np.multiply(row, -c, out=row)
        shift = max(float(row.max()), 0.0)
        # with the shift finite every row - shift is at most 0, so its exp
        # is finite; else a row is +inf (the statistics are finite, so no
        # row is nan), and the first such row names the realization
        if not math.isfinite(shift):
            raise ComputationError(
                f"non-finite throughput summand at realization {int(row.argmax())}")
        if shift:
            row -= shift
        np.exp(row, out=row)
        floor, mean_e = math.exp(-shift), _mean(samples, row)
        lost = floor - mean_e  # E[1 - e] on the shift
        if max(shift, abs(lost)) <= _COMPLEMENT_BELOW:
            r = rates()
            row = np.expm1(np.multiply(r, -c, out=r), out=row)
            shift, lost = 0.0, -_mean(samples, row)
            v, log = 1.0 - keep * lost, math.log1p(-keep * lost)
            if want == "slopes":
                row += 1.0  # e = 1 + expm1(-T)
            elif want == "spread":  # of expm1(-T)/c, whose squares do not underflow
                np.divide(row, c, out=row)
                se = keep * _spread(samples, row, _mean(samples, row)) / (root_n * v)
        else:
            v = eps * floor + keep * mean_e
            log = shift + math.log(v)
            if want == "spread":  # of the summand eps*floor + keep*e, row by row
                u = np.add(np.multiply(row, keep, out=row), eps * floor, out=row)
                mean_u = _mean(samples, u)
                se = _spread(samples, u, mean_u) / (root_n * mean_u) / c
        if want == "slopes":
            if pinned is not None:
                row[pinned] = 0.0
            mean_w = _mean(samples, np.multiply(row, delta, out=row))
            mean_ww = _mean(samples, np.multiply(row, delta, out=row))
            g = math.exp(-0.5 * arg * arg) / SQRT_2PI
            a1, a2 = -g * lost, arg * g * lost
            b1, ab, b2 = -keep * c * mean_w, g * c * mean_w, keep * c * c * mean_ww
    else:
        slopes, count = want == "slopes", samples.count
        # each row block fills its own rows of eps and z and, for slopes,
        # sqrt(2*pi) * p and, over z, sqrt(2*pi) * z*p/delta
        eps, zrow = np.empty(count), np.empty(count)
        p = np.empty(count) if slopes else None

        def sweep(lo: int, hi: int) -> None:
            rows = slice(lo, hi)
            _, z, spread = _error_terms(mu[rows], delta[rows], arg, (eps[rows], zrow[rows]))
            if slopes:
                _density_terms(z, spread, 0.0, p[rows])

        _on_row_blocks(count, 1, sweep)
        row, shift, t, decay = eps, 0.0, c * arg, -math.expm1(-c * arg)
        # E[1 - eps] is its own sum: 1 - E[eps] drops the last bits of the
        # weights, or of every eps near 1.  The spread reads eps after it,
        # so there 1 - eps goes over z
        a = _mean(samples, eps)
        b = _mean(samples, np.subtract(1.0, eps, out=zrow if want == "spread" else eps))
        if decay * b < 0.9:
            log = math.log1p(-decay * b)
        elif a >= _LOG_FORM_BELOW:
            log = float(np.logaddexp(math.log(a), math.log(b) - t))
        else:  # rare: z again, serially, with every term on the shift
            _, z, spread = _error_terms(mu, delta, arg, (eps, zrow))
            row = log_ndtr(np.negative(z, out=eps), out=eps)
            shift = max(float(row.max()), math.log(b) - t)
            row -= shift
            a = _mean(samples, np.exp(row, out=row))
            log = shift + math.log(a + b * math.exp(-t - shift))
            if slopes:
                _density_terms(z, spread, shift, p)
        if want == "spread":
            se = decay * _spread(samples, row, a) / (root_n * math.exp(log - shift) * c)
        if slopes:
            dens, curv = _mean(samples, p) / SQRT_2PI, _mean(samples, zrow) / SQRT_2PI

            def over_v(s: float, by: float) -> float:  # s*exp(-by), by ~ ln V
                return math.copysign(math.exp(math.log(abs(s)) - by), s) if s else 0.0

            v, kept = 1.0, over_v(b, log + t)  # E[B*e]/V
            a1, a2 = decay * over_v(dens, log - shift), decay * over_v(curv, log - shift)
            b1, ab, b2 = c * kept, c * over_v(dens, log - shift + t), c * c * kept
    if want == "slopes":
        d1 = (a1 - b1) / v
        return _Expectation(log, d1, (a2 + 2.0 * ab + b2) / v - d1 * d1)
    return _Expectation(log, std_error=se)


def log_psi(epsilon: float, samples: SampleSet, params: SystemParams,
            clamp: bool = False) -> float:
    """ln psi, finite even where psi overflows a float.  psi is strictly
    convex in epsilon; the optimizer minimizes it through `log_psi_slopes`."""
    _check_epsilon(epsilon)
    return _kernel(samples, params, q_inverse(epsilon), (epsilon, 1.0 - epsilon), clamp).log


def log_psi_slopes(x: float, samples: SampleSet, params: SystemParams,
                   clamp: bool = False) -> tuple[float, float, float]:
    """ln psi at eps = Q(x), with its first and second derivatives in x.

    In x = Q^{-1}(eps) the rate bound R = mu - delta*x is affine, so one
    kernel pass gives all three; with e = exp(-c*R) and g = pdf(x),

        psi'  = -g*(1 - E[e]) + (1-eps)*c*E[delta*e]
        psi'' = x*g*(1 - E[e]) + 2*g*c*E[delta*e] + (1-eps)*c^2*E[delta^2*e]

    Rows pinned at zero rate by clamping add no slope.  1 - eps is Q(-x),
    exact even where eps is within rounding of 1.
    """
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    return _kernel(samples, params, x, (q_function(x), q_function(-x)), clamp, "slopes")[:3]


def effective_rate_variable(epsilon: float, samples: SampleSet, params: SystemParams,
                            clamp: bool = False) -> EffectiveRateEstimate:
    """Throughput -ln(psi)/(theta*n*m) of variable-rate transmission at error
    target epsilon, with the delta-method standard error of the psi summand."""
    _check_epsilon(epsilon)
    k = _kernel(samples, params, q_inverse(epsilon), (epsilon, 1.0 - epsilon), clamp, "spread")
    return EffectiveRateEstimate(-k.log / (params.theta * params.nm), k.std_error)


def phi(rate: float, samples: SampleSet, params: SystemParams) -> float:
    """Inner expectation E[eps(z,R) + (1-eps(z,R))*exp(-theta*n*m*R)].

    Equals 1 at R = 0 and tends to 1 as R -> inf; its unique interior
    minimizer is the optimal fixed rate.
    """
    _check_rate(rate)
    return math.exp(_kernel(samples, params, rate).log)


def effective_rate_fixed(rate: float, samples: SampleSet, params: SystemParams) -> EffectiveRateEstimate:
    """Throughput -ln(phi)/(theta*n*m) of fixed-rate transmission at the
    given rate, with the delta-method standard error of the phi summand."""
    _check_rate(rate)
    k = _kernel(samples, params, rate, want="spread")
    return EffectiveRateEstimate(-k.log / (params.theta * params.nm), k.std_error)


def log_phi_slopes(rate: float, samples: SampleSet, params: SystemParams
                   ) -> tuple[float, float, float]:
    """ln phi at the given rate, with its first and second derivatives in R.

    Each eps = Q(z), z = (mu - R)/delta, has first and second derivatives
    p = pdf(z)/delta and z*p/delta in R; with P, Z their means and t = c*R,

        phi'  = P*(1 - exp(-t)) - c*E[1-eps]*exp(-t)
        phi'' = Z*(1 - exp(-t)) + 2*c*P*exp(-t) + c^2*E[1-eps]*exp(-t)

    The slopes stay resolved where phi is far below 1e-16 or underflows.
    Rows with delta = 0 are steps in R and add no slope.
    """
    _check_rate(rate)
    return _kernel(samples, params, rate, want="slopes")[:3]


def _ergodic(samples: SampleSet, y: np.ndarray, scale: float) -> EffectiveRateEstimate:
    """E[scale*y] with its standard error, overwriting y."""
    y *= scale
    mean_y = _mean(samples, y)
    return EffectiveRateEstimate(mean_y, _spread(samples, y, mean_y) / math.sqrt(y.size))


def ergodic_rate_variable(epsilon: float, samples: SampleSet, params: SystemParams,
                          clamp: bool = False) -> EffectiveRateEstimate:
    """theta -> 0 limit of variable-rate throughput: E[(1-eps)*R(z,eps)].

    params.theta is ignored; this is the no-queue-constraint (ergodic) value.
    """
    _check_epsilon(epsilon)
    mu, delta = samples.stats(params)
    return _ergodic(samples, rate_lower_bound_arrays(mu, delta, epsilon, clamp), 1.0 - epsilon)


def ergodic_rate_fixed(rate: float, samples: SampleSet, params: SystemParams) -> EffectiveRateEstimate:
    """theta -> 0 limit of fixed-rate throughput: E[(1-eps(z,R))]*R."""
    _check_rate(rate)
    eps_z = error_probability_arrays(*samples.stats(params), rate)
    return _ergodic(samples, np.subtract(1.0, eps_z, out=eps_z), rate)

