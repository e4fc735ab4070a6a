"""Effective-rate (throughput under a queue-tail constraint) estimation.

Variable-rate transmission with error target epsilon has throughput

    R_E = -(1/(theta*n*m)) * ln E_z[ eps + (1-eps)*exp(-theta*n*m*R(z,eps)) ]

where R(z,eps) is the finite-blocklength rate lower bound; the expectation
inside the log is psi.  Fixed-rate transmission replaces the summand with
eps(z,R) + (1-eps(z,R))*exp(-theta*n*m*R); that expectation is `phi`.

Expectations are sample averages over a SampleSet of channel realizations.
One SampleSet is reused across all epsilon/rate/theta evaluation points
(common random numbers), so differences between nearby points reflect the
parameters and not fresh sampling noise — argmax detection depends on this.
Exponents are accumulated in log space: psi summands are shifted by the
largest exponent before exponentiation (negative-rate realizations can push
theta*n*m*|R| past the overflow point), and phi is combined through its
complement / logaddexp so both the R -> 0 and theta*n*m*R >> 1 regimes keep
full precision.  `log_psi_slopes` and `log_phi_slopes` return ln(psi) and
ln(phi) with their first two derivatives from the same single pass; the
optimizers search on them.

Every expectation is reduced by a single deterministic pairwise summation
over a fixed-layout array, so results are independent of how many worker
threads drive the surrounding sweep.  Each kernel computes in one or two
fresh (count,) buffers, in place, with operand orders that keep the bits of
the plain expressions; the cached statistics are read-only and never
written.  A set may instead carry row weights: then each expectation is the
weighted sum over its rows, and the standard error is 0.

theta = 0 is not evaluated through the formula above (it divides by theta);
`ergodic_rate_variable` / `ergodic_rate_fixed` compute the limiting
throughput E[(1-eps)*R] directly.

For m = 1 under Rayleigh fading, `SampleSet.laguerre` builds the 200-node
Gauss-Laguerre rule as such a weighted set (the exponential weight matches
the gain density), so the same estimators give a quadrature oracle that
cross-checks the Monte Carlo path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_laguerre

from .channel import (
    Rayleigh,
    SystemParams,
    _check_gains,
    _fill_gains,
    _gain_buffer,
    _run_rows,
)
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
from .special import SQRT_2PI, q_function

_QUAD_NODES = 200
# rows per pooled draw or statistics task.  On fig2's (1e5, 50) master with
# two workers, 8192 and 16384 timed alike; 4096, 32768 and one unsplit block
# were 10-75% slower.
_BLOCK_ROWS = 8192


def _on_row_blocks(count: int, task: Callable[[int, int], None]) -> None:
    """task(lo, hi) for each block of _BLOCK_ROWS rows of [0, count), on the
    worker pool; each task writes only its own rows."""
    _run_rows([functools.partial(task, lo, min(lo + _BLOCK_ROWS, count))
               for lo in range(0, count, _BLOCK_ROWS)])


class SampleSet:
    """Common-random-numbers set of channel realizations.

    `gains` is a read-only (count, m) matrix, one realization per row.  Rate
    statistics (mu, delta) are cached per (snr_linear, n), since optimizers
    re-evaluate the same set at many epsilon/rate points.  `prefix(m)` returns
    a set whose gains are a read-only view of the leading m blocks of each
    row, neither copied nor validated again.  Sweeps over m draw one master
    set at the largest m and compare prefixes, so per-realization gains are
    common across the compared block counts; `prefixes` builds them with
    their statistics, all from one walk over the master's blocks.

    `draw` fills one padded (count, 4*ceil(m/4)) master, as `draw_gain_matrix`
    would, and its gains are the [:, :m] view.  The draw and every statistics
    walk run in blocks of _BLOCK_ROWS rows on the worker pool, each block in
    place on its own rows; the draw is counter-based and the statistics are
    per-row sums, so the bits are those of one serial pass at any thread
    count.

    `weights` is None for a Monte Carlo set, whose rows are equally likely;
    a quadrature set (`laguerre`) carries one weight per row instead.
    """

    def __init__(self, gains: np.ndarray):
        gains = np.ascontiguousarray(gains, dtype=float)
        if gains.ndim != 2 or gains.shape[0] < 1 or gains.shape[1] < 1:
            raise DomainError(f"gains must be a (count, m) matrix, got shape {gains.shape}")
        _check_gains(gains)
        self._init(gains, None)

    def _init(self, gains: np.ndarray, weights: np.ndarray | None) -> None:
        gains.setflags(write=False)
        self.gains = gains
        self.weights = weights
        self._stats_cache: dict[tuple[float, int], tuple[np.ndarray, np.ndarray]] = {}

    @property
    def count(self) -> int:
        return self.gains.shape[0]

    @property
    def m(self) -> int:
        return self.gains.shape[1]

    @classmethod
    def draw(cls, model: Rayleigh, m: int, count: int, seed: int) -> "SampleSet":
        """The gains `draw_gain_matrix` gives, drawn block by block into the
        padded master."""
        master = _gain_buffer(model, m, count)
        # each gain is -log1p(-u) with u in [0, 1): finite and >= 0, unchecked
        _on_row_blocks(count, lambda lo, hi: _fill_gains(m, seed, lo, master[lo:hi]))
        drawn = object.__new__(cls)
        drawn._init(master[:, :m], None)
        return drawn

    @classmethod
    def laguerre(cls) -> "SampleSet":
        """The 200-node Gauss-Laguerre rule for m = 1 Rayleigh gains.

        E_z f(z) for z ~ Exponential(1) is sum_i w_i f(x_i) over the
        Laguerre nodes x_i and weights w_i (which sum to 1).
        """
        x, w = roots_laguerre(_QUAD_NODES)
        rule = cls(x[:, np.newaxis])
        w.setflags(write=False)
        rule.weights = w
        return rule

    def prefix(self, m: int) -> "SampleSet":
        """Set built from the first m blocks of each realization."""
        if not 1 <= m <= self.m:
            raise DomainError(f"prefix length {m} outside 1..{self.m}")
        if m == self.m:
            return self
        sub = object.__new__(SampleSet)
        sub._init(self.gains[:, :m], self.weights)  # a view of validated gains
        return sub

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
            _on_row_blocks(self.count, lambda lo, hi: rate_stats_widths(
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
    """Throughput estimate in bits per channel use.

    std_error is the Monte Carlo standard error; it is 0 on a quadrature set,
    which has no sampling error.
    """

    value: float
    std_error: float


def _mean(samples: SampleSet, y: np.ndarray) -> float:
    """E[y] over the set: the sample mean, or the weighted sum of a rule,
    a pairwise sum rather than BLAS's dot, whose bits follow its thread count."""
    w = samples.weights
    return float(np.mean(y) if w is None else np.multiply(w, y).sum())


def _spread(samples: SampleSet, y: np.ndarray) -> float:
    """Sample standard deviation of y, bit for bit np.std(y, ddof=1), with y
    overwritten by its squared deviations; 0 for a quadrature set or one row.

    Call it after the last other read of y: it builds no temporary of y's size.
    """
    if samples.weights is not None or y.size < 2:
        return 0.0
    y -= np.mean(y)
    y *= y
    return math.sqrt(np.sum(y) / (y.size - 1))


def _check_theta_positive(params: SystemParams) -> None:
    if params.theta <= 0.0:
        raise DomainError(
            "theta must be > 0 here; use ergodic_rate_* for the theta = 0 limit")


def _rate_exponentials(r: np.ndarray, params: SystemParams) -> tuple[np.ndarray, float]:
    """exp(-theta*n*m*r - L) per row, written over r and returned, and the
    shift L >= 0 that keeps each <= 1.  Pass a fresh array: r is consumed."""
    y = np.multiply(r, -params.theta * params.nm, out=r)  # r's buffer, reused below
    shift = max(float(y.max()), 0.0)
    y -= shift
    e = np.exp(y, out=y)
    if not np.all(np.isfinite(e)):
        bad = int(np.flatnonzero(~np.isfinite(e))[0])
        raise ComputationError(f"non-finite throughput summand at realization {bad}")
    return e, shift


def _psi_summands(epsilon: float, samples: SampleSet, params: SystemParams,
                  clamp: bool) -> tuple[np.ndarray, float, float]:
    """Shifted summands u, their mean and ln psi = L + ln(mean(u)), for the
    shift L that keeps each u <= 1."""
    _check_epsilon(epsilon)
    _check_theta_positive(params)
    mu, delta = samples.stats(params)
    e, shift = _rate_exponentials(rate_lower_bound_arrays(mu, delta, epsilon, clamp), params)
    e *= 1.0 - epsilon
    e += epsilon * math.exp(-shift)
    mean_e = _mean(samples, e)
    return e, mean_e, shift + math.log(mean_e)


def log_psi(epsilon: float, samples: SampleSet, params: SystemParams,
            clamp: bool = False) -> float:
    """ln psi, finite even where psi overflows a float.  psi is strictly
    convex in epsilon; the optimizer minimizes it through `log_psi_slopes`."""
    return _psi_summands(epsilon, samples, params, clamp)[2]


def log_psi_slopes(x: float, samples: SampleSet, params: SystemParams,
                   clamp: bool = False) -> tuple[float, float, float]:
    """ln psi at eps = Q(x), with its first and second derivatives in x.

    In x = Q^{-1}(eps) the rate bound R = mu - delta*x is affine, so one pass
    over the rows gives all three.  With e = exp(-c*R), c = theta*n*m and
    g = -d(eps)/dx = pdf(x):

        psi   = eps + (1-eps)*E[e]
        psi'  = -g*(1 - E[e]) + (1-eps)*c*E[delta*e]
        psi'' = x*g*(1 - E[e]) + 2*g*c*E[delta*e] + (1-eps)*c^2*E[delta^2*e]

    each taken times exp(-L), with the shift L of `log_psi`, so nothing
    overflows; ln psi has slopes psi'/psi and psi''/psi - (psi'/psi)^2.
    Rows pinned at zero rate by clamping are constant in x and
    add no slope.  1 - eps is Q(-x), exact even where eps is within rounding
    of 1.

    One (count,) buffer holds R, then e, then delta*e, then delta*(delta*e),
    each written in place with the bits of the expression it replaces.
    """
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    _check_theta_positive(params)
    mu, delta = samples.stats(params)
    r = _rate_at(mu, delta, x)
    if clamp:
        pinned = r <= 0.0
        np.maximum(r, 0.0, out=r)
    e, shift = _rate_exponentials(r, params)
    mean_e = _mean(samples, e)
    if clamp:
        e[pinned] = 0.0
    e *= delta
    mean_w = _mean(samples, e)
    e *= delta
    mean_ww = _mean(samples, e)
    c = params.theta * params.nm
    eps, keep = q_function(x), q_function(-x)
    g = math.exp(-0.5 * x * x) / SQRT_2PI
    floor = math.exp(-shift)
    lost = floor - mean_e  # (1 - E[e]) * exp(-shift)
    psi_s = eps * floor + keep * mean_e
    d1 = (keep * c * mean_w - g * lost) / psi_s
    d2 = (x * g * lost + 2.0 * g * c * mean_w + keep * c * c * mean_ww) / psi_s - d1 * d1
    return shift + math.log(psi_s), d1, d2


def effective_rate_variable(epsilon: float, samples: SampleSet, params: SystemParams,
                            clamp: bool = False) -> EffectiveRateEstimate:
    """Throughput of variable-rate transmission at error target epsilon.

    value = -ln(psi)/(theta*n*m); the standard error is propagated from the
    sample variance of the psi summand by the delta method.
    """
    u, mean_u, ln_psi = _psi_summands(epsilon, samples, params, clamp)
    scale = params.theta * params.nm
    value = -ln_psi / scale
    rel = _spread(samples, u) / (math.sqrt(u.size) * mean_u)
    return EffectiveRateEstimate(value, rel / scale)


def phi(rate: float, samples: SampleSet, params: SystemParams) -> float:
    """Inner expectation E[eps(z,R) + (1-eps(z,R))*exp(-theta*n*m*R)].

    Equals 1 at R = 0 and tends to 1 as R -> inf; its unique interior
    minimizer is the optimal fixed rate.
    """
    _check_rate(rate)
    _check_theta_positive(params)
    eps_z = error_probability_arrays(*samples.stats(params), rate)
    decay = -math.expm1(-params.theta * params.nm * rate)
    return 1.0 - decay * _mean(samples, np.subtract(1.0, eps_z, out=eps_z))


def _log_phi(a: float, b: float, t: float) -> float:
    """ln(a + b*exp(-t)) for phi = E[eps] + E[1-eps]*exp(-t), t = theta*n*m*R.

    Through the complement when phi is near 1 and through logaddexp of the
    two mean terms otherwise, so R = 0 gives exactly 0 and huge t cannot
    underflow to -inf.
    """
    comp = -math.expm1(-t) * b
    if comp < 0.9:
        return math.log1p(-comp)
    log_a = math.log(a) if a > 0.0 else -math.inf
    log_b = math.log(b) if b > 0.0 else -math.inf
    return float(np.logaddexp(log_a, log_b - t))


def _scaled(v: float, log_scale: float) -> float:
    """v * exp(-log_scale), finite where exp(log_scale) alone would not be,
    and +-inf where the product itself overflows."""
    try:
        return math.copysign(math.exp(math.log(abs(v)) - log_scale), v) if v else 0.0
    except OverflowError:
        return math.copysign(math.inf, v)


def effective_rate_fixed(rate: float, samples: SampleSet, params: SystemParams) -> EffectiveRateEstimate:
    """Throughput of fixed-rate transmission at the given rate.

    value = -ln(phi)/(theta*n*m), with ln(phi) kept finite and precise in
    both regimes (see `_log_phi`).
    """
    _check_rate(rate)
    _check_theta_positive(params)
    eps_z = error_probability_arrays(*samples.stats(params), rate)
    t = params.theta * params.nm * rate
    decay = -math.expm1(-t)
    a = _mean(samples, eps_z)
    b = _mean(samples, 1.0 - eps_z)
    sd = _spread(samples, eps_z)
    log_phi = _log_phi(a, b, t)
    scale = params.theta * params.nm
    value = -log_phi / scale
    if sd == 0.0:
        se = 0.0
    else:
        se = decay * sd / (math.sqrt(eps_z.size) * math.exp(log_phi) * scale)
    return EffectiveRateEstimate(value, se)


def log_phi_slopes(rate: float, samples: SampleSet, params: SystemParams
                   ) -> tuple[float, float, float]:
    """ln phi at the given rate, with its first and second derivatives in R.

    With z = (mu - R)/delta, each row's error probability Q(z) has
    d(eps)/dR = p = pdf(z)/delta and d^2(eps)/dR^2 = z*p/delta, so with
    c = theta*n*m, t = c*R and P, Z the means of p and z*p/delta:

        phi   = E[eps] + E[1-eps]*exp(-t)
        phi'  = P*(1 - exp(-t)) - c*E[1-eps]*exp(-t)
        phi'' = Z*(1 - exp(-t)) + 2*c*P*exp(-t) + c^2*E[1-eps]*exp(-t)

    ln phi has slopes phi'/phi and phi''/phi - (phi'/phi)^2.  Each term is
    divided by phi in log space, so the slopes stay resolved where phi is
    far below 1e-16 or underflows.  Rows with delta = 0 are steps in
    R and add no slope.
    """
    _check_rate(rate)
    _check_theta_positive(params)
    eps, z, spread = _error_terms(*samples.stats(params), rate)
    a = _mean(samples, eps)
    b = 1.0 - a
    # eps's buffer becomes z*z, sqrt(2*pi) * p, then sqrt(2*pi) * z*p/delta
    y = np.multiply(z, z, out=eps)
    y *= -0.5
    np.exp(y, out=y)
    y /= spread
    dens = _mean(samples, y) / SQRT_2PI
    y *= z
    y /= spread
    curv = _mean(samples, y) / SQRT_2PI
    c = params.theta * params.nm
    t = c * rate
    decay = -math.expm1(-t)
    log_phi = _log_phi(a, b, t)
    kept = _scaled(b, log_phi + t)  # E[1-eps]*exp(-t)/phi
    d1 = decay * _scaled(dens, log_phi) - c * kept
    d2 = (decay * _scaled(curv, log_phi) + 2.0 * c * _scaled(dens, log_phi + t)
          + c * c * kept - d1 * d1)
    return log_phi, d1, d2


def ergodic_rate_variable(epsilon: float, samples: SampleSet, params: SystemParams,
                          clamp: bool = False) -> EffectiveRateEstimate:
    """theta -> 0 limit of variable-rate throughput: E[(1-eps)*R(z,eps)].

    params.theta is ignored; this is the no-queue-constraint (ergodic) value.
    """
    _check_epsilon(epsilon)
    mu, delta = samples.stats(params)
    y = rate_lower_bound_arrays(mu, delta, epsilon, clamp)
    y *= 1.0 - epsilon
    mean_y = _mean(samples, y)
    se = _spread(samples, y) / math.sqrt(y.size)
    return EffectiveRateEstimate(mean_y, se)


def ergodic_rate_fixed(rate: float, samples: SampleSet, params: SystemParams) -> EffectiveRateEstimate:
    """theta -> 0 limit of fixed-rate throughput: E[(1-eps(z,R))]*R."""
    _check_rate(rate)
    eps_z = error_probability_arrays(*samples.stats(params), rate)
    y = np.subtract(1.0, eps_z, out=eps_z)
    y *= rate
    mean_y = _mean(samples, y)
    se = _spread(samples, y) / math.sqrt(y.size)
    return EffectiveRateEstimate(mean_y, se)

