"""Finite-blocklength rate statistics for codewords spanning m fading blocks.

For gains z and linear SNR, the per-codeword mutual-information density has
mean and standard deviation

    mu    = (1/m) * sum_l log2(1 + SNR*z_l)
    delta = log2(e) * sqrt((1/m) * sum_l 2*SNR*z_l / (nm*(1 + SNR*z_l)))

in bits per channel use.  Both sums run over the blocks left to right
(`rate_stats_widths`), so a matrix's leading m blocks give the statistics of
their m-column copy bit for bit.  A decoding error probability target
epsilon buys the rate lower bound R = mu - delta*Q^{-1}(epsilon);
conversely a fixed rate R fails with probability Q((mu - R)/delta), which
`_error_terms` computes for every caller.  The Gaussian model behind these
formulas is validated here by an exact sampler, `mi_density_samples_exact`:
the centered density equals a weighted sum of nm i.i.d. Laplace variates
(zero mean, variance 2).

R can be negative for small epsilon and deep fades; the formula is evaluated
as printed by default, and `clamp` floors it at zero (zero service).  The
vanishing-parameter terms of the underlying achievability bound (the
constraint-set and e^{-nm*gamma} corrections) are neglected throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import SystemParams, _check_gains, _check_integer, _on_row_blocks, uniform_windows
from .errors import DomainError
from .special import _q_finite, q_inverse

LOG2E = math.log2(math.e)
# the largest gain a draw gives: -log1p(-u) at the largest uniform, 1 - 2^-53
_GAIN_CAP = 53 * math.log(2)


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0,1), got {epsilon!r}")
    if epsilon < sys.float_info.min:
        raise DomainError(f"epsilon = {epsilon!r} is subnormal, where Q is held to a few bits "
                          "and Q^-1(epsilon) cannot be resolved")


def _check_rate(rate: float) -> None:
    if not (math.isfinite(rate) and rate >= 0.0):
        raise DomainError(f"rate must be finite and >= 0, got {rate!r}")


@dataclass(frozen=True)
class RateStats:
    """Mean rate and dispersion (both bits per channel use) of one realization."""

    mu: float
    delta: float


@dataclass(frozen=True)
class VariableRate:
    """Transmitter knows z and picks the rate meeting error target epsilon.

    target is epsilon; None asks sweep/optimizer drivers to optimize it.
    clamp_negative, the estimators' clamp option, floors negative rates at 0.
    """

    epsilon: float | None = None
    clamp_negative: bool = False
    target_name = "epsilon"

    def __post_init__(self):
        if self.epsilon is not None:
            _check_epsilon(self.epsilon)

    @property
    def target(self) -> float | None:
        return self.epsilon

    @property
    def options(self) -> dict:
        return {"clamp": self.clamp_negative}

    def service(self, mu: np.ndarray, delta: np.ndarray, u_dec: np.ndarray,
                nm: int, out: np.ndarray | None = None) -> np.ndarray:
        """Bits each frame serves: nm*R(z, epsilon), or 0 when its decoding
        draw u_dec falls below epsilon; written into out, which may be u_dec,
        or a new array."""
        failed = u_dec < self.epsilon  # uniforms are never nan
        bits = rate_lower_bound_arrays(mu, delta, self.epsilon, self.clamp_negative, out)
        bits *= nm
        np.copyto(bits, 0.0, where=failed)
        return bits

    def service_bound(self, params: SystemParams) -> float:
        """A bound on every frame's |service| bits: on every row mu is at most
        log2(1 + snr*_GAIN_CAP) and delta is below LOG2E*sqrt(2/nm)."""
        nm = float(params.nm)  # Python floats: numpy's would warn on an overflow
        return nm * (math.log2(1.0 + float(params.snr_linear) * _GAIN_CAP)
                     + abs(q_inverse(self.epsilon)) * LOG2E * math.sqrt(2.0 / nm))

    def describe(self) -> str:
        target = "optimized-epsilon" if self.epsilon is None else f"epsilon={self.epsilon!r}"
        suffix = ", clamped" if self.clamp_negative else ""
        return f"variable-rate({target}{suffix})"


@dataclass(frozen=True)
class FixedRate:
    """Transmitter is blind to z and sends at a constant rate (bits/use).

    target is rate; None asks sweep/optimizer drivers to optimize it.
    """

    rate: float | None = None
    target_name = "rate"

    def __post_init__(self):
        if self.rate is not None:
            _check_rate(self.rate)

    @property
    def target(self) -> float | None:
        return self.rate

    @property
    def options(self) -> dict:
        return {}

    def service(self, mu: np.ndarray, delta: np.ndarray, u_dec: np.ndarray,
                nm: int, out: np.ndarray | None = None) -> np.ndarray:
        """Bits each frame serves: nm*rate, or 0 when its decoding draw u_dec
        falls below the error probability eps(z, rate); written into out,
        which may be u_dec, or a new array."""
        eps = error_probability_arrays(mu, delta, self.rate)
        bits = eps if out is None else out
        failed = u_dec < eps  # eps and uniforms are never nan
        bits.fill(nm * self.rate)
        np.copyto(bits, 0.0, where=failed)
        return bits

    def service_bound(self, params: SystemParams) -> float:
        """A frame serves nm*rate bits or none, so nm*rate bounds its |service|."""
        return float(params.nm) * float(self.rate)

    def describe(self) -> str:
        target = "optimized-rate" if self.rate is None else f"rate={self.rate!r}"
        return f"fixed-rate({target})"


RatePolicy = VariableRate | FixedRate


def _check_realization(z: np.ndarray, params: SystemParams) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size != params.m:
        raise DomainError(f"realization has length {z.size}, need m={params.m}")
    _check_gains(z)
    return z


def rate_stats_widths(gains: np.ndarray, widths: list[int], snr_linear: float, n: int,
                      out: dict[int, tuple[np.ndarray, np.ndarray]] | None = None
                      ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """(mu, delta) of each row's leading m blocks, for each m in widths, from
    two running (count,) sums of log1p(s) and s/(1+s), s = snr_linear*gain,
    taken over the gain columns left to right.

    Each pair is written into out[m], two (count,) arrays (slices of larger
    arrays, say), or into new arrays; out is returned.  DomainError if
    snr_linear*gain overflows on some row.
    """
    count, blocks = gains.shape
    if not widths or not all(1 <= m <= blocks for m in widths):
        raise DomainError(f"widths {widths} must be nonempty and within 1..{blocks}")
    if out is None:
        out = {m: (np.empty(count), np.empty(count)) for m in widths}
    s, term = np.empty(count), np.empty(count)
    # the running sums live in the widest pair's arrays, scaled there last
    log_sum, frac_sum = out[max(widths)]
    log_sum.fill(0.0)
    frac_sum.fill(0.0)
    # an overflowing s makes log_sum inf and frac_sum nan, checked once below
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, max(widths) + 1):
            np.multiply(gains[:, m - 1], snr_linear, out=s)
            log_sum += np.log1p(s, out=term)
            frac_sum += np.divide(s, np.add(s, 1.0, out=term), out=term)
            if m in widths:
                mu, delta = out[m]
                np.multiply(np.divide(log_sum, m, out=mu), LOG2E, out=mu)
                np.multiply(frac_sum, 2.0 / (n * m * m), out=delta)
                np.multiply(np.sqrt(delta, out=delta), LOG2E, out=delta)
    # log_sum now holds the widest mu; the sums never decrease in m, so it
    # is finite on every row iff every width's statistics are
    if not math.isfinite(log_sum.max(initial=0.0)):
        raise DomainError(f"snr_linear * gain overflows on some realization "
                          f"(snr_linear = {snr_linear!r})")
    return out


def rate_stats_arrays(gains: np.ndarray, params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (mu, delta) for a (count, m) gain matrix."""
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 2 or gains.shape[1] != params.m:
        raise DomainError(f"gain matrix width {gains.shape} does not match m={params.m}")
    return rate_stats_widths(gains, [params.m], params.snr_linear, params.n)[params.m]


def _row_stats(z: np.ndarray, params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """(mu, delta) of one realization z, as arrays of one element."""
    return rate_stats_arrays(_check_realization(z, params)[np.newaxis, :], params)


def rate_stats(z: np.ndarray, params: SystemParams) -> RateStats:
    """Mean rate and dispersion of the mutual-information density for gains z."""
    mu, delta = _row_stats(z, params)
    return RateStats(float(mu[0]), float(delta[0]))


def rate_lower_bound(z: np.ndarray, params: SystemParams, epsilon: float,
                     clamp: bool = False) -> float:
    """Rate (bits/use) decodable with error probability epsilon; may be
    negative unless clamp=True."""
    _check_epsilon(epsilon)
    mu, delta = _row_stats(z, params)
    return float(rate_lower_bound_arrays(mu, delta, epsilon, clamp)[0])


def error_probability(z: np.ndarray, params: SystemParams, rate: float) -> float:
    """Decoding error probability Q((mu - rate)/delta) at a fixed rate."""
    _check_rate(rate)
    mu, delta = _row_stats(z, params)
    return float(error_probability_arrays(mu, delta, rate)[0])


def _error_terms(mu: np.ndarray, delta: np.ndarray, rate: float,
                 out: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eps, z, spread) at a finite rate: z = (mu - rate)/spread and eps =
    Q(z), written into out = (eps, z), two arrays shaped like mu, or into two
    new arrays, with spread = delta, or inf on the rows where (mu - rate)/delta
    is not finite: delta = 0 (all-zero gains), or a rate so far above mu that
    the quotient overflows.  Those rows take the limit eps = 0 / 0.5 / 1 for
    rate below / at / above mu, and add no slope."""
    eps, z = (np.empty(np.shape(mu)), np.empty(np.shape(mu))) if out is None else out
    np.subtract(mu, rate, out=z)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z /= delta
        # one reduction: finite unless a quotient is not (or their sum overflows)
        finite = math.isfinite(z.sum())
    if finite:
        return _q_finite(z, eps), z, delta
    step = ~np.isfinite(z)
    spread = np.where(step, math.inf, delta)
    np.subtract(mu, rate, out=z)
    z /= spread  # finite on every row: the step rows' z is +-0
    _q_finite(z, eps)
    eps[step] = np.where(rate < mu[step], 0.0, np.where(rate > mu[step], 1.0, 0.5))
    return eps, z, spread


def error_probability_arrays(mu: np.ndarray, delta: np.ndarray, rate: float) -> np.ndarray:
    """Vectorized error probability from precomputed (mu, delta) arrays at a
    finite rate; see `_error_terms` for the rows where it is a step."""
    return _error_terms(mu, delta, rate)[0]


def _rate_at(mu: np.ndarray, delta: np.ndarray, x: float, clamp: bool = False,
             out: np.ndarray | None = None) -> np.ndarray:
    """mu - delta*x, bit for bit, in out or one new array, floored at zero
    when clamp=True."""
    # mu + delta*(-x) is mu - delta*x exactly; in place, it needs no temporary
    r = np.multiply(delta, -x, out=out)
    r += mu
    return np.maximum(r, 0.0, out=r) if clamp else r


def rate_lower_bound_arrays(mu: np.ndarray, delta: np.ndarray, epsilon: float,
                            clamp: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized rate lower bound mu - delta*Q^{-1}(epsilon) from (mu, delta)
    arrays, floored at zero when clamp=True, in out or a new array."""
    return _rate_at(mu, delta, q_inverse(epsilon), clamp, out)


def _laplace_from_uniform(u: np.ndarray) -> np.ndarray:
    # unit-scale Laplace (zero mean, variance 2) by inverse CDF, in place in
    # u; the clip guards only the measure-zero u=0 corner of the [0,1) draw
    t = np.abs(np.subtract(u, 0.5, out=u))
    np.log1p(np.maximum(np.multiply(t, -2.0, out=t), -1.0 + 2.0 ** -53, out=t), out=t)
    return np.multiply(np.negative(np.sign(u, out=u), out=u), t, out=u)


def mi_density_samples_exact(z: np.ndarray, params: SystemParams, count: int,
                             seed: int) -> np.ndarray:
    """count exact mutual-information-density samples (bits/use): sample i
    is the weighted Laplace sum of stream window i's nm draws, its m
    per-block sums weighted and added left to right in elementwise
    arithmetic on that window alone, so no count or split moves a bit.  Each
    `channel._on_row_blocks` block turns its stream windows into Laplace
    variates in place, with one more buffer of their size."""
    z = _check_realization(z, params)
    _check_integer("count", count, 1)
    st = rate_stats(z, params)
    s = params.snr_linear * z
    weights = np.sqrt(s / (1.0 + s))  # per-block Laplace weights
    out = np.zeros(count)

    def fill(lo: int, hi: int) -> None:
        u = uniform_windows(seed, lo, hi - lo, params.nm)
        sums = _laplace_from_uniform(u).reshape(hi - lo, params.m, params.n).sum(axis=2)
        x = out[lo:hi]
        for block in range(params.m):
            x += sums[:, block] * weights[block]
        x *= LOG2E / params.nm
        x += st.mu

    _on_row_blocks(count, params.nm, fill)
    return out
