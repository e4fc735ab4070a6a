"""Scalar optimizers and sweep drivers for the throughput tradeoffs.

Both inner objectives are unimodal in their argument — psi(eps) is strictly
convex and phi(R) has a unique interior minimizer — so a derivative-free
golden-section search converges unconditionally.  The analytic psi
derivative exists (see effective_rate.psi_derivative) but is deliberately
not the production path: inverse-Q derivatives explode near eps in {0, 1}
and the searches must stay robust there.

Sweeps over m reuse one master gain set drawn at the largest m; each smaller
m evaluates the leading blocks of the same rows (SampleSet.prefixes: views of
the master, whose per-block rate terms are computed once and reduced per m).
With gains common across block counts, the m-comparison — the central
tradeoff here — is not polluted by independent sampling noise.

Sweep rows are independent and may run on a thread pool; results are
collected in input order and each row's sample set derives deterministically
from (seed, largest m), so output is identical for any worker count.  The
BLOCKRATE_THREADS environment variable caps the pool size.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .channel import FadingModel, Rayleigh, SystemParams
from .effective_rate import (
    SampleSet,
    effective_rate_fixed,
    effective_rate_variable,
    ergodic_rate_fixed,
    ergodic_rate_variable,
    log_psi,
    phi_complement,
)
from .errors import DomainError
from .fbl import FixedRate, RatePolicy, VariableRate

_T = TypeVar("_T")

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0

EPSILON_BRACKET = (1e-10, 1.0 - 1e-10)


@dataclass(frozen=True)
class Optimum:
    """Result of a scalar throughput optimization.

    argument is eps* or R*; value is the maximized effective rate (bits per
    channel use) with its Monte Carlo standard error.  at_boundary signals
    that the search converged onto a bracket endpoint, i.e. the
    interior-optimum assumption failed numerically for this configuration.
    """

    argument: float
    value: float
    std_error: float
    iterations: int
    bracket: tuple[float, float]
    at_boundary: bool = False


@dataclass(frozen=True)
class SweepRow:
    """One (m, theta) point of a sweep."""

    m: int
    theta: float
    policy: str
    effective_rate: float
    std_error: float
    argument: float | None = None  # eps or R actually used, if applicable


def golden_section(f: Callable[[float], float], lo: float, hi: float,
                   tol: float = 1e-8) -> tuple[float, int]:
    """Minimize a unimodal f on [lo, hi]; stop when the bracket is < tol wide.

    Returns (argmin estimate, number of function evaluations).
    """
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    a, b = lo, hi
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc = f(c)
    fd = f(d)
    evals = 2
    while h > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
        evals += 1
    return (c if fc < fd else d), evals


def _near(x: float, edge: float, tol: float) -> bool:
    return abs(x - edge) <= 10.0 * tol


def optimal_epsilon(samples: SampleSet, params: SystemParams,
                    clamp: bool = False, tol: float = 1e-8) -> Optimum:
    """Error target maximizing variable-rate throughput.

    Minimizes ln(psi) over eps in [1e-10, 1 - 1e-10] by golden section
    (valid by strict convexity of psi).
    """
    lo, hi = EPSILON_BRACKET
    eps_star, evals = golden_section(
        lambda e: log_psi(e, samples, params, clamp), lo, hi, tol)
    est = effective_rate_variable(eps_star, samples, params, clamp)
    return Optimum(
        argument=eps_star,
        value=est.value,
        std_error=est.std_error,
        iterations=evals,
        bracket=(lo, hi),
        at_boundary=_near(eps_star, lo, tol) or _near(eps_star, hi, tol),
    )


def optimal_rate(samples: SampleSet, params: SystemParams,
                 tol: float = 1e-8, max_expansions: int = 8) -> Optimum:
    """Coding rate maximizing fixed-rate throughput.

    Minimizes phi — equivalently maximizes its complement, which keeps
    precision where phi is within rounding of 1 — over [0, R_hi] with
    R_hi = max over the samples of (mu + 10*delta).  If the minimizer lands
    on R_hi the bracket doubles and the search reruns.
    """
    mu, delta = samples.stats(params)
    hi = float(np.max(mu + 10.0 * delta))
    if hi <= 0.0:  # all-zero gains: any rate gives zero throughput
        hi = 1.0
    lo = 0.0
    evals = 0
    for _ in range(max_expansions + 1):
        r_star, e = golden_section(
            lambda r: -phi_complement(r, samples, params), lo, hi, tol)
        evals += e
        if not _near(r_star, hi, tol):
            break
        hi *= 2.0
    est = effective_rate_fixed(r_star, samples, params)
    return Optimum(
        argument=r_star,
        value=est.value,
        std_error=est.std_error,
        iterations=evals,
        bracket=(lo, hi),
        at_boundary=_near(r_star, lo, tol) or _near(r_star, hi, tol),
    )


def _evaluate_policy(samples: SampleSet, params: SystemParams,
                     policy: RatePolicy) -> SweepRow:
    """One sweep row: evaluate or optimize the policy on this sample set."""
    if isinstance(policy, VariableRate):
        clamp = policy.clamp_negative
        if params.theta == 0.0:
            if policy.epsilon is None:
                raise DomainError(
                    "theta = 0 rows need an explicit epsilon target "
                    "(the ergodic limit is evaluated, not optimized)")
            est = ergodic_rate_variable(policy.epsilon, samples, params, clamp)
            arg = policy.epsilon
            rate, se = est.value, est.std_error
        elif policy.epsilon is None:
            opt = optimal_epsilon(samples, params, clamp)
            arg, rate, se = opt.argument, opt.value, opt.std_error
        else:
            est = effective_rate_variable(policy.epsilon, samples, params, clamp)
            arg, rate, se = policy.epsilon, est.value, est.std_error
    elif isinstance(policy, FixedRate):
        if params.theta == 0.0:
            if policy.rate is None:
                raise DomainError(
                    "theta = 0 rows need an explicit rate target "
                    "(the ergodic limit is evaluated, not optimized)")
            est = ergodic_rate_fixed(policy.rate, samples, params)
            arg, rate, se = policy.rate, est.value, est.std_error
        elif policy.rate is None:
            opt = optimal_rate(samples, params)
            arg, rate, se = opt.argument, opt.value, opt.std_error
        else:
            est = effective_rate_fixed(policy.rate, samples, params)
            arg, rate, se = policy.rate, est.value, est.std_error
    else:
        raise DomainError(f"unknown rate policy: {policy!r}")
    return SweepRow(m=params.m, theta=params.theta, policy=policy.describe(),
                    effective_rate=rate, std_error=se, argument=arg)


def _max_workers(n_tasks: int) -> int:
    raw = os.environ.get("BLOCKRATE_THREADS", "")
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise DomainError(f"BLOCKRATE_THREADS must be an integer, got {raw!r}") from None
        if cap < 1:
            raise DomainError(f"BLOCKRATE_THREADS must be >= 1, got {cap}")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))


def _run_rows(tasks: Sequence[Callable[[], _T]]) -> list[_T]:
    workers = _max_workers(len(tasks))
    if workers == 1 or len(tasks) == 1:
        return [t() for t in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda t: t(), tasks))


def sweep_m(params: SystemParams, m_values: Sequence[int], policy: RatePolicy,
            count: int, seed: int,
            model: FadingModel = Rayleigh()) -> tuple[list[SweepRow], int]:
    """Throughput versus blocks-per-codeword, on gains common across m.

    Draws one master set of max(m_values)-block realizations and evaluates
    every m on its prefixes.  Returns the rows (in the given m order) and the
    m attaining the highest effective rate (first hit on ties).
    """
    m_values = [int(m) for m in m_values]
    if not m_values:
        raise DomainError("m_values must be nonempty")
    if min(m_values) < 1:
        raise DomainError(f"m values must be >= 1, got {min(m_values)}")
    prefixes = SampleSet.draw(model, max(m_values), count, seed).prefixes(m_values, params)
    tasks = [
        (lambda m=m: _evaluate_policy(prefixes[m], params.with_m(m), policy))
        for m in m_values
    ]
    rows = _run_rows(tasks)
    best = max(range(len(rows)), key=lambda i: (rows[i].effective_rate, -i))
    return rows, rows[best].m


def sweep_theta(params: SystemParams, theta_grid: Sequence[float],
                m_values: Sequence[int], policy: RatePolicy,
                count: int, seed: int,
                model: FadingModel = Rayleigh()) -> list[SweepRow]:
    """Optimized (or evaluated) throughput over a theta grid for several m.

    Rows are grouped by m (outer) with theta ascending as given (inner); all
    (theta, m) points with equal m share one prefix of the master gain set.
    """
    theta_grid = [float(t) for t in theta_grid]
    if not theta_grid:
        raise DomainError("theta_grid must be nonempty")
    if min(theta_grid) < 0.0:
        raise DomainError(f"theta must be >= 0, got {min(theta_grid)}")
    m_values = [int(m) for m in m_values]
    if not m_values:
        raise DomainError("m_values must be nonempty")
    prefixes = SampleSet.draw(model, max(m_values), count, seed).prefixes(m_values, params)
    tasks = []
    for m in m_values:
        for theta in theta_grid:
            p = SystemParams(snr_linear=params.snr_linear, n=params.n,
                             m=m, theta=theta)
            tasks.append(lambda sub=prefixes[m], p=p: _evaluate_policy(sub, p, policy))
    return _run_rows(tasks)
