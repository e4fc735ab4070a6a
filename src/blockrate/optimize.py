"""Scalar optimizers and sweep drivers for the throughput tradeoffs.

Both inner objectives are unimodal in their argument — psi(eps) is strictly
convex and phi(R) has a unique interior minimizer — so Brent's
derivative-free search (golden-section steps safeguarding parabolic ones)
converges unconditionally, and superlinearly on these smooth objectives.
The error target is searched in x = Q^{-1}(eps), where the rate bound is
affine and a fixed tolerance is relative in eps.  An optimum is flagged
at_boundary only when it lies within the search's own terminal tolerance,
3*(tol + sqrt(eps_mach)*|edge|), of a bracket edge; that edge is then
reported as the argument.  The analytic psi derivative exists (see
effective_rate.psi_derivative) but is deliberately not the production path:
inverse-Q derivatives explode near eps in {0, 1} and the searches must stay
robust there.

Sweeps over m (`sweep`, and `sweep_m` / `sweep_theta`, which call it) reuse
one master gain set drawn at the largest m; each smaller m evaluates the
leading blocks of the same rows (SampleSet.prefixes: views of the master,
whose per-block rate terms are computed once and reduced per m).
With gains common across block counts, the m-comparison — the central
tradeoff here — is not polluted by independent sampling noise.

Sweep rows are independent and may run on a thread pool; results are
collected in input order and each row's sample set derives deterministically
from (seed, largest m), so output is identical for any worker count.  The
BLOCKRATE_THREADS environment variable caps the pool size; the same cap
(_max_workers) sizes the queue simulator's frame-service workers.
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
from .special import q_function, q_inverse

_T = TypeVar("_T")

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(np.finfo(float).eps)

EPSILON_BRACKET = (1e-10, 1.0 - 1e-10)


@dataclass(frozen=True)
class Optimum:
    """Result of a scalar throughput optimization.

    argument is eps* or R*; value is the maximized effective rate (bits per
    channel use) with its Monte Carlo standard error, and iterations counts
    objective evaluations.  at_boundary is True exactly when the search
    converged to within its terminal tolerance 3*(tol + sqrt(eps_mach)*|edge|)
    of an edge of bracket (in x = Q^{-1}(eps) for eps*); argument is then that
    edge itself, and the true optimum may lie beyond it.
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


def brent_minimize(f: Callable[[float], float], lo: float, hi: float,
                   tol: float = 1e-8) -> tuple[float, int, bool]:
    """Minimize a unimodal f on [lo, hi] by Brent's method.

    Golden-section steps are combined with parabolic interpolation through
    the three best points, in the form of Forsythe, Malcolm and Moler's fmin.
    The search stops once the argmin is pinned to within
    2*(sqrt(eps_mach)*|x| + tol/3).  Returns (argmin, number of function
    evaluations, at_edge).  at_edge is True when the argmin lies within the
    search's terminal tolerance 3*(tol + sqrt(eps_mach)*|edge|) of lo or hi;
    that edge is then returned as the argmin.
    """
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    evals = 1
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:
            # parabola through (v, fv), (w, fw), (x, fx); its vertex is x + p/q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            # accept the vertex only if it lies inside (a, b) and the step is
            # under half the step before last, so the bracket keeps shrinking
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = math.copysign(tol1, xm - x)
                golden = False
        if golden:
            e = (a if x >= xm else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        evals += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    for edge in (lo, hi):
        if abs(x - edge) <= 3.0 * (tol + _SQRT_EPS * abs(edge)):
            return edge, evals, True
    return x, evals, False


def _epsilon_at(x: float) -> float:
    lo, hi = EPSILON_BRACKET
    return min(max(q_function(x), lo), hi)


def optimal_epsilon(samples: SampleSet, params: SystemParams,
                    clamp: bool = False, tol: float = 1e-8) -> Optimum:
    """Error target maximizing variable-rate throughput.

    Minimizes ln(psi) (strictly convex in eps) by Brent's method over
    x = Q^{-1}(eps), x in [Q^{-1}(1 - 1e-10), Q^{-1}(1e-10)].  The rate
    bound mu - delta*x is affine in x, and a fixed tolerance on x is a
    relative tolerance on eps, so optima near 1e-9 are resolved as finely as
    those near 0.1.  An argmin on an edge of the x bracket is reported as
    the matching edge of EPSILON_BRACKET, with at_boundary set.
    """
    eps_lo, eps_hi = EPSILON_BRACKET
    x_lo, x_hi = q_inverse(eps_hi), q_inverse(eps_lo)
    x, evals, at_edge = brent_minimize(
        lambda x: log_psi(_epsilon_at(x), samples, params, clamp), x_lo, x_hi, tol)
    if at_edge:
        eps_star = eps_lo if x == x_hi else eps_hi
    else:
        eps_star = _epsilon_at(x)
    est = effective_rate_variable(eps_star, samples, params, clamp)
    return Optimum(
        argument=eps_star,
        value=est.value,
        std_error=est.std_error,
        iterations=evals,
        bracket=EPSILON_BRACKET,
        at_boundary=at_edge,
    )


def optimal_rate(samples: SampleSet, params: SystemParams,
                 tol: float = 1e-8, max_expansions: int = 8) -> Optimum:
    """Coding rate maximizing fixed-rate throughput.

    Minimizes phi — equivalently maximizes its complement, which keeps
    precision where phi is within rounding of 1 — by Brent's method over
    [0, R_hi] with R_hi = max over the samples of (mu + 10*delta).  If the
    minimizer lands on R_hi the bracket doubles and the search reruns, at
    most max_expansions times; bracket is the last one searched.
    """
    mu, delta = samples.stats(params)
    hi = float(np.max(mu + 10.0 * delta))
    if hi <= 0.0:  # all-zero gains: any rate gives zero throughput
        hi = 1.0
    lo = 0.0
    evals = 0
    for expansion in range(max_expansions + 1):
        r_star, e, at_edge = brent_minimize(
            lambda r: -phi_complement(r, samples, params), lo, hi, tol)
        evals += e
        if not at_edge or r_star == lo or expansion == max_expansions:
            break
        hi *= 2.0
    est = effective_rate_fixed(r_star, samples, params)
    return Optimum(
        argument=r_star,
        value=est.value,
        std_error=est.std_error,
        iterations=evals,
        bracket=(lo, hi),
        at_boundary=at_edge,
    )


def _evaluate_policy(samples: SampleSet, params: SystemParams,
                     policy: RatePolicy) -> SweepRow:
    """One sweep row: evaluate or optimize the policy on this sample set.

    The one place a policy is routed: theta = 0 takes the ergodic limit at
    the policy's target, a missing target is optimized, and a given target
    is evaluated.
    """
    if isinstance(policy, VariableRate):
        target, name, kw = policy.epsilon, "epsilon", {"clamp": policy.clamp_negative}
        ergodic, evaluate, optimum = ergodic_rate_variable, effective_rate_variable, optimal_epsilon
    elif isinstance(policy, FixedRate):
        target, name, kw = policy.rate, "rate", {}
        ergodic, evaluate, optimum = ergodic_rate_fixed, effective_rate_fixed, optimal_rate
    else:
        raise DomainError(f"unknown rate policy: {policy!r}")
    if params.theta == 0.0:
        if target is None:
            raise DomainError(
                f"theta = 0 rows need an explicit {name} target "
                "(the ergodic limit is evaluated, not optimized)")
        est = ergodic(target, samples, params, **kw)
    elif target is None:
        est = optimum(samples, params, **kw)
        target = est.argument
    else:
        est = evaluate(target, samples, params, **kw)
    return SweepRow(m=params.m, theta=params.theta, policy=policy.describe(),
                    effective_rate=est.value, std_error=est.std_error, argument=target)


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


def sweep(params: SystemParams, m_values: Sequence[int], theta_grid: Sequence[float],
          policies: Sequence[RatePolicy], count: int, seed: int,
          model: FadingModel = Rayleigh()) -> list[SweepRow]:
    """Every policy at every (m, theta) point, on gains common to all of them.

    Draws one master set of max(m_values)-block realizations and evaluates
    each m on its prefix; params supplies the SNR and n (its m and theta are
    not used).  Rows come in m (outer), theta, policy (inner) order, each
    in the order given.
    """
    m_values = [int(m) for m in m_values]
    theta_grid = [float(t) for t in theta_grid]
    policies = list(policies)
    if not m_values:
        raise DomainError("m_values must be nonempty")
    if min(m_values) < 1:
        raise DomainError(f"m values must be >= 1, got {min(m_values)}")
    if not theta_grid:
        raise DomainError("theta_grid must be nonempty")
    if min(theta_grid) < 0.0:
        raise DomainError(f"theta must be >= 0, got {min(theta_grid)}")
    if not policies:
        raise DomainError("policies must be nonempty")
    prefixes = SampleSet.draw(model, max(m_values), count, seed).prefixes(m_values, params)
    tasks = [
        (lambda sub=prefixes[m], p=SystemParams(params.snr_linear, params.n, m, theta),
         policy=policy: _evaluate_policy(sub, p, policy))
        for m in m_values for theta in theta_grid for policy in policies
    ]
    return _run_rows(tasks)


def sweep_m(params: SystemParams, m_values: Sequence[int], policy: RatePolicy,
            count: int, seed: int,
            model: FadingModel = Rayleigh()) -> tuple[list[SweepRow], int]:
    """Throughput versus blocks-per-codeword at params.theta, on gains common
    across m.

    Returns the rows (in the given m order) and the m attaining the highest
    effective rate (first hit on ties).
    """
    rows = sweep(params, m_values, [params.theta], [policy], count, seed, model)
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
    return sweep(params, m_values, theta_grid, [policy], count, seed, model)
