"""Scalar optimizers and sweep drivers for the throughput tradeoffs.

Both inner objectives are unimodal in their argument — psi(eps) is strictly
convex and phi(R) has a unique interior minimizer — so the slope of each
log-objective changes sign once, from - to +, and its root is the optimum.
`newton_minimize` finds that root by Newton's method on the slopes that
effective_rate computes in the same pass as the value (`log_psi_slopes`,
`log_phi_slopes`), inside a bracket shrunk on the slope's sign, with a
bisection step wherever a Newton step leaves the bracket or stops halving.
The error target is searched in x = Q^{-1}(eps), where the rate bound is
affine and a fixed tolerance is relative in eps; the fixed rate is searched
on ln(phi), which stays resolved where phi is far below 1e-16.  An edge is
read only when the search heads for it, and an optimum is flagged
at_boundary exactly when the slope at an edge shows the root at or beyond
it; that edge is then reported as the argument.

Sweeps over m (`sweep`, and `sweep_m` / `sweep_theta`, which call it) reuse
one master gain set drawn at the largest m; each smaller m evaluates the
leading blocks of the same rows (SampleSet.prefixes: views of the master,
whose statistics for every m come from one running sum over its blocks).
With gains common across block counts, the m-comparison — the central
tradeoff here — is not polluted by independent sampling noise.

Sweep rows are independent and run through `channel._run_rows` on the
package's worker pool, which `channel` describes.  Results come in input
order and each row's sample set derives deterministically from (seed,
largest m), so output is identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channel import Rayleigh, SystemParams, _run_rows
from .effective_rate import (
    SampleSet,
    effective_rate_fixed,
    effective_rate_variable,
    ergodic_rate_fixed,
    ergodic_rate_variable,
    log_phi_slopes,
    log_psi_slopes,
)
from .errors import ComputationError, DomainError
from .fbl import FixedRate, RatePolicy, VariableRate
from .special import q_function, q_inverse

# where the searches start: eps = Q(1) ~ 0.16, and a tenth of the rate bracket
_X_START = 1.0
_R_START = 0.1
_TOL = 1e-8  # newton_minimize stops once a step is at most this

EPSILON_BRACKET = (1e-10, 1.0 - 1e-10)
# the same bracket in x = Q^{-1}(eps), which decreases in eps
_X_BRACKET = (q_inverse(EPSILON_BRACKET[1]), q_inverse(EPSILON_BRACKET[0]))


@dataclass(frozen=True)
class Optimum:
    """Result of a scalar throughput optimization.

    argument is eps* or R*; value is the maximized effective rate (bits per
    channel use) with its Monte Carlo standard error, and iterations counts
    objective evaluations (each gives the value and both slopes).  at_boundary
    is True exactly when the slope at an edge of bracket (in x = Q^{-1}(eps)
    for eps*) shows the objective still falling toward, or flat at, that
    edge; argument is then that edge itself, and the true optimum may lie
    beyond it.
    """

    argument: float
    value: float
    std_error: float
    iterations: int
    bracket: tuple[float, float]
    at_boundary: bool = False


@dataclass(frozen=True)
class SweepRow:
    """One (m, theta) point of a sweep.

    iterations and at_boundary are those of the row's Optimum when its
    target was optimized, and 0 and False when the target was given.
    """

    m: int
    theta: float
    effective_rate: float
    std_error: float
    argument: float | None = None  # eps or R actually used, if applicable
    iterations: int = 0
    at_boundary: bool = False


def newton_minimize(slopes: Callable[[float], tuple[float, float, float]],
                    lo: float, hi: float, start: float) -> tuple[float, int, bool]:
    """Minimize a unimodal f on [lo, hi] by a safeguarded Newton search for
    the root of its slope.

    slopes(x) returns (f(x), f'(x), f''(x)); f' changes sign at most once,
    from - to +.  The search starts at `start` and keeps a bracket [a, b]
    around the root, shrunk on the sign of f'.  A Newton step that leaves the
    bracket (the safeguard of special.q_inverse), or is over half the step
    before last, becomes a bisection step.  The edges are read lazily: before the first
    step toward an edge that is not a Newton step, the slope at that edge is
    evaluated, and if it shows the root at or beyond the edge the search
    stops there with at_edge set.  Otherwise the search stops once a step is
    at most _TOL.  Returns (argmin, number of slope evaluations, at_edge).
    """
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if not lo <= start <= hi:
        raise DomainError(f"start {start!r} outside [{lo!r}, {hi!r}]")
    a, b = lo, hi
    unread = {lo, hi}  # edges whose slope sign is not known yet
    x, evals = start, 0
    step = before = hi - lo
    while True:
        _, d1, d2 = slopes(x)
        evals += 1
        if not (math.isfinite(d1) and math.isfinite(d2)):
            raise ComputationError(f"non-finite slope ({d1!r}, {d2!r}) at {x!r}")
        unread.discard(x)
        if (x == lo and d1 >= 0.0) or (x == hi and d1 <= 0.0):
            return x, evals, True
        if d1 == 0.0:
            return x, evals, False
        if d1 < 0.0:
            a = x
        else:
            b = x
        # Newton's estimate of the root; where f'' <= 0 there is none, and the
        # root is taken to lie beyond the bracket in the descent direction
        guess = x - d1 / d2 if d2 > 0.0 else math.copysign(math.inf, -d1)
        newton = a <= guess <= b and abs(guess - x) <= 0.5 * abs(before)
        edge = b if d1 < 0.0 else a
        if edge in unread and not newton:
            x = edge
            continue
        new = guess if newton else 0.5 * (a + b)
        before, step = step, new - x
        if abs(step) <= _TOL:
            return new, evals, False
        x = new


def optimal_epsilon(samples: SampleSet, params: SystemParams,
                    clamp: bool = False) -> Optimum:
    """Error target maximizing variable-rate throughput.

    Minimizes ln(psi) (strictly convex in eps) by `newton_minimize` over
    x = Q^{-1}(eps), x in [Q^{-1}(1 - 1e-10), Q^{-1}(1e-10)], on the slopes
    of `log_psi_slopes`.  A fixed tolerance on x is a relative tolerance on
    eps, so optima near 1e-9 are resolved as finely as those near 0.1.  An
    optimum on an edge of the x bracket is reported as the matching edge of
    EPSILON_BRACKET, with at_boundary set.
    """
    eps_lo, eps_hi = EPSILON_BRACKET
    x_lo, x_hi = _X_BRACKET
    x, evals, at_edge = newton_minimize(
        lambda x: log_psi_slopes(x, samples, params, clamp), x_lo, x_hi, _X_START)
    if at_edge:
        eps_star = eps_lo if x == x_hi else eps_hi
    else:
        eps_star = min(max(q_function(x), eps_lo), eps_hi)
    est = effective_rate_variable(eps_star, samples, params, clamp)
    return Optimum(
        argument=eps_star,
        value=est.value,
        std_error=est.std_error,
        iterations=evals,
        bracket=EPSILON_BRACKET,
        at_boundary=at_edge,
    )


def optimal_rate(samples: SampleSet, params: SystemParams) -> Optimum:
    """Coding rate maximizing fixed-rate throughput.

    Minimizes ln(phi), which stays resolved where phi is far below 1e-16, by
    one `newton_minimize` pass over [0, R_hi], R_hi = max over the samples of
    (mu + 10*delta), on the slopes of `log_phi_slopes`.  At R_hi every row has
    z = (mu - R_hi)/delta <= -10, so each eps rounds to 1; on a Monte Carlo
    set the slope there is then decay*P > 0, and R_hi is never the optimum.
    On a quadrature rule each node is a steep step in R, ln(phi) need not be
    unimodal, and the search may stop at a local optimum without a flag.
    """
    mu, delta = samples.stats(params)
    hi = float(np.max(mu + 10.0 * delta))
    if hi <= 0.0:  # all-zero gains: any rate gives zero throughput
        hi = 1.0
    r_star, evals, at_edge = newton_minimize(
        lambda r: log_phi_slopes(r, samples, params), 0.0, hi, _R_START * hi)
    est = effective_rate_fixed(r_star, samples, params)
    return Optimum(
        argument=r_star,
        value=est.value,
        std_error=est.std_error,
        iterations=evals,
        bracket=(0.0, hi),
        at_boundary=at_edge,
    )


def _evaluate_policy(samples: SampleSet, params: SystemParams,
                     policy: RatePolicy) -> SweepRow:
    """One sweep row: evaluate or optimize the policy on this sample set.

    The one place a policy is routed: theta = 0 takes the ergodic limit at
    the policy's target, a missing target is optimized, and a given target
    is evaluated.
    """
    # (ergodic, given-target, optimized) estimators, read from the module's
    # names on each call: perfbench's tracer rebinds them to its wrappers
    ergodic, evaluate, optimum = {
        VariableRate: (ergodic_rate_variable, effective_rate_variable, optimal_epsilon),
        FixedRate: (ergodic_rate_fixed, effective_rate_fixed, optimal_rate),
    }[type(policy)]
    target, kw = policy.target, policy.options
    search = {}
    if params.theta == 0.0:
        if target is None:
            raise DomainError(
                f"theta = 0 rows need an explicit {policy.target_name} target "
                "(the ergodic limit is evaluated, not optimized)")
        est = ergodic(target, samples, params, **kw)
    elif target is None:
        est = optimum(samples, params, **kw)
        target = est.argument
        search = {"iterations": est.iterations, "at_boundary": est.at_boundary}
    else:
        est = evaluate(target, samples, params, **kw)
    return SweepRow(m=params.m, theta=params.theta, effective_rate=est.value,
                    std_error=est.std_error, argument=target, **search)


def sweep(params: SystemParams, m_values: Sequence[int], theta_grid: Sequence[float],
          policies: Sequence[RatePolicy], count: int, seed: int) -> list[SweepRow]:
    """Every policy at every (m, theta) point, on gains common to all of them.

    params supplies the SNR and n (its m and theta are not used).  Each
    point is checked as the SystemParams it is evaluated at, before anything
    is drawn; then one master set of max(m_values)-block realizations is
    drawn and each m evaluated on its prefix.  Rows come in m (outer),
    theta, policy (inner) order, each in the order given.
    """
    m_values, theta_grid, policies = list(m_values), list(theta_grid), list(policies)
    points = [SystemParams(params.snr_linear, params.n, m, float(theta))
              for m in m_values for theta in theta_grid]
    if not (points and policies):
        raise DomainError("m_values, theta_grid and policies must be nonempty")
    for policy in policies:
        if not isinstance(policy, RatePolicy):
            raise DomainError(f"unknown rate policy: {policy!r}")
    prefixes = SampleSet.draw(Rayleigh(), max(m_values), count, seed).prefixes(m_values, params)
    tasks = [(lambda sub=prefixes[p.m], p=p, policy=policy: _evaluate_policy(sub, p, policy))
             for p in points for policy in policies]
    return _run_rows(tasks)


def sweep_m(params: SystemParams, m_values: Sequence[int], policy: RatePolicy,
            count: int, seed: int) -> tuple[list[SweepRow], int]:
    """Throughput versus blocks-per-codeword at params.theta, on gains common
    across m.

    Returns the rows (in the given m order) and the m attaining the highest
    effective rate (first hit on ties).
    """
    rows = sweep(params, m_values, [params.theta], [policy], count, seed)
    best = max(range(len(rows)), key=lambda i: (rows[i].effective_rate, -i))
    return rows, rows[best].m


def sweep_theta(params: SystemParams, theta_grid: Sequence[float],
                m_values: Sequence[int], policy: RatePolicy,
                count: int, seed: int) -> list[SweepRow]:
    """Optimized (or evaluated) throughput over a theta grid for several m.

    Rows are grouped by m (outer) with theta ascending as given (inner); all
    (theta, m) points with equal m share one prefix of the master gain set.
    """
    return sweep(params, m_values, theta_grid, [policy], count, seed)
