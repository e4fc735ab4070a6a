"""Brent search, the two scalar optimizers, and sweep drivers."""

import math

import numpy as np
import pytest

from blockrate.channel import Deterministic, Rayleigh, SystemParams
from blockrate.effective_rate import (
    SampleSet,
    effective_rate_fixed,
    effective_rate_variable,
    ergodic_rate_variable,
    log_psi,
    phi,
    psi_derivative,
)
from blockrate.errors import DomainError
from blockrate.fbl import FixedRate, VariableRate
from blockrate.optimize import (
    EPSILON_BRACKET,
    Optimum,
    SweepRow,
    _evaluate_policy,
    brent_minimize,
    optimal_epsilon,
    optimal_rate,
    sweep_m,
    sweep_theta,
)

P1 = SystemParams(snr_linear=1.0, n=200, m=1, theta=0.01)


@pytest.fixture(scope="module")
def samples():
    return SampleSet.draw(Rayleigh(), 1, 20_000, seed=7)


@pytest.fixture(scope="module")
def samples10():
    return SampleSet.draw(Rayleigh(), 10, 20_000, seed=7)


class TestBrentMinimize:
    def test_quadratic(self):
        x, evals, at_edge = brent_minimize(lambda x: (x - 1.7) ** 2, 0.0, 5.0, tol=1e-10)
        assert x == pytest.approx(1.7, abs=1e-9)
        assert not at_edge
        # a parabola is fitted exactly once three points are known
        assert evals < 10

    def test_asymmetric_objective(self):
        # exp(x) - 2x has its minimum at ln 2.  Within sqrt(eps_mach)*ln 2 of
        # it, f differs from f(ln 2) by under one ulp, so no search on f
        # values can place it closer than the stated 2*(sqrt(eps_mach)*|x| + tol/3)
        x, _, at_edge = brent_minimize(lambda x: math.exp(x) - 2 * x, 0.0, 2.0, tol=1e-10)
        sqrt_eps = math.sqrt(np.finfo(float).eps)
        assert x == pytest.approx(math.log(2.0), abs=2 * (sqrt_eps * math.log(2.0) + 1e-10 / 3))
        assert not at_edge

    def test_monotone_objective_lands_on_edge(self):
        x, _, at_edge = brent_minimize(lambda x: x, 0.0, 1.0, tol=1e-9)
        assert at_edge
        assert x == 0.0
        x, _, at_edge = brent_minimize(lambda x: -x, -3.0, 2.0, tol=1e-9)
        assert at_edge
        assert x == 2.0

    def test_interior_minimum_near_edge_not_flagged(self):
        # the edge test is the search's own resolution, not a fixed multiple
        # of tol: a minimum 1e-6 inside the bracket is interior
        x, _, at_edge = brent_minimize(lambda x: (x - 1e-6) ** 2, 0.0, 1.0, tol=1e-9)
        assert x == pytest.approx(1e-6, abs=1e-8)
        assert not at_edge

    def test_bad_bracket(self):
        with pytest.raises(DomainError):
            brent_minimize(lambda x: x * x, 1.0, 1.0)
        with pytest.raises(DomainError):
            brent_minimize(lambda x: x * x, 2.0, -1.0)


class TestOptimalEpsilon:
    def test_interior_optimum_matches_grid(self, samples):
        opt = optimal_epsilon(samples, P1)
        assert isinstance(opt, Optimum)
        assert not opt.at_boundary
        assert EPSILON_BRACKET[0] < opt.argument < EPSILON_BRACKET[1]
        grid = np.geomspace(1e-8, 0.999, 2000)
        vals = np.array([log_psi(e, samples, P1) for e in grid])
        k = int(np.argmin(vals))
        spacing = grid[min(k + 1, len(grid) - 1)] - grid[max(k - 1, 0)]
        assert abs(opt.argument - grid[k]) <= spacing
        # and the argmin is a stationary point of psi
        scale = abs(psi_derivative(0.5, samples, P1))
        assert abs(psi_derivative(opt.argument, samples, P1)) < 1e-5 * scale

    def test_interior_optimum_takes_few_evaluations(self, samples):
        assert optimal_epsilon(samples, P1).iterations <= 25

    @pytest.mark.parametrize("theta, eps_near", [(0.03, 6.5e-9), (0.04, 6.2e-10)])
    def test_rare_event_optimum_is_interior(self, samples10, theta, eps_near):
        # eps* far below 1e-7 is still resolved and not flagged
        p = SystemParams(1.0, 200, 10, theta)
        opt = optimal_epsilon(samples10, p)
        assert not opt.at_boundary
        assert opt.argument == pytest.approx(eps_near, rel=0.01)
        grid = np.geomspace(1e-10, 1e-6, 4001)
        best = min(log_psi(e, samples10, p) for e in grid)
        assert log_psi(opt.argument, samples10, p) <= best

    def test_optimum_below_bracket_reports_edge(self, samples10):
        opt = optimal_epsilon(samples10, SystemParams(1.0, 200, 10, 0.05))
        assert opt.at_boundary
        assert opt.argument == EPSILON_BRACKET[0]

    def test_value_consistent_with_reevaluation(self, samples):
        opt = optimal_epsilon(samples, P1)
        est = effective_rate_variable(opt.argument, samples, P1)
        assert opt.value == est.value and opt.std_error == est.std_error

    def test_boundary_flagged_at_extreme_theta(self):
        # without deep fades and with a severe QoS exponent, psi ~ eps and
        # the minimizer slides onto the lower bracket edge
        ss = SampleSet(np.full((8, 1), 5.0))
        p = SystemParams(1.0, 200, 1, 10.0)
        opt = optimal_epsilon(ss, p)
        assert opt.at_boundary
        assert opt.argument < 1e-6

    def test_clamp_plumbs_through(self, samples):
        p = SystemParams(1.0, 50, 1, 0.05)
        raw = optimal_epsilon(samples, p)
        cl = optimal_epsilon(samples, p, clamp=True)
        assert cl.value >= raw.value - 1e-12


class TestOptimalRate:
    def test_interior_optimum_matches_grid(self, samples):
        opt = optimal_rate(samples, P1)
        assert not opt.at_boundary
        assert 0 < opt.iterations <= 25
        lo, hi = opt.bracket
        grid = np.linspace(lo, hi, 2000)
        vals = np.array([phi(r, samples, P1) for r in grid])
        k = int(np.argmin(vals))
        spacing = grid[1] - grid[0]
        assert abs(opt.argument - grid[k]) <= 2 * spacing

    def test_value_consistent_with_reevaluation(self, samples):
        opt = optimal_rate(samples, P1)
        est = effective_rate_fixed(opt.argument, samples, P1)
        assert opt.value == est.value

    def test_zero_gains_flat_objective(self):
        ss = SampleSet.draw(Deterministic(gains=(0.0,)), 1, 8, seed=0)
        opt = optimal_rate(ss, P1)
        assert opt.value == 0.0


def _direct_row_value(policy, m, count, seed, params):
    ss = SampleSet.draw(Rayleigh(), m, count, seed).prefix(m)
    if isinstance(policy, VariableRate):
        return effective_rate_variable(policy.epsilon, ss, params.with_m(m)).value
    return effective_rate_fixed(policy.rate, ss, params.with_m(m)).value


class TestSweepM:
    def test_single_m_equals_direct_evaluation(self):
        policy = VariableRate(epsilon=0.02)
        rows, m_star = sweep_m(P1, [1], policy, count=5_000, seed=3)
        assert m_star == 1 and len(rows) == 1
        assert rows[0].effective_rate == _direct_row_value(policy, 1, 5_000, 3, P1)
        assert rows[0].argument == 0.02
        assert rows[0].policy == policy.describe()

    def test_duplicate_m_rows_identical(self):
        rows, _ = sweep_m(P1, [2, 2], VariableRate(epsilon=0.05),
                          count=2_000, seed=9)
        assert rows[0] == rows[1]

    def test_m_star_is_argmax(self):
        rows, m_star = sweep_m(P1, [1, 2, 5, 10], VariableRate(),
                               count=10_000, seed=11)
        best = max(rows, key=lambda r: r.effective_rate)
        assert m_star == best.m
        assert all(isinstance(r, SweepRow) for r in rows)

    def test_prefix_sharing_beats_fresh_draws_in_consistency(self):
        # same seed, m subset vs superset: shared rows must agree exactly
        rows_a, _ = sweep_m(P1, [1, 2], VariableRate(epsilon=0.01),
                            count=4_000, seed=4)
        rows_b, _ = sweep_m(P1, [1, 2, 2], VariableRate(epsilon=0.01),
                            count=4_000, seed=4)
        assert rows_a[0] == rows_b[0] and rows_a[1] == rows_b[1]

    @pytest.mark.parametrize("policy", [VariableRate(), FixedRate(rate=0.4)])
    def test_rows_match_contiguous_prefix_copies(self, policy):
        ms = list(range(1, 13))
        rows, _ = sweep_m(P1, ms, policy, count=2_000, seed=12)
        master = SampleSet.draw(Rayleigh(), 12, 2_000, 12)
        for m, row in zip(ms, rows):
            copy = SampleSet(np.ascontiguousarray(master.gains[:, :m]), seed=12)
            assert row == _evaluate_policy(copy, P1.with_m(m), policy), m

    def test_theta_zero_requires_explicit_target(self):
        p0 = SystemParams(1.0, 50, 1, 0.0)
        with pytest.raises(DomainError):
            sweep_m(p0, [1, 2], VariableRate(), count=100, seed=0)
        with pytest.raises(DomainError):
            sweep_m(p0, [1], FixedRate(), count=100, seed=0)

    def test_theta_zero_with_target_takes_ergodic_path(self):
        p0 = SystemParams(1.0, 50, 1, 0.0)
        rows, _ = sweep_m(p0, [1], VariableRate(epsilon=0.03), count=3_000, seed=5)
        ss = SampleSet.draw(Rayleigh(), 1, 3_000, 5)
        assert rows[0].effective_rate == ergodic_rate_variable(0.03, ss, p0).value

    def test_validation(self):
        with pytest.raises(DomainError):
            sweep_m(P1, [], VariableRate(epsilon=0.1), count=10, seed=0)
        with pytest.raises(DomainError):
            sweep_m(P1, [0, 1], VariableRate(epsilon=0.1), count=10, seed=0)


class TestSweepTheta:
    def test_row_ordering_and_grouping(self):
        rows = sweep_theta(P1, [0.01, 0.1], [2, 1], VariableRate(epsilon=0.05),
                           count=1_000, seed=2)
        assert [(r.m, r.theta) for r in rows] == \
            [(2, 0.01), (2, 0.1), (1, 0.01), (1, 0.1)]

    def test_theta_zero_row_is_ergodic(self):
        rows = sweep_theta(P1, [0.0, 0.05], [1], VariableRate(epsilon=0.02),
                           count=2_000, seed=8)
        ss = SampleSet.draw(Rayleigh(), 1, 2_000, 8)
        erg = ergodic_rate_variable(0.02, ss, SystemParams(1.0, 200, 1, 0.0))
        assert rows[0].effective_rate == erg.value
        assert rows[0].effective_rate >= rows[1].effective_rate

    def test_optimized_rows_record_argument(self):
        rows = sweep_theta(P1, [0.05], [1], VariableRate(), count=2_000, seed=8)
        assert rows[0].argument is not None
        assert 0.0 < rows[0].argument < 1.0
        assert rows[0].policy == "variable-rate(optimized-epsilon)"

    def test_validation(self):
        with pytest.raises(DomainError):
            sweep_theta(P1, [], [1], VariableRate(epsilon=0.1), count=10, seed=0)
        with pytest.raises(DomainError):
            sweep_theta(P1, [-0.1], [1], VariableRate(epsilon=0.1), count=10, seed=0)
        with pytest.raises(DomainError):
            sweep_theta(P1, [0.1], [], VariableRate(epsilon=0.1), count=10, seed=0)


class TestThreading:
    @pytest.mark.parametrize("raw", ["abc", "0", "-2"])
    def test_invalid_thread_cap_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("BLOCKRATE_THREADS", raw)
        with pytest.raises(DomainError):
            sweep_m(P1, [1, 2], VariableRate(epsilon=0.1), count=100, seed=0)

    def test_results_independent_of_worker_count(self, monkeypatch):
        def run():
            return sweep_theta(P1, [0.005, 0.02, 0.08], [1, 2, 3],
                               VariableRate(), count=2_000, seed=13)

        monkeypatch.setenv("BLOCKRATE_THREADS", "1")
        serial = run()
        monkeypatch.setenv("BLOCKRATE_THREADS", "4")
        threaded = run()
        assert serial == threaded
