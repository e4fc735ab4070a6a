"""Newton search, the two scalar optimizers, and sweep drivers."""

import functools
import math
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import log_ndtr

import blockrate
from blockrate import channel
from blockrate.channel import Rayleigh, SystemParams
from blockrate.effective_rate import (
    SampleSet,
    effective_rate_fixed,
    effective_rate_variable,
    ergodic_rate_variable,
    log_phi_slopes,
    log_psi,
    log_psi_slopes,
    phi,
)
from blockrate.errors import ComputationError, DomainError
from blockrate.fbl import FixedRate, VariableRate
from blockrate.optimize import (
    _X_BRACKET,
    EPSILON_BRACKET,
    Optimum,
    SweepRow,
    _evaluate_policy,
    _run_rows,
    newton_minimize,
    optimal_epsilon,
    optimal_rate,
    sweep,
    sweep_m,
    sweep_theta,
)
from blockrate.special import q_function, q_inverse

P1 = SystemParams(snr_linear=1.0, n=200, m=1, theta=0.01)


@pytest.fixture(scope="module")
def samples():
    return SampleSet.draw(Rayleigh(), 1, 20_000, seed=7)


@pytest.fixture(scope="module")
def samples10():
    return SampleSet.draw(Rayleigh(), 10, 20_000, seed=7)


def _quadratic(root):
    return lambda x: ((x - root) ** 2, 2.0 * (x - root), 2.0)


class TestNewtonMinimize:
    def test_quadratic(self):
        x, evals, at_edge = newton_minimize(_quadratic(1.7), 0.0, 5.0, 4.0)
        assert x == pytest.approx(1.7, abs=1e-12)
        assert not at_edge
        # a Newton step lands on a quadratic's minimum
        assert evals <= 2

    def test_asymmetric_objective(self):
        # exp(x) - 2x has its minimum at ln 2, where the slope exp(x) - 2 is
        # resolved to rounding, unlike the objective itself
        x, evals, at_edge = newton_minimize(
            lambda x: (math.exp(x) - 2 * x, math.exp(x) - 2.0, math.exp(x)), 0.0, 2.0, 1.5)
        assert x == pytest.approx(math.log(2.0), abs=1e-12)
        assert not at_edge
        assert evals < 10

    def test_monotone_objective_lands_on_edge(self):
        # a linear objective has f'' = 0 and no Newton step: the edge in the
        # descent direction is read at once
        for slope, edge in ((1.0, 0.0), (-1.0, 2.0)):
            x, evals, at_edge = newton_minimize(lambda x: (slope * x, slope, 0.0), 0.0, 2.0, 0.5)
            assert at_edge and x == edge
            assert evals == 2

    def test_interior_minimum_near_edge_not_flagged(self):
        for root in (1e-6, 2.0 - 1e-6):
            x, _, at_edge = newton_minimize(_quadratic(root), 0.0, 2.0, 1.0)
            assert x == pytest.approx(root, abs=1e-12)
            assert not at_edge

    def test_root_beyond_edge_with_convex_tail(self):
        # f = exp(-x) is still falling at the upper edge; once its Newton
        # steps of +1 stop halving, the edge is read and ends the search
        x, evals, at_edge = newton_minimize(
            lambda x: (math.exp(-x), -math.exp(-x), math.exp(-x)), 0.0, 10.0, 1.0)
        assert at_edge and x == 10.0
        assert evals <= 4

    def test_bad_bracket(self):
        for lo, hi in ((1.0, 1.0), (2.0, -1.0)):
            with pytest.raises(DomainError):
                newton_minimize(_quadratic(0.0), lo, hi, lo)
        with pytest.raises(DomainError):
            newton_minimize(_quadratic(0.0), 0.0, 1.0, 1.5)

    def test_non_finite_slope_raises(self):
        with pytest.raises(ComputationError):
            newton_minimize(lambda x: (0.0, math.nan, 1.0), 0.0, 1.0, 0.5)


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
        # and the argmin is a stationary point of ln psi
        scale = abs(log_psi_slopes(0.0, samples, P1)[1])
        assert abs(log_psi_slopes(q_inverse(opt.argument), samples, P1)[1]) < 1e-5 * scale

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

    @pytest.mark.parametrize("theta", [1e-16, 1e-300])
    def test_vanishing_theta_gives_ergodic_optimum(self, samples, theta):
        # theta*n*m*|R| is so small that exp(-theta*n*m*R) rounds to 1, and
        # the optimum is the ergodic one: max over eps of E[(1-eps)*R]
        p = SystemParams(1.0, 50, 1, theta)
        opt = optimal_epsilon(samples, p)
        assert not opt.at_boundary
        assert EPSILON_BRACKET[0] < opt.argument < EPSILON_BRACKET[1]
        best = minimize_scalar(
            lambda x: -ergodic_rate_variable(q_function(x), samples, p).value,
            bounds=_X_BRACKET, method="bounded", options={"xatol": 1e-10})
        assert opt.value == pytest.approx(-best.fun, rel=1e-9)
        assert opt.value <= -best.fun + opt.std_error

    @pytest.mark.parametrize("theta", [1e20, 1e50, 1e150])
    def test_kinked_psi_at_huge_theta_is_searched(self, theta):
        # at huge theta*n*m ln psi is nearly piecewise linear in x: the
        # curvature at the start rounds the first Newton step to 0, which
        # must not end the search there.  eps* tends to Q(min mu/delta),
        # where the first row's rate reaches 0
        ss = SampleSet.draw(Rayleigh(), 1, 200, seed=1)
        p = SystemParams(1.0, 1, 1, theta)
        mu, delta = ss.stats(p)
        opt = optimal_epsilon(ss, p)
        assert opt.argument == pytest.approx(q_function(float(np.min(mu / delta))), rel=1e-8)
        assert opt.value > 0.0 and not opt.at_boundary

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

    @pytest.mark.parametrize("m", [5, 10])
    def test_large_theta_optimum_beats_dense_grid(self, m):
        # theta*n*m is 1000 and 2000, and phi at R* near 1e-11 and 1e-35;
        # searching -(1 - phi), which rounds to -1 below 1e-16, stopped far
        # from R* at m = 10
        ss = SampleSet.draw(Rayleigh(), m, 20_000, seed=7)
        p = SystemParams(1.0, 200, m, 1.0)
        opt = optimal_rate(ss, p)
        assert not opt.at_boundary
        grid = np.linspace(0.0, opt.bracket[1], 2001)[1:]
        best = max(effective_rate_fixed(r, ss, p).value for r in grid)
        assert opt.value >= best * (1.0 - 1e-12)

    def test_laguerre_rule_is_no_oracle_for_rate_optimum(self):
        # each of the rule's 200 nodes is a steep step in R, so ln phi is not
        # unimodal on it: the one Newton pass stops, unflagged, on a local
        # optimum near R = 4.66, 10% below the grid maximum near R = 4.04
        ss, p = SampleSet.laguerre(), SystemParams.from_db(20.0, 500, 1, 1e-3)
        opt = optimal_rate(ss, p)
        assert (opt.iterations, opt.at_boundary) == (11, False)
        # E[1-eps] is its own sum, so the slope at the top of the bracket is
        # positive although the weights sum to 1 - 1.1e-16
        assert log_phi_slopes(opt.bracket[1], ss, p)[1] > 0.0
        assert opt.argument == pytest.approx(4.6594, abs=1e-4)
        assert opt.value == pytest.approx(2.5568, abs=1e-4)
        grid = np.linspace(3.5, 5.0, 1501)
        values = [effective_rate_fixed(r, ss, p).value for r in grid]
        k = int(np.argmax(values))
        assert grid[k] == pytest.approx(4.04, abs=0.01)
        assert values[k] == pytest.approx(2.849, abs=1e-3)

    def test_bracket_narrower_than_the_tolerance_is_searched(self):
        # `blockrate optimize-rate --snr-db -200 --samples 2000`: R_hi is
        # 4.4e-10, under an absolute step of 1e-8, which stopped the search
        # after 2 evaluations at R = 2.19e-11, 34% below the grid's best
        ss = SampleSet.draw(Rayleigh(), 1, 2_000, seed=1)
        p = SystemParams.from_db(-200.0, 200, 1, 0.01)
        opt = optimal_rate(ss, p)
        assert opt.bracket[1] < 1e-9 and not opt.at_boundary
        grid = np.linspace(0.0, opt.bracket[1], 4001)[1:]
        best = max((effective_rate_fixed(r, ss, p) for r in grid), key=lambda e: e.value)
        assert opt.value >= best.value - best.std_error

    def test_zero_gains_flat_objective(self):
        ss = SampleSet(np.zeros((8, 1)))
        opt = optimal_rate(ss, P1)
        assert opt.value == 0.0


# 0 dB (n = 200) and -10 dB (n = 50), m in {1, 2, 5, 10}, theta from 0.001 to 1
SEARCH_POINTS = ([(0.0, 200, m, t) for m in (1, 2, 5, 10) for t in (0.001, 0.01, 0.1, 1.0)]
                 + [(-10.0, 50, m, t) for m in (1, 2, 5, 10) for t in (0.01, 0.1, 1.0)])


@pytest.fixture(scope="module")
def sets_1e5():
    return {m: SampleSet.draw(Rayleigh(), m, 100_000, seed=1) for m in (1, 2, 5, 10)}


@pytest.mark.parametrize("snr_db, n, m, theta", SEARCH_POINTS)
def test_search_evaluation_caps(sets_1e5, snr_db, n, m, theta):
    p = SystemParams.from_db(snr_db, n, m, theta)
    eps = optimal_epsilon(sets_1e5[m], p)
    assert optimal_rate(sets_1e5[m], p).iterations <= 15
    assert eps.iterations <= 15
    if (snr_db, m, theta) == (0.0, 10, 0.1):
        # eps* lies below the bracket: the first step reads the edge
        assert eps.at_boundary and eps.iterations <= 3


@pytest.mark.parametrize("snr_db, n, m, theta", SEARCH_POINTS)
def test_phi_slope_positive_at_rate_ceiling(sets_1e5, snr_db, n, m, theta):
    # every row's eps rounds to 1 at R_hi = max(mu + 10*delta), so the one
    # search pass reads R_hi as past the optimum and never needs a wider bracket
    p = SystemParams.from_db(snr_db, n, m, theta)
    mu, delta = sets_1e5[m].stats(p)
    hi = float(np.max(mu + 10.0 * delta))
    assert log_phi_slopes(hi, sets_1e5[m], p)[1] > 0.0
    assert optimal_rate(sets_1e5[m], p).bracket == (0.0, hi)


# The probe grid: SNR x n x m x theta, 144 configurations; each m is a prefix
# of one 2e4-row master drawn with seed 1
PROBE_POINTS = [(snr_db, n, m, t) for snr_db in (-10.0, 0.0, 10.0, 20.0)
                for n in (50, 200, 500) for m in (1, 2, 5, 10) for t in (0.01, 0.1, 1.0)]
# here every row's eps underflows near R*, and a plain E[eps] reads 0: the
# kernel takes ln E[eps] from log_ndtr instead
PROBE_RATE_OVERFLOWS = {(10.0, 500, 10, 1.0), (20.0, 200, 10, 1.0), (20.0, 500, 5, 1.0),
                        (20.0, 500, 10, 0.1), (20.0, 500, 10, 1.0)}


@pytest.fixture(scope="module")
def probe_sets():
    master = SampleSet.draw(Rayleigh(), 10, 20_000, seed=1)
    return {m: master.prefix(m) for m in (1, 2, 5, 10)}


def test_probe_grid_epsilon_edge_hits(probe_sets):
    # the 1e-10 edge of the eps bracket sets the answer on 40 configurations
    hits = [optimal_epsilon(probe_sets[m], SystemParams.from_db(snr_db, n, m, t)).at_boundary
            for snr_db, n, m, t in PROBE_POINTS]
    assert sum(hits) == 40


@pytest.mark.parametrize("snr_db, n, m, theta", PROBE_POINTS)
def test_probe_grid_rate_optimum(probe_sets, snr_db, n, m, theta):
    opt = optimal_rate(probe_sets[m], SystemParams.from_db(snr_db, n, m, theta))
    assert math.isfinite(opt.argument) and math.isfinite(opt.value)
    assert not opt.at_boundary


@pytest.mark.parametrize("snr_db, n, m, theta", sorted(PROBE_RATE_OVERFLOWS))
def test_underflowing_eps_optimum_matches_log_space_grid(probe_sets, snr_db, n, m, theta):
    # ln phi on 4000 log-spaced rates, with ln E[eps] summed in log space
    # from log_ndtr row by row: its minimum is within one step of R*
    ss, p = probe_sets[m], SystemParams.from_db(snr_db, n, m, theta)
    opt = optimal_rate(ss, p)
    mu, delta = ss.stats(p)
    grid = np.geomspace(1e-3 * opt.bracket[1], opt.bracket[1], 4000)
    log_phi = np.empty(grid.size)
    rows = np.empty((50, mu.size))  # ln eps per row, for 50 rates at a time
    for lo in range(0, grid.size, 50):
        r = grid[lo:lo + 50]
        np.subtract(r[:, np.newaxis], mu, out=rows)
        rows /= delta
        log_ndtr(rows, out=rows)
        top = rows.max(axis=1)  # ln E[eps] = top + ln E[exp(ln eps - top)]
        rows -= top[:, np.newaxis]
        log_eps = top + np.log(np.exp(rows, out=rows).mean(axis=1))
        # ln E[1-eps] = ln(1 - E[eps]) is -inf where every eps rounds to 1
        with np.errstate(divide="ignore"):
            log_keep = np.log(-np.expm1(np.minimum(log_eps, 0.0)))
        log_phi[lo:lo + 50] = np.logaddexp(log_eps, log_keep - p.theta * p.nm * r)
    k = int(np.argmin(log_phi))
    assert 0 < k < grid.size - 1
    assert abs(opt.argument - grid[k]) <= grid[k + 1] - grid[k]


def _direct_row_value(policy, m, count, seed, params):
    ss = SampleSet.draw(Rayleigh(), m, count, seed).prefix(m)
    p = SystemParams(params.snr_linear, params.n, m, params.theta)
    if isinstance(policy, VariableRate):
        return effective_rate_variable(policy.epsilon, ss, p).value
    return effective_rate_fixed(policy.rate, ss, p).value


class TestSweepM:
    def test_single_m_equals_direct_evaluation(self):
        policy = VariableRate(epsilon=0.02)
        rows, m_star = sweep_m(P1, [1], policy, count=5_000, seed=3)
        assert m_star == 1 and len(rows) == 1
        assert rows[0].effective_rate == _direct_row_value(policy, 1, 5_000, 3, P1)
        assert rows[0].argument == 0.02

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
            copy = SampleSet(np.ascontiguousarray(master.gains[:, :m]))
            assert row == _evaluate_policy(copy, SystemParams(1.0, 200, m, 0.01), policy), m

    def test_theta_zero_requires_explicit_target(self):
        p0 = SystemParams(1.0, 50, 1, 0.0)
        with pytest.raises(DomainError):
            sweep_m(p0, [1, 2], VariableRate(), count=100, seed=0)
        with pytest.raises(DomainError):
            sweep_m(p0, [1], FixedRate(), count=100, seed=0)

    def test_theta_zero_without_target_rejected_before_drawing(self):
        # 10**17 samples cannot be allocated: the check must come first
        p0 = SystemParams(1.0, 50, 1, 0.0)
        with pytest.raises(DomainError, match="explicit epsilon target"):
            sweep_m(p0, [1, 2], VariableRate(), count=10**17, seed=0)

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
        with pytest.raises(DomainError, match="integral"):
            sweep_m(P1, [1], VariableRate(epsilon=0.1), count=10, seed=1.5)

    @pytest.mark.parametrize("m", [0, 1.7, 2.0, "3", None])
    def test_m_values_integer_rule(self, m):
        with pytest.raises(DomainError, match="m must be >= 1 and integral"):
            sweep(P1, [1, m], [0.01], [VariableRate(epsilon=0.1)], count=10, seed=0)

    @pytest.mark.parametrize("m,theta", [(1, float("nan")), (0, 0.01)])
    def test_bad_point_rejected_before_drawing(self, m, theta, monkeypatch):
        def draw(*args):
            raise AssertionError("drew gains for a sweep with a bad point")
        monkeypatch.setattr(SampleSet, "draw", draw)
        with pytest.raises(DomainError):
            sweep(P1, [1, m], [0.01, theta], [VariableRate(epsilon=0.1)], count=10, seed=0)

    @pytest.mark.parametrize("policy", ["variable", 0.1, None])
    def test_unknown_policy_rejected(self, policy):
        with pytest.raises(DomainError, match="unknown rate policy"):
            sweep_m(P1, [1], policy, count=10, seed=0)


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

    def test_run_rows_returns_rows_in_input_order(self, monkeypatch):
        monkeypatch.setenv("BLOCKRATE_THREADS", "2")
        last_done = threading.Event()

        def task(i):
            if i == 0:  # finishes after every later task
                assert last_done.wait(timeout=10)
            if i == 5:
                last_done.set()
            return i
        assert _run_rows([functools.partial(task, i) for i in range(6)]) == list(range(6))

    def test_run_rows_uses_workers_only_when_threads_allow(self, monkeypatch):
        tasks = [threading.get_ident] * 4
        monkeypatch.setenv("BLOCKRATE_THREADS", "1")
        assert set(_run_rows(tasks)) == {threading.get_ident()}
        monkeypatch.setenv("BLOCKRATE_THREADS", "2")
        assert threading.get_ident() not in _run_rows(tasks)

    def test_nested_run_rows_runs_inline_on_the_worker(self):
        # in a fresh interpreter: a deadlocked pool would also hang the
        # exit of the process that owns it, so the timeout kills that one
        code = textwrap.dedent("""
            import threading
            from blockrate.channel import _run_rows

            def outer():
                return threading.get_ident(), _run_rows([threading.get_ident] * 3)

            main = threading.get_ident()
            rows = _run_rows([outer] * 4)
            assert all(w != main and inner == [w] * 3 for w, inner in rows), rows
            """)
        src = str(Path(blockrate.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": path,
                                               "BLOCKRATE_THREADS": "2"})
        assert proc.returncode == 0, proc.stderr

    def test_fixed_rate_sweep_nests_one_task_per_worker_call(self, monkeypatch):
        # a four-row fixed-rate sweep evaluates each row on a pool worker,
        # and each row's phi sweep calls _run_rows from there: one block of
        # 2e4 rows, run inline on that worker
        monkeypatch.setenv("BLOCKRATE_THREADS", "2")
        calls = []
        run_rows = channel._run_rows

        def spy(tasks):
            calls.append((getattr(channel._WORKER, "pooled", False), len(tasks)))
            return run_rows(tasks)

        monkeypatch.setattr(channel, "_run_rows", spy)
        policies = [FixedRate(rate) for rate in (0.2, 0.4, 0.6, 0.8)]
        rows = sweep(P1, [1], [0.01], policies, count=20_000, seed=5)
        assert [n for pooled, n in calls if pooled] == [1] * len(rows) == [1] * 4

    def test_sweeps_start_no_threads_once_the_pool_exists(self, monkeypatch):
        monkeypatch.setenv("BLOCKRATE_THREADS", "2")

        def run():
            return sweep_m(P1, [1, 2, 3], VariableRate(), count=20_000, seed=4)

        first = run()
        threads = threading.active_count()
        for _ in range(20):
            assert run() == first
        assert threading.active_count() <= threads

    def test_concurrent_callers_share_one_pool(self, monkeypatch):
        # more callers and workers than cores, switching threads often
        monkeypatch.setenv("BLOCKRATE_THREADS", "3")
        pools, errors = set(), []

        def caller(k):
            try:
                for i in range(20):
                    tasks = [functools.partial(int, 100 * k + i + j) for j in range(6)]
                    assert _run_rows(tasks) == [100 * k + i + j for j in range(6)]
                    pools.add(id(channel._POOLS[3]))
            except Exception as exc:  # a failure on a caller thread, reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(k,)) for k in range(8)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert errors == [] and len(pools) == 1

    def test_thread_cap_read_on_every_call(self, monkeypatch):
        tasks = [threading.get_ident] * 4
        here = threading.get_ident()
        for raw, inline in (("1", True), ("2", False), ("1", True)):
            monkeypatch.setenv("BLOCKRATE_THREADS", raw)
            idents = set(_run_rows(tasks))
            assert (idents == {here}) if inline else (here not in idents)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_run_rows_task_error_propagates(self, monkeypatch, threads):
        monkeypatch.setenv("BLOCKRATE_THREADS", threads)

        def boom():
            raise RuntimeError("row failed")
        with pytest.raises(RuntimeError, match="row failed"):
            _run_rows([lambda: 1, boom, lambda: 3])
