"""Acceptance gate: one test per advertised guarantee of the package.

Each test pins the tolerance and (where stated) the runtime budget of one
end-to-end guarantee.  Run `pytest tests/test_acceptance.py -v` for the
per-criterion pass/fail report; add -s to see measured margins.

Statistical criteria use fixed seeds, so every run checks the identical
realization; tolerances were chosen against the estimator's standard error,
not tuned to a lucky draw (see the margin prints).
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.stats

from blockrate.channel import Rayleigh, SystemParams
from blockrate.cli import main
from blockrate.effective_rate import (
    SampleSet,
    effective_rate_fixed,
    effective_rate_variable,
    ergodic_rate_variable,
    log_psi,
    phi,
)
from blockrate.fbl import (
    VariableRate,
    error_probability,
    mi_density_samples_exact,
    rate_lower_bound,
    rate_stats,
)
from blockrate.optimize import optimal_epsilon, optimal_rate, sweep_theta
from blockrate.queue_sim import QueueConfig, estimate_decay_rate, simulate_queue
from blockrate.special import q_function, q_inverse, q_inverse_deriv

SNR_0DB = 1.0
TWELVE_CONFIGS = [(n, m, theta)
                  for n in (50, 200) for m in (1, 2, 10)
                  for theta in (0.01, 0.1)]


@pytest.fixture(scope="module")
def master10():
    return SampleSet.draw(Rayleigh(), 10, 100_000, seed=2024)


@pytest.fixture(scope="module")
def prefixes10(master10):
    return {m: master10.prefix(m) for m in (1, 2, 5, 10)}


def _sign_changes(values: np.ndarray) -> int:
    """Sign flips of the first-difference sequence, ignoring exact ties."""
    s = np.sign(np.diff(values))
    s = s[s != 0]
    return int(np.count_nonzero(np.diff(s)))


def _psi_minus_epsilon(eps: float, ss: SampleSet, params: SystemParams) -> float:
    """psi(eps) - eps, computed without adding eps to the tiny residual.

    Second differences annihilate affine terms, so the curvature of psi
    equals the curvature of this residual exactly; for severe QoS exponents
    the residual sits dozens of decades below eps, where the direct sum
    psi = eps + residual rounds to eps and its curvature drowns in roundoff.
    """
    mu, delta = ss.stats(params)
    x = -params.theta * params.nm * (mu - delta * q_inverse(eps))
    xm = float(x.max())
    return math.exp(xm + math.log1p(-eps)) * float(np.exp(x - xm).mean())


def test_criterion_01_quantile_round_trip_and_derivative():
    t0 = time.perf_counter()
    x = np.linspace(-6.0, 6.0, 1201)
    p = q_function(x)

    # probability-space round trip: exact to double precision
    p_err = np.abs(np.array([q_function(q_inverse(pi)) for pi in p]) - p)
    assert p_err.max() <= 1e-9

    # argument-space round trip: 1e-9 wherever Q(x) itself retains that
    # much information; the deep left tail (Q(x) -> 1, spacing ulp(1)/2)
    # is capped by what the stored probability can encode
    x_back = np.array([q_inverse(pi) for pi in p])
    x_err = np.abs(x_back - x)
    info_cap = 1.2 * (np.spacing(1.0) / 2) * math.sqrt(2 * math.pi) * np.exp(x * x / 2)
    assert x_err[x >= -5.0].max() <= 1e-9
    deep = x < -5.0
    assert np.all(x_err[deep] <= info_cap[deep])

    # derivative against a 5-point finite-difference stencil
    rng = np.random.default_rng(42)
    worst = 0.0
    for xi in rng.uniform(-4.0, 4.0, 50):
        pi = q_function(xi)
        h = 1e-4 * min(pi, 1.0 - pi)
        fd = (-q_inverse(pi + 2 * h) + 8 * q_inverse(pi + h)
              - 8 * q_inverse(pi - h) + q_inverse(pi - 2 * h)) / (12 * h)
        worst = max(worst, abs(fd - q_inverse_deriv(pi)) / abs(q_inverse_deriv(pi)))
    assert worst <= 1e-6

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\ncriterion 01 PASS: p-err {p_err.max():.2e}, "
          f"x-err(core) {x_err[x >= -5.0].max():.2e}, deriv {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_rate_error_probability_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    checked = 0
    worst = 0.0
    while checked < 1000:
        m = int(rng.integers(1, 11))
        n = int(rng.integers(50, 1001))
        snr = 10.0 ** rng.uniform(-1.0, 1.0)
        params = SystemParams(snr, n, m, 0.01)
        z = rng.exponential(1.0, m)
        eps = 10.0 ** rng.uniform(-6.0, math.log10(0.99))
        r = rate_lower_bound(z, params, eps)
        if r < 0.0:  # not a legal coding rate; redraw
            continue
        worst = max(worst, abs(error_probability(z, params, r) - eps))
        checked += 1
    assert worst <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\ncriterion 02 PASS: 1000 tuples, worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_exact_sampler_matches_gaussian_stats():
    t0 = time.perf_counter()
    details = []
    for n, m in ((200, 1), (50, 4)):
        params = SystemParams(SNR_0DB, n, m, 0.01)
        z = np.random.default_rng(7).exponential(1.0, m)
        st = rate_stats(z, params)
        draws = mi_density_samples_exact(z, params, 1_000_000, seed=5)

        mean_err = abs(draws.mean() - st.mu)
        mean_tol = 3.0 * st.delta / math.sqrt(draws.size)
        assert mean_err <= mean_tol

        var_err = abs(draws.var(ddof=1) - st.delta**2) / st.delta**2
        assert var_err <= 0.02

        ks = scipy.stats.kstest(draws, "norm", args=(st.mu, st.delta)).statistic
        assert ks <= 0.02
        details.append(f"(n={n},m={m}): mean {mean_err/mean_tol:.2f}x tol, "
                       f"var {var_err:.4f}, KS {ks:.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\ncriterion 03 PASS: {'; '.join(details)}, {elapsed:.1f}s")


def test_criterion_04_psi_convex_and_epsilon_search_matches_grid(prefixes10):
    t0 = time.perf_counter()
    conv_grid = np.linspace(0.001, 0.999, 200)
    fine = np.geomspace(1e-8, 0.999, 2000)
    floor_limited = []
    for n, m, theta in TWELVE_CONFIGS:
        params = SystemParams(SNR_0DB, n, m, theta)
        ss = prefixes10[m]

        # curvature of psi via its nonlinear residual (see helper docstring)
        vals = np.array([_psi_minus_epsilon(e, ss, params) for e in conv_grid])
        assert np.all(np.diff(vals, 2) > 0), f"convexity failed at {(n, m, theta)}"

        opt = optimal_epsilon(ss, params)
        lp = np.array([log_psi(e, ss, params) for e in fine])
        k = int(np.argmin(lp))
        if k == 0 and opt.at_boundary and opt.argument <= fine[0]:
            # the exponential residual stays below machine epsilon until
            # Q^{-1}(eps) ~ mu/delta, i.e. eps ~ 1e-80 or less: both the
            # search and the grid slam their small-eps floors, agreeing the
            # minimizer lies at or below the representable range
            floor_limited.append((n, m, theta))
            continue
        spacing = fine[min(k + 1, fine.size - 1)] - fine[max(k - 1, 0)]
        assert abs(opt.argument - fine[k]) <= spacing, \
            f"eps* off-grid at {(n, m, theta)}: {opt.argument} vs {fine[k]}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\ncriterion 04 PASS: 12 configs convex, search on grid "
          f"({len(floor_limited)} floor-limited: {floor_limited}), {elapsed:.1f}s")


def test_criterion_05_phi_unique_minimum_and_rate_search_matches_grid(prefixes10):
    t0 = time.perf_counter()
    for n, m, theta in TWELVE_CONFIGS:
        params = SystemParams(SNR_0DB, n, m, theta)
        ss = prefixes10[m]
        mu, delta = ss.stats(params)
        r_hi = float(np.max(mu + 20.0 * delta))

        assert phi(0.0, ss, params) == 1.0
        assert abs(phi(r_hi, ss, params) - 1.0) <= 1e-6

        grid = np.linspace(0.0, r_hi, 2000)
        vals = np.array([phi(r, ss, params) for r in grid])
        assert _sign_changes(vals) == 1, f"not unimodal at {(n, m, theta)}"

        opt = optimal_rate(ss, params)
        k = int(np.argmin(vals))
        assert abs(opt.argument - grid[k]) <= grid[1] - grid[0], \
            f"R* off-grid at {(n, m, theta)}: {opt.argument} vs {grid[k]}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\ncriterion 05 PASS: 12 configs unimodal, search on grid, {elapsed:.1f}s")


def test_criterion_06_variable_rate_curves_single_interior_maximum(prefixes10):
    t0 = time.perf_counter()
    grid = np.geomspace(1e-8, 0.999, 120)
    peaks = {}
    for m in (1, 2, 5, 10):
        params = SystemParams(SNR_0DB, 200, m, 0.01)
        ss = prefixes10[m]
        vals = np.array([effective_rate_variable(e, ss, params).value
                         for e in grid])
        k = int(np.argmax(vals))
        assert 0 < k < grid.size - 1, f"maximum at grid edge for m={m}"
        assert _sign_changes(vals) == 1, f"extra extrema for m={m}"
        peaks[m] = grid[k]
    elapsed = time.perf_counter() - t0
    print("\ncriterion 06 PASS: interior maxima at "
          + ", ".join(f"m={m}: {e:.2e}" for m, e in peaks.items())
          + f", {elapsed:.1f}s")


def test_criterion_07_block_count_tradeoff_vs_qos_exponent():
    t0 = time.perf_counter()
    thetas = [0.0, 0.001, 0.01, 0.1]
    base = SystemParams(SNR_0DB, 50, 50, 0.001)
    rows = sweep_theta(base, thetas, list(range(1, 51)),
                       VariableRate(epsilon=0.01), 100_000, seed=2024)

    def curve(theta):
        sub = sorted((r for r in rows if r.theta == theta), key=lambda r: r.m)
        return (np.array([r.effective_rate for r in sub]),
                np.array([r.std_error for r in sub]))

    # unconstrained limit: more blocks never hurt (within sampling error)
    v0, s0 = curve(0.0)
    slack = v0[1:] - v0[:-1] + 2.0 * np.hypot(s0[:-1], s0[1:])
    assert np.all(slack >= 0.0)

    # constrained: the best block count is interior and shrinks with theta
    m_stars = []
    for theta in thetas[1:]:
        v, _ = curve(theta)
        m_star = int(np.argmax(v)) + 1
        assert m_star < 50, f"m* hit the grid edge at theta={theta}"
        m_stars.append(m_star)
    assert all(a >= b for a, b in zip(m_stars, m_stars[1:]))
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 07 PASS: theta=0 nondecreasing (min slack "
          f"{slack.min():.1e}), m* = {m_stars}, {elapsed:.1f}s")


def test_criterion_08_optimal_block_count_crossover():
    t0 = time.perf_counter()
    grid = np.geomspace(1e-3, 1.0, 20)
    base = SystemParams(0.1, 50, 10, float(grid[0]))  # -10 dB
    rows = sweep_theta(base, [float(t) for t in grid], [1, 2, 5, 10],
                       VariableRate(), 200_000, seed=11)

    first = [r for r in rows if r.theta == grid[0]]
    last = [r for r in rows if r.theta == grid[-1]]
    assert max(first, key=lambda r: r.effective_rate).m == 10
    assert min(last, key=lambda r: r.effective_rate).m == 10
    elapsed = time.perf_counter() - t0
    gap_lo = sorted(r.effective_rate for r in first)[-1] - \
        sorted(r.effective_rate for r in first)[-2]
    gap_hi = sorted(r.effective_rate for r in last)[1] - \
        sorted(r.effective_rate for r in last)[0]
    print(f"\ncriterion 08 PASS: m=10 on top at theta={grid[0]:.0e} "
          f"(gap {gap_lo:.1e}), at bottom at theta={grid[-1]:.0f} "
          f"(gap {gap_hi:.1e}), {elapsed:.1f}s")


def test_criterion_09_fixed_rate_optimum_unique_and_improves_with_m(prefixes10):
    t0 = time.perf_counter()
    values = {}
    for m in (1, 2, 5, 10):
        params = SystemParams(SNR_0DB, 200, m, 0.01)
        ss = prefixes10[m]
        opt = optimal_rate(ss, params)
        assert not opt.at_boundary
        grid = np.linspace(0.0, opt.bracket[1], 1000)
        vals = np.array([phi(r, ss, params) for r in grid])
        assert _sign_changes(vals) == 1, f"R* not unique for m={m}"
        values[m] = opt.value
    assert values[10] > values[1]
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 09 PASS: unique R* each m, value m=10 ({values[10]:.4f})"
          f" > m=1 ({values[1]:.4f}), {elapsed:.1f}s")


def test_criterion_10_monte_carlo_matches_quadrature(prefixes10):
    t0 = time.perf_counter()
    params = SystemParams(SNR_0DB, 200, 1, 0.01)
    ss = prefixes10[1]
    rule = SampleSet.laguerre()

    checks = []
    est = effective_rate_variable(0.03, ss, params)
    checks.append(("variable", est, effective_rate_variable(0.03, rule, params).value))
    estf = effective_rate_fixed(0.5, ss, params)
    checks.append(("fixed", estf, effective_rate_fixed(0.5, rule, params).value))
    este = ergodic_rate_variable(0.03, ss, params)
    checks.append(("ergodic", este, ergodic_rate_variable(0.03, rule, params).value))

    sigmas = {}
    for name, mc, quad in checks:
        assert abs(mc.value - quad) <= 3.0 * mc.std_error, name
        sigmas[name] = abs(mc.value - quad) / mc.std_error
    elapsed = time.perf_counter() - t0
    print("\ncriterion 10 PASS: "
          + ", ".join(f"{k} {v:.2f} sigma" for k, v in sigmas.items())
          + f", {elapsed:.1f}s")


def test_criterion_11_queue_tail_decay_matches_exponent():
    t0 = time.perf_counter()
    results = []
    for theta, n, m in ((0.01, 200, 1), (0.01, 50, 4), (0.05, 50, 2)):
        params = SystemParams(SNR_0DB, n, m, theta)
        draws = SampleSet.draw(Rayleigh(), m, 100_000, seed=2024)
        opt = optimal_epsilon(draws, params)
        cfg = QueueConfig(
            arrival_bits_per_frame=opt.value * params.nm,
            frames=10_000_000,
            burn_in_frames=100_000,
            seed=31337,
            policy=VariableRate(epsilon=opt.argument),
            params=params,
        )
        res = simulate_queue(cfg)
        assert not res.unstable
        est = estimate_decay_rate(res.samples)
        rel = (est.theta_hat - theta) / theta
        assert abs(rel) <= 0.15, f"(theta={theta}, n={n}, m={m}): {rel:+.1%}"
        results.append(f"({theta},{n},{m}): {rel:+.1%} (r2={est.fit_r2:.4f})")
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"\ncriterion 11 PASS: {'; '.join(results)}, {elapsed:.1f}s")


def test_criterion_12_cli_byte_determinism(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    argv = ["fig2", "--theta", "0.01,0.1", "--m", "1..8", "--epsilon", "0.01",
            "--n", "50", "--samples", "20000"]

    def run(name):
        out = tmp_path / name
        assert main(argv + ["-o", str(out)]) == 0
        return out.read_bytes()

    monkeypatch.setenv("BLOCKRATE_THREADS", "1")
    serial = run("t1.csv")
    monkeypatch.setenv("BLOCKRATE_THREADS", "4")
    threaded = run("t4.csv")
    monkeypatch.delenv("BLOCKRATE_THREADS")
    default = run("t0.csv")
    rerun = run("t0b.csv")
    assert serial == threaded == default == rerun

    sim = ["simulate", "--theta", "0.05", "--n", "50", "--m", "2",
           "--epsilon", "0.02", "--samples", "5000", "--frames", "50000",
           "--burn-in", "1000", "--format", "json"]
    a, b = tmp_path / "sa.json", tmp_path / "sb.json"
    assert main(sim + ["-o", str(a)]) == 0
    assert main(sim + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    json.loads(a.read_text())  # and it is valid JSON
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 12 PASS: fig2 x4 identical, simulate rerun identical, "
          f"{elapsed:.1f}s")
