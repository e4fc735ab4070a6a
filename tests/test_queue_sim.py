"""Frame-level queue dynamics, stability diagnostics, and tail fitting."""

import dataclasses
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from blockrate.channel import (
    Rayleigh,
    SystemParams,
    _exponential_from_uniform,
    uniform_windows,
)
from blockrate.effective_rate import SampleSet, log_psi
from blockrate.errors import DomainError, EstimationError
from blockrate.fbl import (
    FixedRate,
    VariableRate,
    error_probability_arrays,
    rate_lower_bound,
    rate_lower_bound_arrays,
    rate_stats,
)
from blockrate.optimize import optimal_epsilon
from blockrate import queue_sim
from blockrate.queue_sim import (
    _CHUNK_FRAMES,
    _SUB_FRAMES,
    QueueConfig,
    QueueResult,
    TailEstimate,
    TailHistogram,
    _fill_service,
    _lindley_chunk,
    _service_chunks,
    estimate_decay_rate,
    simulate_queue,
)

P2 = SystemParams(snr_linear=1.0, n=50, m=2, theta=0.05)


def _config(**kw):
    base = dict(arrival_bits_per_frame=10.0, frames=1_000, burn_in_frames=100,
                seed=1, policy=VariableRate(epsilon=0.01), params=P2)
    base.update(kw)
    return QueueConfig(**base)


class TestQueueConfig:
    @pytest.mark.parametrize("kw", [
        dict(arrival_bits_per_frame=-1.0),
        dict(arrival_bits_per_frame=math.inf),
        dict(frames=0),
        dict(frames=99.5),
        dict(burn_in_frames=-1),
        dict(burn_in_frames=1_000),       # >= frames
        dict(policy=VariableRate()),      # no epsilon target
        dict(policy=FixedRate()),         # no rate target
        dict(params=SystemParams(1.0, 50, 2, 0.0)),  # no tail scale
    ])
    def test_rejects(self, kw):
        with pytest.raises(DomainError):
            _config(**kw)

    @pytest.mark.parametrize("field,low", [("frames", 1), ("burn_in_frames", 0)])
    @pytest.mark.parametrize("value", [-1, 99.5, 100.0, "3", None])
    def test_integer_rule(self, field, low, value):
        with pytest.raises(DomainError, match=f"{field} must be >= {low} and integral"):
            _config(**{field: value})

    @pytest.mark.parametrize("policy", ["variable", 0.01, None])
    def test_rejects_unknown_policy(self, policy):
        with pytest.raises(DomainError, match="unknown rate policy"):
            _config(policy=policy)

    def test_zero_arrival_allowed(self):
        assert _config(arrival_bits_per_frame=0.0).arrival_bits_per_frame == 0.0


def _service(cfg, start=0, count=None, with_gain_mean=False):
    count = cfg.frames if count is None else count
    service = np.empty(count)
    gain_mean = np.empty(count) if with_gain_mean else None
    _fill_service(cfg, start, service, gain_mean)
    return service if gain_mean is None else (service, gain_mean)


class TestServiceSample:
    """Per-frame service of the vector path: nm*R on success, zero on failure."""

    # rows of (mu, delta): a spread of rates, negative rate bounds at small
    # epsilon, and degenerate rows (delta = 0) below, at and above rate 0.3;
    # decoding draws of exactly 0.3 and 0.5 hit an error probability on the nose
    MU = np.array([0.05, 0.3, 0.3, 0.9, 1.7, 2.5, 0.0, 0.3, 0.6])
    DELTA = np.array([0.2, 0.1, 0.0, 0.15, 0.4, 0.05, 0.0, 0.0, 0.0])
    U = np.array([0.0, 0.2, 0.5, 0.999, 0.31, 0.3, 0.7, 0.5, 0.49])

    @pytest.mark.parametrize("epsilon", [0.3, 1e-4])
    @pytest.mark.parametrize("clamp", [False, True])
    def test_variable_rate_rule_bit_for_bit(self, epsilon, clamp):
        got = VariableRate(epsilon, clamp).service(self.MU, self.DELTA, self.U, 100)
        r = rate_lower_bound_arrays(self.MU, self.DELTA, epsilon, clamp)
        np.testing.assert_array_equal(got, np.where(self.U >= epsilon, 100 * r, 0.0))
        assert bool((got < 0.0).any()) is (epsilon == 1e-4 and not clamp)

    @pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
    def test_fixed_rate_rule_bit_for_bit(self, rate):
        got = FixedRate(rate).service(self.MU, self.DELTA, self.U, 100)
        eps = error_probability_arrays(self.MU, self.DELTA, rate)
        np.testing.assert_array_equal(got, np.where(self.U >= eps, 100 * rate, 0.0))

    def test_sure_success_fixed_rate(self):
        # mu far above the rate: the failure probability underflows to 0, so
        # every frame delivers n*m*R, even on a decoding draw of exactly 0
        u = np.random.default_rng(0).random(200)
        u[0] = 0.0
        got = FixedRate(0.5).service(np.full(200, 19.9), np.full(200, 0.05), u, P2.nm)
        assert np.all(got == P2.nm * 0.5)

    def test_sure_failure_fixed_rate(self):
        # rate far above anything decodable
        u = np.random.default_rng(1).random(200)
        got = FixedRate(50.0).service(np.full(200, 0.01), np.full(200, 0.05), u, P2.nm)
        assert np.all(got == 0.0)

    def test_variable_rate_value_and_failure_fraction(self):
        z = np.array([0.8, 1.3])
        st = rate_stats(z, P2)
        expect = P2.nm * rate_lower_bound(z, P2, 0.3)
        u = np.random.default_rng(2).random(10_000)
        draws = VariableRate(epsilon=0.3).service(
            np.full(10_000, st.mu), np.full(10_000, st.delta), u, P2.nm)
        assert set(np.unique(draws)) == {0.0, expect}
        failures = np.mean(draws == 0.0)
        assert abs(failures - 0.3) < 3 * math.sqrt(0.3 * 0.7 / 10_000)

    def test_consumes_exactly_one_uniform(self):
        # a frame fails exactly when the decoding draw after its m gain
        # draws falls below epsilon, and that draw decides nothing else
        cfg = _config(policy=VariableRate(epsilon=0.3))
        service = _service(cfg, start=40, count=2_000)
        u = uniform_windows(cfg.seed, 40, 2_000, P2.m + 1)
        z = _exponential_from_uniform(u[:, :P2.m], 1.0)
        np.testing.assert_array_equal(service == 0.0, u[:, P2.m] < 0.3)
        rates = [P2.nm * rate_lower_bound(row, P2, 0.3) for row in z[:20]]
        ok = u[:20, P2.m] >= 0.3
        np.testing.assert_array_equal(service[:20][ok], np.asarray(rates)[ok])

    def test_requires_explicit_target(self):
        with pytest.raises(DomainError, match="explicit epsilon"):
            _config(policy=VariableRate())
        with pytest.raises(DomainError, match="explicit rate"):
            _config(policy=FixedRate())


class TestSubChunks:
    """Service filled in sub-ranges equals service filled in one pass."""

    @pytest.mark.parametrize("m", [1, 2, 10])
    @pytest.mark.parametrize("policy", [
        VariableRate(epsilon=0.05),
        VariableRate(epsilon=1e-4, clamp_negative=True),
        VariableRate(epsilon=1e-4, clamp_negative=False),
        FixedRate(rate=0.3),
    ], ids=["rayleigh-variable", "rayleigh-variable-clamped", "rayleigh-variable-unclamped",
            "rayleigh-fixed"])
    def test_split_matches_whole(self, m, policy):
        cfg = _config(params=SystemParams(1.0, 50, m, 0.05), policy=policy,
                      frames=6_000, burn_in_frames=0)
        whole, whole_gain = _service(cfg, start=123, with_gain_mean=True)
        parts = np.empty_like(whole)
        parts_gain = np.empty_like(whole)
        for lo, hi in [(0, 1), (1, 1_000), (1_000, 4_097), (4_097, 6_000)]:
            _fill_service(cfg, 123 + lo, parts[lo:hi], parts_gain[lo:hi])
        np.testing.assert_array_equal(parts, whole)
        np.testing.assert_array_equal(parts_gain, whole_gain)

    def test_chunks_split_into_sub_chunks_match_whole(self, monkeypatch):
        cfg = _config(frames=_CHUNK_FRAMES + 5_000, burn_in_frames=0)
        whole = _service(cfg)
        monkeypatch.setenv("BLOCKRATE_THREADS", "2")
        got = np.concatenate([s for _, s, _ in _service_chunks(cfg, False)])
        np.testing.assert_array_equal(got, whole)


class TestServicePipeline:
    def _recording(self, monkeypatch):
        calls = []
        real = queue_sim._fill_service

        def record(config, start, service, gain_mean):
            calls.append((start, service.size, threading.get_ident()))
            real(config, start, service, gain_mean)
        monkeypatch.setattr(queue_sim, "_fill_service", record)
        return calls

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_fills_at_most_one_chunk_ahead(self, monkeypatch, threads):
        monkeypatch.setenv("BLOCKRATE_THREADS", threads)
        calls = self._recording(monkeypatch)
        cfg = _config(frames=3 * _CHUNK_FRAMES + 777, burn_in_frames=0)
        starts = []
        for start, service, gain_mean in _service_chunks(cfg, False):
            assert gain_mean is None
            assert max(c[0] for c in calls) < start + 2 * _CHUNK_FRAMES
            starts.append(start)
        assert starts == [0, _CHUNK_FRAMES, 2 * _CHUNK_FRAMES, 3 * _CHUNK_FRAMES]
        assert sorted(c[0] for c in calls) == list(range(0, cfg.frames, _SUB_FRAMES))
        assert all(size <= _SUB_FRAMES for _, size, _ in calls)

    def test_service_runs_on_workers_only_when_threads_allow(self, monkeypatch):
        cfg = _config(frames=4 * _SUB_FRAMES, burn_in_frames=0)
        calls = self._recording(monkeypatch)
        monkeypatch.setenv("BLOCKRATE_THREADS", "1")
        simulate_queue(cfg)
        assert {c[2] for c in calls} == {threading.get_ident()}
        calls.clear()
        monkeypatch.setenv("BLOCKRATE_THREADS", "2")
        simulate_queue(cfg)
        assert threading.get_ident() not in {c[2] for c in calls}

    def test_worker_error_propagates(self, monkeypatch):
        def boom(*args):
            raise RuntimeError("service failed")
        monkeypatch.setattr(queue_sim, "_fill_service", boom)
        monkeypatch.setenv("BLOCKRATE_THREADS", "2")
        with pytest.raises(RuntimeError, match="service failed"):
            simulate_queue(_config(frames=2 * _SUB_FRAMES, burn_in_frames=0))


def _lindley(q0, x):
    return _lindley_chunk(q0, x.copy(), np.empty_like(x))  # leaves x as it was


class TestLindley:
    def _loop(self, q0, x):
        out = np.empty_like(x)
        q = q0
        for i, xi in enumerate(x):
            q = max(q + xi, 0.0)
            out[i] = q
        return out

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_recursion(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 5.0, size=4_000)
        got = _lindley(3.5, x)
        np.testing.assert_allclose(got, self._loop(3.5, x), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("m, epsilon", [(2, 0.01), (10, 0.001)])
    def test_full_chunk_error_bound_on_service_stream(self, m, epsilon):
        # the closed form rounds its running sum differently from the
        # stepwise max; over a whole chunk the error stays below 1e-10 of
        # the largest step (3e-11 measured), as the module docstring states
        cfg = _config(params=SystemParams.from_db(0.0, 50, m, 0.05),
                      policy=VariableRate(epsilon=epsilon),
                      frames=_CHUNK_FRAMES, burn_in_frames=0)
        service = _service(cfg)
        x = 0.97 * service.mean() - service
        err = np.abs(_lindley(0.0, x) - self._loop(0.0, x)).max()
        assert err <= 1e-10 * np.abs(x).max()

    @pytest.mark.parametrize("scale", [5.0, 1e5])
    def test_full_chunk_error_bound_on_gaussian_steps(self, scale):
        rng = np.random.default_rng(11)
        x = rng.normal(-0.04 * scale, scale, size=_CHUNK_FRAMES)
        err = np.abs(_lindley(2.0 * scale, x) - self._loop(2.0 * scale, x)).max()
        assert err <= 1e-10 * np.abs(x).max()

    def test_chunk_boundary_carry(self):
        rng = np.random.default_rng(9)
        x = rng.normal(-0.2, 3.0, size=1_000)
        whole = _lindley(0.0, x)
        first = _lindley(0.0, x[:337])
        second = _lindley(float(first[-1]), x[337:])
        np.testing.assert_allclose(
            np.concatenate([first, second]), whole, rtol=0, atol=1e-9)

    def test_never_negative_and_empty_start(self):
        x = np.array([-5.0, 2.0, -10.0, 1.0])
        got = _lindley(0.0, x)
        np.testing.assert_array_equal(got, [0.0, 2.0, 0.0, 1.0])


class TestSimulateQueue:
    def test_matches_manual_frame_loop(self):
        # recompute every frame's service straight from its uniform window
        # and run the scalar recursion; the chunked engine must agree
        cfg = _config(frames=400, burn_in_frames=0, arrival_bits_per_frame=30.0)
        res = simulate_queue(cfg, trace_every=1)
        q = 0.0
        expect = np.empty(400)
        for t in range(400):
            u = uniform_windows(cfg.seed, t, 1, cfg.params.m + 1)[0]
            z = _exponential_from_uniform(u[: cfg.params.m], 1.0)
            r = rate_lower_bound(z, cfg.params, cfg.policy.epsilon)
            s = cfg.params.nm * r if u[cfg.params.m] >= cfg.policy.epsilon else 0.0
            q = max(q + 30.0 - s, 0.0)
            expect[t] = q
        np.testing.assert_allclose(res.trace[:, 3], expect, rtol=0, atol=1e-9)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(DomainError, match="integral"):
            simulate_queue(_config(seed=1.5))

    def test_zero_arrival_clamped_stays_empty(self):
        cfg = _config(arrival_bits_per_frame=0.0,
                      policy=VariableRate(epsilon=0.01, clamp_negative=True))
        res = simulate_queue(cfg, trace_every=1)
        assert np.all(res.trace[:, 3] == 0.0)
        assert not res.unstable
        assert res.trend_slope == 0.0

    def test_burn_in_dropped(self):
        full = simulate_queue(_config(burn_in_frames=0), trace_every=1)
        cut = simulate_queue(_config(burn_in_frames=250), trace_every=1)
        np.testing.assert_array_equal(cut.trace[:, 3], full.trace[250:, 3])
        kept = _histogram(full.trace[250:, 3], P2.theta)
        np.testing.assert_array_equal(cut.samples.counts, kept.counts)

    def test_histogram_and_trend_match_per_frame_values(self):
        # three chunks and a burn-in that ends mid-chunk: the histogram
        # counts every kept frame once, and the trend is fitted on the same
        # every-step-th kept frame as a fit on the whole kept trajectory
        cfg = _config(frames=2 * _CHUNK_FRAMES + 4_321, burn_in_frames=_CHUNK_FRAMES - 77,
                      arrival_bits_per_frame=40.0)
        res = simulate_queue(cfg, trace_every=1)
        kept = res.trace[:, 3]
        assert kept.size == cfg.frames - cfg.burn_in_frames
        np.testing.assert_array_equal(res.samples.counts, _histogram(kept, P2.theta).counts)
        step = max(1, kept.size // 2048)
        t = np.arange(kept[::step].size, dtype=float) * step
        assert res.trend_slope == float(np.polyfit(t, kept[::step], 1)[0])

    def test_drift_z_from_pairwise_chunk_sums(self):
        # the service moments are numpy's pairwise sums per chunk, added in
        # chunk order, so their bits follow no BLAS build or thread count
        a = 40.0
        cfg = _config(frames=_CHUNK_FRAMES + 4_321, burn_in_frames=0,
                      arrival_bits_per_frame=a)
        res = simulate_queue(cfg, trace_every=1)
        total = sumsq = 0.0
        for lo in range(0, cfg.frames, _CHUNK_FRAMES):
            s = np.ascontiguousarray(res.trace[lo:lo + _CHUNK_FRAMES, 2])
            total += float(s.sum())
            sumsq += float((s * s).sum())
        mean = total / cfg.frames
        se = math.sqrt((sumsq / cfg.frames - mean**2) / cfg.frames)
        assert res.mean_service == mean
        assert res.drift_z == (a - mean) / se

    @staticmethod
    def _constant_service(monkeypatch, bits):
        # every frame serves the same bits, so the service variance is 0
        def fill(config, start, service, gain_mean):
            service[:] = bits
            if gain_mean is not None:
                gain_mean[:] = 1.0
        monkeypatch.setattr(queue_sim, "_fill_service", fill)

    def test_unstable_flag_fires_on_overload(self, monkeypatch):
        service = P2.nm * 0.5
        self._constant_service(monkeypatch, service)
        over = _config(policy=FixedRate(rate=0.5),
                       arrival_bits_per_frame=1.2 * service, frames=5_000)
        under = _config(policy=FixedRate(rate=0.5),
                        arrival_bits_per_frame=0.8 * service, frames=5_000)
        for cfg, unstable in ((over, True), (under, False)):
            res = simulate_queue(cfg)
            assert res.unstable is unstable
            assert (res.drift_z > 3.0) is unstable

    def test_mean_service_deterministic_case(self, monkeypatch):
        self._constant_service(monkeypatch, P2.nm * 0.5)
        cfg = _config(policy=FixedRate(rate=0.5), frames=200,
                      burn_in_frames=0, arrival_bits_per_frame=0.0)
        res = simulate_queue(cfg)
        assert res.mean_service == pytest.approx(P2.nm * 0.5, rel=1e-12)
        assert res.drift_z == -math.inf  # no service variance: the drift is sure

    def test_trace_decimation(self):
        cfg = _config(frames=1_000, burn_in_frames=100)
        res = simulate_queue(cfg, trace_every=10)
        assert res.trace is not None and res.trace.shape == (90, 4)
        frames = res.trace[:, 0]
        np.testing.assert_array_equal(frames, np.arange(100, 1_000, 10))
        every = simulate_queue(cfg, trace_every=1).trace
        np.testing.assert_array_equal(every[:, 0], np.arange(100, 1_000))
        idx = frames.astype(int) - 100
        np.testing.assert_array_equal(res.trace, every[idx])

    def test_trace_off_by_default(self):
        assert simulate_queue(_config(frames=200, burn_in_frames=0)).trace is None

    def test_bad_trace_every(self):
        with pytest.raises(DomainError):
            simulate_queue(_config(), trace_every=-1)

    @pytest.mark.parametrize("trace_every", [-1, 2.5, 10.0, "3", None])
    def test_trace_every_integer_rule(self, trace_every):
        with pytest.raises(DomainError, match="trace_every must be >= 0 and integral"):
            simulate_queue(_config(), trace_every=trace_every)

    def test_result_type(self):
        assert isinstance(simulate_queue(_config(frames=120, burn_in_frames=10)),
                          QueueResult)


class TestMemory:
    def test_peak_does_not_grow_with_frames(self, monkeypatch):
        # from the third chunk on, the pipeline holds the same arrays at
        # its peak; a per-frame sample array would add 8 bytes per kept
        # frame, 38 MB between these two runs
        monkeypatch.setenv("BLOCKRATE_THREADS", "1")

        def run(frames):
            tracemalloc.start()
            try:
                res = simulate_queue(_config(frames=frames, burn_in_frames=1_000))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, res

        small, one = run(3 * _CHUNK_FRAMES)
        large, four = run(12 * _CHUNK_FRAMES)
        assert large - small <= 64 * 1024, (small, large)
        for res in (one, four):
            assert res.trace is None
            assert not any(isinstance(getattr(res, f.name), np.ndarray)
                           for f in dataclasses.fields(res))
        assert four.samples.total == 4 * one.samples.total + 3_000
        assert four.samples.nbytes == one.samples.nbytes <= 16 * 1024 + 16


class TestNoSpinningThreads:
    def test_one_thread_run_uses_one_core(self):
        # with BLOCKRATE_THREADS=1 the run has one thread of work, so its
        # CPU time can exceed its wall time only if a library's threads
        # busy-wait beside it, as OpenBLAS's do after each threaded call.
        # On a one-core machine there is no second core to spin on, and
        # this test passes without testing anything.
        code = """if True:
            import resource, time
            from blockrate.channel import SystemParams
            from blockrate.fbl import VariableRate
            from blockrate.queue_sim import QueueConfig, simulate_queue
            cfg = QueueConfig(arrival_bits_per_frame=40.0, frames=1_200_000,
                              burn_in_frames=1_000, seed=1,
                              policy=VariableRate(epsilon=0.01),
                              params=SystemParams(1.0, 50, 2, 0.05))
            def cpu():
                usage = resource.getrusage(resource.RUSAGE_SELF)
                return usage.ru_utime + usage.ru_stime
            simulate_queue(cfg)
            wall, used = time.perf_counter(), cpu()
            simulate_queue(cfg)
            print((cpu() - used) / (time.perf_counter() - wall))
        """
        src = str(Path(queue_sim.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        env["BLOCKRATE_THREADS"] = "1"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 1.5


class TestArrivalCalibration:
    def test_throughput_arrival_balances_service_exponentially(self):
        # with a = -ln(psi)/theta bits per frame, the exponential
        # work-minus-service martingale has mean exactly one over the very
        # sample set that defined psi -- the unclamped negative-rate
        # convention is what makes this identity exact
        params = SystemParams(1.0, 50, 1, 0.05)
        ss = SampleSet.draw(Rayleigh(), 1, 10_000, seed=3)
        eps = 0.01
        lp = log_psi(eps, ss, params)
        a = -lp / params.theta
        mu, delta = ss.stats(params)
        from blockrate.special import q_inverse
        service = params.nm * (mu - delta * q_inverse(eps))
        glow = np.mean(eps * math.exp(params.theta * a)
                       + (1 - eps) * np.exp(params.theta * (a - service)))
        assert glow == pytest.approx(1.0, rel=1e-12)


def _histogram(values, theta):
    values = np.array(values, dtype=float)  # a copy: add overwrites it
    hist = TailHistogram(theta)
    hist.add(values, np.empty(values.size, dtype=np.intp))
    return hist


class TestTailHistogram:
    @pytest.mark.parametrize("decimals", [None, 1])
    def test_ccdf_at_every_edge_matches_sort(self, decimals):
        # counts at and above each bin edge equal the number of values >=
        # that edge in the sorted sample, ties on an edge included
        rng = np.random.default_rng(23)
        s = rng.exponential(4.0, size=300_000) * (rng.random(300_000) < 0.6)
        if decimals is not None:
            s = np.round(s, decimals)
        ref = np.sort(s)
        for theta in (0.05, 0.37, 1.0, 1.25):
            hist = _histogram(s, theta)
            at_or_above = s.size - np.searchsorted(ref, hist.edges, side="left")
            np.testing.assert_array_equal(np.cumsum(hist.counts[::-1])[::-1], at_or_above)
            assert hist.total == s.size
            h = 1.0 / (8 * theta)
            np.testing.assert_allclose(hist.edges, h * np.arange(hist.edges.size),
                                       rtol=1e-15, atol=0)

    def test_overflow_and_negative_values(self):
        hist = _histogram([-3.0, -0.1, 0.0, 0.124, 0.125, 127.9, 128.0, 1e300], 1.0)
        assert hist.counts[0] == 4 and hist.counts[1] == 1
        assert hist.counts[-2] == 1 and hist.counts[-1] == 2
        assert hist.edges[-1] == 128.0

    def test_chunks_add_up(self):
        rng = np.random.default_rng(5)
        s = rng.exponential(10.0, size=10_000)
        parts = TailHistogram(0.1)
        index = np.empty(4_000, dtype=np.intp)
        for lo in range(0, s.size, 4_000):
            parts.add(s[lo:lo + 4_000].copy(), index)
        np.testing.assert_array_equal(parts.counts, _histogram(s, 0.1).counts)

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.nan, math.inf])
    def test_bad_theta(self, theta):
        with pytest.raises(DomainError):
            TailHistogram(theta)


class TestEstimateDecayRate:
    def test_recovers_exponential_tail(self):
        lam = 0.37
        rng = np.random.default_rng(17)
        s = rng.exponential(1.0 / lam, size=400_000)
        est = estimate_decay_rate(_histogram(s, lam))
        assert isinstance(est, TailEstimate)
        assert est.theta_hat == pytest.approx(lam, rel=0.05)
        assert est.fit_r2 > 0.999
        assert est.q_lo < est.q_hi
        assert 1e-4 <= est.overflow_fraction_at_q_hi <= 1e-1

    def test_fits_exact_counts_at_the_window_edges(self):
        # the fit is the least-squares line through ln P(Q >= q) at exactly
        # the edges whose sorted-sample count lies in [p_lo, p_hi]
        rng = np.random.default_rng(23)
        s = rng.exponential(4.0, size=300_000) * (rng.random(300_000) < 0.6)
        hist = _histogram(s, 0.25)
        ccdf = (s.size - np.searchsorted(np.sort(s), hist.edges, side="left")) / s.size
        keep = (ccdf >= 1e-4) & (ccdf <= 1e-1)
        slope = np.polyfit(hist.edges[keep], np.log(ccdf[keep]), 1)[0]
        est = estimate_decay_rate(hist)
        assert (est.q_lo, est.q_hi) == (hist.edges[keep][0], hist.edges[keep][-1])
        assert est.overflow_fraction_at_q_hi == ccdf[keep][-1]
        assert est.theta_hat == -slope

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        s = rng.exponential(2.0, size=200_000)
        a = estimate_decay_rate(_histogram(s, 0.5))
        b = estimate_decay_rate(_histogram(3.0 * s, 0.5 / 3.0))
        assert b.theta_hat == pytest.approx(a.theta_hat / 3.0, rel=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(EstimationError):
            estimate_decay_rate(_histogram(np.arange(9.0), 1.0))

    def test_degenerate_window(self):
        with pytest.raises(EstimationError, match="degenerate"):
            estimate_decay_rate(_histogram(np.ones(1_000), 1.0))

    def test_flat_tail_rejected(self):
        # two atoms: the tail probability is constant across the window.
        # Over the 6 edges up to an atom at 0.75 the fitted slope of the
        # constant rounds to -1.5e-15, so the slope's sign alone would pass
        for atom in (5.0, 0.75):
            s = np.concatenate([np.zeros(96_000), np.full(4_000, atom)])
            with pytest.raises(EstimationError, match="not decaying"):
                estimate_decay_rate(_histogram(s, 1.0))

    def test_sparse_window_rejected(self):
        # bins of width 0.5: only the edges 0.5, 1, 1.5 and 2 lie in the window
        s = np.repeat([0.0, 1.0, 2.0], [96_000, 3_900, 100])
        with pytest.raises(EstimationError, match="run longer"):
            estimate_decay_rate(_histogram(s, 0.25))

    def test_window_reaching_overflow_rejected(self):
        # decay ten times slower than theta: P(Q >= 128/theta) is about 0.28
        rng = np.random.default_rng(8)
        s = rng.exponential(100.0, size=100_000)
        with pytest.raises(EstimationError, match="overflow"):
            estimate_decay_rate(_histogram(s, 1.0))

    @pytest.mark.parametrize("kw", [
        dict(p_lo=0.0), dict(p_lo=0.2, p_hi=0.1), dict(p_hi=1.0),
    ])
    def test_bad_arguments(self, kw):
        with pytest.raises(DomainError):
            estimate_decay_rate(_histogram(np.arange(100.0), 1.0), **kw)


class TestEndToEnd:
    def test_decay_rate_matches_qos_exponent(self):
        # feed the queue at its own effective rate and read theta back off
        # the stationary tail (tight version runs in the acceptance suite)
        params = P2  # theta = 0.05, n = 50, m = 2
        draws = SampleSet.draw(Rayleigh(), params.m, 100_000, seed=2024)
        opt = optimal_epsilon(draws, params)
        cfg = QueueConfig(
            arrival_bits_per_frame=opt.value * params.nm,
            frames=1_000_000,
            burn_in_frames=10_000,
            seed=31337,
            policy=VariableRate(epsilon=opt.argument),
            params=params,
        )
        res = simulate_queue(cfg)
        assert not res.unstable
        est = estimate_decay_rate(res.samples)
        assert est.theta_hat == pytest.approx(params.theta, rel=0.15)
        assert est.fit_r2 > 0.99
