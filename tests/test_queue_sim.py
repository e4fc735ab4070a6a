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
    _GAIN_CAP,
    FixedRate,
    VariableRate,
    error_probability_arrays,
    rate_lower_bound,
    rate_lower_bound_arrays,
    rate_stats,
    rate_stats_arrays,
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

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_rule(self, seed):
        # at construction, before a run allocates its ring
        with pytest.raises(DomainError, match="seed must be >= 0 and integral"):
            _config(seed=seed)

    @pytest.mark.parametrize("policy", ["variable", 0.01, None])
    def test_rejects_unknown_policy(self, policy):
        with pytest.raises(DomainError, match="unknown rate policy"):
            _config(policy=policy)

    def test_zero_arrival_allowed(self):
        assert _config(arrival_bits_per_frame=0.0).arrival_bits_per_frame == 0.0


class TestFloatRangeRule:
    """QueueConfig's one float-range rule: frames*(arrival + the policy's
    service_bound)^2 is finite, where the bound holds every frame's |service|."""

    def test_gain_cap_holds_the_largest_draw(self):
        top = 1.0 - 2.0 ** -53  # the largest uniform a window can hold
        assert -math.log1p(-top) <= _GAIN_CAP
        assert _exponential_from_uniform(np.array([top]))[0] == _GAIN_CAP

    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize("policy", [
        VariableRate(0.3), VariableRate(1e-9), VariableRate(1e-9, clamp_negative=True),
        VariableRate(1.0 - 1e-9), FixedRate(0.5), FixedRate(4.0)])
    def test_every_filled_service_is_within_the_bound(self, m, policy):
        params = SystemParams(snr_linear=10.0, n=20, m=m, theta=0.05)
        cfg = _config(params=params, policy=policy)
        bound = policy.service_bound(params)
        assert np.abs(_service(cfg, count=20_000)).max() <= bound
        # and at the cap itself, on the rows the rule can serve most on
        gains = np.array([[_GAIN_CAP] * m, [0.0] * m])
        mu, delta = rate_stats_arrays(gains, params)
        served = policy.service(mu, delta, np.full(2, 1.0 - 2.0 ** -53), params.nm)
        assert np.abs(served).max() <= bound

    def test_frames_past_the_float_range_rejected(self):
        # an int that no float holds is a DomainError, not an OverflowError
        with pytest.raises(DomainError, match="overflows a float: 1000000"):
            _config(frames=10**400)

    def test_rejected_before_any_fill(self, monkeypatch):
        def fill(*args):
            raise AssertionError("a frame was filled")
        monkeypatch.setattr(queue_sim, "_fill_service", fill)
        with pytest.raises(DomainError, match="overflows a float"):
            simulate_queue(_config(arrival_bits_per_frame=1e200))


def _service(cfg, start=0, count=None, rows=1):
    """Service bits of frames [start, start+count), and with rows=2 their
    mean gains: the rows of a (rows, count) `_fill_service` array."""
    out = np.empty((rows, cfg.frames if count is None else count))
    _fill_service(cfg, start, out)
    return out[0] if rows == 1 else out


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
        z = _exponential_from_uniform(u[:, :P2.m])
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
        whole = _service(cfg, start=123, rows=2)
        parts = np.empty_like(whole)
        for lo, hi in [(0, 1), (1, 1_000), (1_000, 4_097), (4_097, 6_000)]:
            _fill_service(cfg, 123 + lo, parts[:, lo:hi])
        np.testing.assert_array_equal(parts, whole)
        # a one-row array takes the service alone, with the same bits
        np.testing.assert_array_equal(_service(cfg, start=123), whole[0])

    def test_chunks_split_into_sub_chunks_match_whole(self, monkeypatch):
        # every frame traced: the run's service and mean gains, filled in
        # sub-chunks on two workers, are those of one whole-range fill
        cfg = _config(frames=_CHUNK_FRAMES + 5_000, burn_in_frames=0, trace_every=1)
        service, gain_mean = _service(cfg, rows=2)
        monkeypatch.setenv("BLOCKRATE_THREADS", "2")
        trace = simulate_queue(cfg).trace
        np.testing.assert_array_equal(trace[:, 0], np.arange(cfg.frames))
        np.testing.assert_array_equal(trace[:, 2], service)
        np.testing.assert_array_equal(trace[:, 1], gain_mean)


class TestServicePipeline:
    def _recording(self, monkeypatch):
        calls = []
        real = queue_sim._fill_service

        def record(config, start, out):
            calls.append((start, out.shape[1], threading.get_ident()))
            real(config, start, out)
        monkeypatch.setattr(queue_sim, "_fill_service", record)
        return calls

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_fills_at_most_one_chunk_ahead(self, monkeypatch, threads):
        # while the chunk at `start` is scanned, block by block, no fill has
        # started at or past start + 2 chunks: the fill of the chunk after
        # that would reuse the scanned chunk's ring slot
        monkeypatch.setenv("BLOCKRATE_THREADS", threads)
        calls = self._recording(monkeypatch)
        scans = []
        real_scan = queue_sim._lindley_chunk

        def scan(q_prev, a, service):
            start = len(scans) * _CHUNK_FRAMES
            scans.append(0)
            for lo, q in real_scan(q_prev, a, service):
                assert max(c[0] for c in calls) < start + 2 * _CHUNK_FRAMES
                assert lo == scans[-1] and q.size <= _SUB_FRAMES
                scans[-1] += q.size
                yield lo, q
        monkeypatch.setattr(queue_sim, "_lindley_chunk", scan)
        cfg = _config(frames=3 * _CHUNK_FRAMES + 777, burn_in_frames=0)
        simulate_queue(cfg)
        assert scans == [_CHUNK_FRAMES] * 3 + [777]
        assert sorted(c[0] for c in calls) == list(range(0, cfg.frames, _SUB_FRAMES))
        assert all(size <= _SUB_FRAMES for _, size, _ in calls)
        assert sum(size for _, size, _ in calls) == cfg.frames

    def test_pool_is_reached_only_through_run_rows(self, monkeypatch):
        # chunk 0's fills, then one call per chunk: its scan and the fills
        # of the next chunk; no fill or scan runs outside those calls
        monkeypatch.setenv("BLOCKRATE_THREADS", "2")
        sizes, active, outside = [], [0], []
        real_rows, real_fill = queue_sim._run_rows, queue_sim._fill_service
        real_scan = queue_sim._lindley_chunk

        def rows(tasks):
            sizes.append(len(tasks))
            active[0] += 1
            try:
                return real_rows(tasks)
            finally:
                active[0] -= 1

        def fill(config, start, out):
            if not active[0]:
                outside.append(start)
            real_fill(config, start, out)

        def scan(q_prev, a, service):
            for lo, q in real_scan(q_prev, a, service):
                if not active[0]:
                    outside.append(("scan", lo))
                yield lo, q
        monkeypatch.setattr(queue_sim, "_run_rows", rows)
        monkeypatch.setattr(queue_sim, "_fill_service", fill)
        monkeypatch.setattr(queue_sim, "_lindley_chunk", scan)
        simulate_queue(_config(frames=3 * _CHUNK_FRAMES + 777, burn_in_frames=0))
        subs = _CHUNK_FRAMES // _SUB_FRAMES
        assert sizes == [subs, 1 + subs, 1 + subs, 1 + 1, 1]
        assert outside == []

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
    # the steps 0 - (-x) are x; the scan leaves x as it was
    return np.concatenate([q.copy() for _, q in _lindley_chunk(q0, 0.0, -x)])


def _whole_chunk_scan(q_prev, a, service):
    # one scan of a whole chunk in seven numpy operations, the queue
    # lengths the streamed scan must give bit for bit
    x = np.subtract(a, service)
    c = np.cumsum(x)
    floor = np.minimum.accumulate(c, out=x)
    np.minimum(floor, 0.0, out=floor)
    np.subtract(c, floor, out=floor)
    np.add(c, q_prev, out=c)
    return np.maximum(c, floor, out=floor)


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


class TestStreamedScan:
    """Each chunk is scanned in blocks of _SUB_FRAMES frames, carrying its
    running sum and its floor min(0, every sum so far); the queue lengths are
    those of one scan of the whole chunk, signed zeros included."""

    @staticmethod
    def _service(kind, frames):
        rng = np.random.default_rng(frames)
        if kind == "gaussian":
            return 1.0, rng.normal(1.04, 5.0, frames)
        # two-point service, as a fixed rate gives: steps of +-50 tie the
        # running sum with its minimum and with 0 exactly; steps of 0 and
        # 100 tie every step after a success; an arrival of -0.0 (which
        # QueueConfig accepts) makes steps of -0.0, and queue lengths of
        # -0.0 from q_prev = 0, a sign that a shorter closed form loses
        a = {"two-point": 50.0, "two-point-zero-steps": 100.0,
             "two-point-negative-zero": -0.0}[kind]
        return a, np.where(rng.random(frames) < 0.5, 100.0, 0.0)

    @pytest.mark.parametrize("q0", [0.0, 37.25])
    @pytest.mark.parametrize("frames", [1, _SUB_FRAMES - 1, _SUB_FRAMES + 1, _CHUNK_FRAMES,
                                        3 * _CHUNK_FRAMES + 777])
    @pytest.mark.parametrize("kind", ["two-point", "two-point-zero-steps",
                                      "two-point-negative-zero", "gaussian"])
    def test_bit_identical_to_whole_chunk_scan(self, kind, frames, q0):
        a, service = self._service(kind, frames)
        got, want = [], []
        q_got = q_want = q0
        for start in range(0, frames, _CHUNK_FRAMES):
            chunk = service[start:start + _CHUNK_FRAMES]
            blocks = [q.copy() for _, q in _lindley_chunk(q_got, a, chunk)]
            got += blocks
            want.append(_whole_chunk_scan(q_want, a, chunk))
            q_got, q_want = float(blocks[-1][-1]), float(want[-1][-1])
        np.testing.assert_array_equal(np.concatenate(got).view(np.int64),
                                      np.concatenate(want).view(np.int64))

    @pytest.mark.parametrize("sub", [1, 7])
    def test_block_size_does_not_change_bits(self, monkeypatch, sub):
        # blocks of one frame carry the running sum and its floor at every
        # step; blocks of seven end in a partial block on two of these sizes
        monkeypatch.setattr(queue_sim, "_SUB_FRAMES", sub)
        for kind in ("two-point", "two-point-zero-steps", "two-point-negative-zero"):
            for frames, q0 in ((300, 0.0), (343, 37.25), (401, 0.0)):
                a, service = self._service(kind, frames)
                blocks = [q.copy() for _, q in _lindley_chunk(q0, a, service)]
                assert len(blocks) == -(-frames // sub)
                np.testing.assert_array_equal(
                    np.concatenate(blocks).view(np.int64),
                    _whole_chunk_scan(q0, a, service).view(np.int64))


class TestSimulateQueue:
    def test_matches_manual_frame_loop(self):
        # recompute every frame's service straight from its uniform window
        # and run the scalar recursion; the chunked engine must agree
        cfg = _config(frames=400, burn_in_frames=0, arrival_bits_per_frame=30.0, trace_every=1)
        res = simulate_queue(cfg)
        q = 0.0
        expect = np.empty(400)
        for t in range(400):
            u = uniform_windows(cfg.seed, t, 1, cfg.params.m + 1)[0]
            z = _exponential_from_uniform(u[: cfg.params.m])
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
                      policy=VariableRate(epsilon=0.01, clamp_negative=True), trace_every=1)
        res = simulate_queue(cfg)
        assert np.all(res.trace[:, 3] == 0.0)
        assert not res.unstable
        assert res.trend_slope == 0.0

    def test_burn_in_dropped(self):
        full = simulate_queue(_config(burn_in_frames=0, trace_every=1))
        cut = simulate_queue(_config(burn_in_frames=250, trace_every=1))
        np.testing.assert_array_equal(cut.trace[:, 3], full.trace[250:, 3])
        kept = _histogram(full.trace[250:, 3], P2.theta)
        np.testing.assert_array_equal(cut.samples.counts, kept.counts)

    def test_histogram_and_trend_match_per_frame_values(self):
        # three chunks and a burn-in that ends mid-chunk: the histogram
        # counts every kept frame once, and the trend is fitted on the same
        # every-step-th kept frame as a fit on the whole kept trajectory
        cfg = _config(frames=2 * _CHUNK_FRAMES + 4_321, burn_in_frames=_CHUNK_FRAMES - 77,
                      arrival_bits_per_frame=40.0, trace_every=1)
        res = simulate_queue(cfg)
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
                      arrival_bits_per_frame=a, trace_every=1)
        res = simulate_queue(cfg)
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
        def fill(config, start, out):
            out[0] = bits
            out[1:] = 1.0  # the mean gains, on a traced run
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

    def test_overflowing_arrival_rejected(self):
        # frames * (1e308 + the service bound)^2 overflows; the run used to
        # scan running sums of +inf into the overflow bin
        with pytest.raises(DomainError, match=r"^frames \* \(arrival \+ largest service\)\^2 "
                           r"overflows a float: 1048581 frames, arrival 1e\+308 and service "
                           r"up to \S+ bits per frame; use a smaller n \* m, arrival or frame"):
            _config(arrival_bits_per_frame=1e308, frames=2 * _CHUNK_FRAMES + 5)

    def test_overflowing_service_square_rejected(self):
        # a success serves 5e159 bits, a finite sum whose square is not: the
        # config, which drift_z's sum of squares relies on, rejects the run
        params = SystemParams(snr_linear=1.0, n=10**160, m=1, theta=0.05)
        with pytest.raises(DomainError, match=r"overflows a float: 1000 frames, arrival 1e\+159 "
                                              r"and service up to 5e\+159 bits per frame"):
            _config(params=params, policy=FixedRate(rate=0.5), arrival_bits_per_frame=1e159)

    def test_overflowing_service_rejected_before_the_scan(self):
        # a success serves n*m*R = inf bits: no step a - r is a number
        params = SystemParams(snr_linear=1.0, n=10**308, m=1, theta=0.05)
        with pytest.raises(DomainError, match=r"overflows a float: 1000 frames, arrival 1\.0 and "
                                              r"service up to inf bits per frame"):
            _config(params=params, policy=FixedRate(rate=2.0), arrival_bits_per_frame=1.0)

    def test_mean_service_deterministic_case(self, monkeypatch):
        self._constant_service(monkeypatch, P2.nm * 0.5)
        cfg = _config(policy=FixedRate(rate=0.5), frames=200,
                      burn_in_frames=0, arrival_bits_per_frame=0.0)
        res = simulate_queue(cfg)
        assert res.mean_service == pytest.approx(P2.nm * 0.5, rel=1e-12)
        assert res.drift_z == -math.inf  # no service variance: the drift is sure

    def test_trace_decimation(self):
        cfg = _config(frames=1_000, burn_in_frames=100, trace_every=10)
        res = simulate_queue(cfg)
        assert res.trace is not None and res.trace.shape == (90, 4)
        frames = res.trace[:, 0]
        np.testing.assert_array_equal(frames, np.arange(100, 1_000, 10))
        every = simulate_queue(dataclasses.replace(cfg, trace_every=1)).trace
        np.testing.assert_array_equal(every[:, 0], np.arange(100, 1_000))
        idx = frames.astype(int) - 100
        np.testing.assert_array_equal(res.trace, every[idx])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_traced_service_survives_the_ring(self, monkeypatch, threads):
        # four chunks: the third and fourth are filled into the slots of the
        # first two, and each chunk's service is overwritten with its squares
        # once scanned, so the traced service bits must be gathered before
        # either
        monkeypatch.setenv("BLOCKRATE_THREADS", threads)
        cfg = _config(frames=3 * _CHUNK_FRAMES + 777, burn_in_frames=_CHUNK_FRAMES // 2,
                      trace_every=97)
        res = simulate_queue(cfg)
        frames = res.trace[:, 0].astype(int)
        assert frames[-1] >= 3 * _CHUNK_FRAMES
        filled = np.empty((2, cfg.frames))
        for lo in range(0, cfg.frames, _SUB_FRAMES):
            _fill_service(cfg, lo, filled[:, lo:lo + _SUB_FRAMES])
        service, gain_mean = filled
        np.testing.assert_array_equal(res.trace[:, 2], service[frames])
        np.testing.assert_array_equal(res.trace[:, 1], gain_mean[frames])

    def test_trace_off_by_default(self):
        assert simulate_queue(_config(frames=200, burn_in_frames=0)).trace is None

    def test_bad_trace_every(self):
        with pytest.raises(DomainError):
            simulate_queue(_config(trace_every=-1))

    @pytest.mark.parametrize("trace_every", [-1, 2.5, 10.0, "3", None])
    def test_trace_every_integer_rule(self, trace_every):
        with pytest.raises(DomainError, match="trace_every must be >= 0 and integral"):
            simulate_queue(_config(trace_every=trace_every))

    def test_result_type(self):
        assert isinstance(simulate_queue(_config(frames=120, burn_in_frames=10)),
                          QueueResult)


def _traced_run(frames: int) -> tuple[int, QueueResult]:
    """tracemalloc's peak bytes over one run of `frames` frames, and its result."""
    tracemalloc.start()
    try:
        res = simulate_queue(_config(frames=frames, burn_in_frames=1_000))
        return tracemalloc.get_traced_memory()[1], res
    finally:
        tracemalloc.stop()


def _three_chunk_peak_mb() -> float:
    """The traced peak (MB) of a three-chunk run at this BLOCKRATE_THREADS."""
    return _traced_run(3 * _CHUNK_FRAMES)[0] / 1e6


class TestMemory:
    def test_peak_does_not_grow_with_frames(self, monkeypatch):
        # from the third chunk on, the pipeline holds the same arrays at
        # its peak; a per-frame sample array would add 8 bytes per kept
        # frame, 38 MB between these two runs
        monkeypatch.setenv("BLOCKRATE_THREADS", "1")
        small, one = _traced_run(3 * _CHUNK_FRAMES)
        large, four = _traced_run(12 * _CHUNK_FRAMES)
        assert large - small <= 64 * 1024, (small, large)
        for res in (one, four):
            assert res.trace is None
            assert not any(isinstance(getattr(res, f.name), np.ndarray)
                           for f in dataclasses.fields(res))
        assert four.samples.total == 4 * one.samples.total + 3_000
        assert four.samples.nbytes == one.samples.nbytes <= 16 * 1024 + 16

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_working_set_under_three_chunk_arrays(self, monkeypatch, threads):
        # the two service slots are two chunk arrays, and the scan's two
        # sub-chunk buffers and the histogram's bin numbers 3/16 of one; each
        # worker adds one sub-chunk's padded windows and half a sub-chunk's
        # statistics, 3/8 of a chunk array at m = 2
        monkeypatch.setenv("BLOCKRATE_THREADS", threads)
        chunk_arrays = _three_chunk_peak_mb() * 1e6 / (_CHUNK_FRAMES * 8)
        assert chunk_arrays < 3, chunk_arrays


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
    hist.add(values)
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

    def test_overflowing_bin_position_counts_in_the_overflow_bin(self):
        # 1e300 * 8e10 overflows to +inf, which the clip puts in the last
        # bin, with no numpy warning (RuntimeWarnings are errors here)
        hist = TailHistogram(1e10)
        hist.add(np.array([1e300]))
        assert hist.counts[-1] == hist.total == 1

    def test_chunks_add_up(self):
        rng = np.random.default_rng(5)
        s = rng.exponential(10.0, size=10_000)
        parts = TailHistogram(0.1)
        for lo in range(0, s.size, 4_000):
            parts.add(s[lo:lo + 4_000].copy())
        np.testing.assert_array_equal(parts.counts, _histogram(s, 0.1).counts)

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.nan, math.inf])
    def test_bad_theta(self, theta):
        with pytest.raises(DomainError):
            TailHistogram(theta)

    def test_smallest_theta_has_finite_edges(self):
        # the queue's theta rule holds 128/theta finite: at the least theta
        # it accepts, every edge is finite and no numpy warning is raised
        # (RuntimeWarnings are errors here); the float below it is rejected
        # by QueueConfig and TailHistogram alike
        theta = 128.0 / sys.float_info.max
        while math.isfinite(128.0 / math.nextafter(theta, 0.0)):
            theta = math.nextafter(theta, 0.0)
        hist = TailHistogram(theta)
        assert np.isfinite(hist.edges).all() and hist.edges[-1] == 128.0 / theta
        hist.add(np.array([0.0, hist.edges[1], sys.float_info.max]))
        assert hist.counts[0] == hist.counts[1] == hist.counts[-1] == 1
        below = math.nextafter(theta, 0.0)
        with pytest.raises(DomainError, match=r"with 128/theta finite, got 7\.12"):
            TailHistogram(below)
        with pytest.raises(DomainError, match=r"with 128/theta finite, got 7\.12"):
            _config(params=SystemParams(1.0, 50, 2, below))


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
        # the edges whose sorted-sample count lies in [1e-4, 0.1]
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

    def test_messages_print_plain_floats(self):
        # the degenerate-window and overflow-bin messages, whose values are
        # numpy scalars until converted
        slow = np.random.default_rng(8).exponential(100.0, size=100_000)
        for s in (np.ones(1_000), slow):
            with pytest.raises(EstimationError) as info:
                estimate_decay_rate(_histogram(s, 1.0))
            assert "np.float64" not in str(info.value)

    def test_window_reaching_overflow_rejected(self):
        # decay ten times slower than theta: P(Q >= 128/theta) is about 0.28
        rng = np.random.default_rng(8)
        s = rng.exponential(100.0, size=100_000)
        with pytest.raises(EstimationError, match="overflow"):
            estimate_decay_rate(_histogram(s, 1.0))


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
