"""Discrete-time queue fed by constant arrivals and two-point frame service.

One frame = one codeword = n*m channel uses.  Each frame draws a fresh
channel realization; decoding fails with the policy's error probability, in
which case the frame serves nothing (failed bits stay queued — an implicit
retransmission), otherwise it serves n*m*R bits.  The queue follows the
Lindley recursion Q_{t+1} = max(Q_t + a - r_t, 0).

This is the artifact's end-to-end consistency check: with the arrival rate
set to the estimated throughput times n*m bits per frame, the stationary
queue tail should decay exponentially at the configured QoS exponent theta,
because E[exp(theta*(a - r))] = exp(theta*a) * psi(eps) = 1 exactly at that
operating point.  `estimate_decay_rate` fits the realized tail exponent.

The trajectory itself is sequential, but within a chunk of frames the
recursion has a closed scan form: with x_t = a - r_t and C the running sum
of x, Q_t = max(q_prev + C_t, C_t - min(0, min_{s<=t} C_s)).  Chunks of
2^19 frames are processed in order with the final value carried.  The scan
is not bit-identical to the scalar loop, because the running sum rounds
differently: over a full chunk of service or Gaussian steps under 15% of
entries match exactly, and the largest error measured is 3e-11 times the
largest step |a - r_t|.  The tests hold it below 1e-10 times that step.
Frame t consumes the random-stream window of index t (gains then one
decoding draw), making trajectories reproducible and extendable without
replaying.

A frame's service depends only on (seed, frame index), so worker threads
compute it in sub-chunks of 2^17 frames, one chunk ahead of the scan: at
most two chunks of service and one sub-chunk's temporaries per worker are
alive however many frames run.  BLOCKRATE_THREADS caps the pool as it does
for the sweeps in optimize.  The scan stays on the calling thread, in frame order
and with unchanged chunk boundaries, so results are identical for any
thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .channel import (
    FadingModel,
    Rayleigh,
    SystemParams,
    _exponential_from_uniform,
    uniform_windows,
)
from .errors import DomainError, EstimationError
from .fbl import (
    FixedRate,
    RatePolicy,
    VariableRate,
    error_probability_arrays,
    rate_lower_bound_arrays,
    rate_stats_arrays,
)
from .optimize import _max_workers

_CHUNK_FRAMES = 1 << 19
_SUB_FRAMES = 1 << 17  # frames per service task on the worker threads
_TREND_POINTS = 2048


@dataclass(frozen=True)
class QueueConfig:
    """Inputs of one queue run; one frame spans params.nm channel uses."""

    arrival_bits_per_frame: float
    frames: int
    burn_in_frames: int
    seed: int
    policy: RatePolicy
    params: SystemParams
    fading: FadingModel = Rayleigh()

    def __post_init__(self):
        a = self.arrival_bits_per_frame
        if not (np.isfinite(a) and a >= 0):
            raise DomainError(f"arrival_bits_per_frame must be finite and >= 0, got {a!r}")
        if not (isinstance(self.frames, (int, np.integer)) and self.frames >= 1):
            raise DomainError(f"frames must be an integer >= 1, got {self.frames!r}")
        if not (isinstance(self.burn_in_frames, (int, np.integer)) and self.burn_in_frames >= 0):
            raise DomainError(f"burn_in_frames must be an integer >= 0, got {self.burn_in_frames!r}")
        if self.burn_in_frames >= self.frames:
            raise DomainError(
                f"burn_in_frames={self.burn_in_frames} must be < frames={self.frames}")
        if isinstance(self.policy, VariableRate):
            if self.policy.epsilon is None:
                raise DomainError("queue runs need an explicit epsilon "
                                  "(optimize it first, then simulate)")
        elif isinstance(self.policy, FixedRate):
            if self.policy.rate is None:
                raise DomainError("queue runs need an explicit rate "
                                  "(optimize it first, then simulate)")
        else:
            raise DomainError(f"unknown rate policy: {self.policy!r}")


@dataclass(frozen=True)
class QueueResult:
    """Post-burn-in queue-length samples plus run diagnostics.

    unstable means the trajectory diverges: the arrival rate exceeds the
    measured mean service rate by more than three standard errors (service
    is independent across frames, so the z-test is exact).  Tail fitting is
    meaningless on an unstable run.  trend_slope is a diagnostic linear
    trend fitted to the decimated trajectory.  trace is optional decimated
    per-frame records with columns (frame index, mean gain, service bits,
    queue bits).
    """

    samples: np.ndarray
    unstable: bool
    trend_slope: float
    mean_service: float
    trace: np.ndarray | None = None


@dataclass(frozen=True)
class TailEstimate:
    """Fitted exponential decay of the stationary queue tail.

    theta_hat is -slope of ln P(Q >= q) against q over the window where the
    tail probability lies in [p_lo, p_hi]; fit_r2 is the linear fit quality;
    overflow_fraction_at_q_hi is the empirical P(Q >= q_hi).
    """

    theta_hat: float
    fit_r2: float
    q_lo: float
    q_hi: float
    overflow_fraction_at_q_hi: float


def _draws_per_frame(fading: FadingModel, m: int) -> int:
    # Rayleigh frames consume m gain draws then one decoding draw;
    # deterministic gains consume only the decoding draw.
    return m + 1 if isinstance(fading, Rayleigh) else 1


def _fill_service(config: QueueConfig, start: int, service: np.ndarray,
                  gain_mean: np.ndarray | None) -> None:
    """Write the service bits of frames [start, start+len(service)) into
    service, and their mean gains into gain_mean unless it is None.

    Every frame's service is per-row arithmetic on its own stream window, so
    any split of a frame range into sub-ranges fills the same bits.
    """
    params = config.params
    m = params.m
    count = service.size
    dpf = _draws_per_frame(config.fading, m)
    u = uniform_windows(config.seed, start, count, dpf)
    if isinstance(config.fading, Rayleigh):
        gains = _exponential_from_uniform(u[:, :m], config.fading.mean_power)
        u_dec = u[:, m]
    else:
        gains = np.tile(np.asarray(config.fading.gains, dtype=float), (count, 1))
        u_dec = u[:, 0]
    mu, delta = rate_stats_arrays(gains, params)
    policy = config.policy
    if isinstance(policy, VariableRate):
        r = rate_lower_bound_arrays(mu, delta, policy.epsilon, policy.clamp_negative)
        service[:] = np.where(u_dec >= policy.epsilon, params.nm * r, 0.0)
    else:
        eps = error_probability_arrays(mu, delta, policy.rate)
        service[:] = np.where(u_dec >= eps, params.nm * policy.rate, 0.0)
    if gain_mean is not None:
        gain_mean[:] = gains.mean(axis=1)


class _Inline:
    """Executor stand-in for one worker: runs each task when it is submitted."""

    def submit(self, fn, *args) -> Future:
        future = Future()
        future.set_result(fn(*args))
        return future


def _service_chunks(config: QueueConfig, with_gain_mean: bool):
    """Yield (start, service, gain_mean) for each Lindley chunk, in frame order.

    A chunk's sub-chunks of _SUB_FRAMES frames are handed to up to
    BLOCKRATE_THREADS worker threads one chunk ahead of the consumer, so at
    most two chunks of results and one sub-chunk's temporaries per worker
    are alive however many frames run.  With one worker each sub-chunk is
    filled inline by the calling thread.
    """
    frames = config.frames
    workers = _max_workers(-(-frames // _SUB_FRAMES))
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext(_Inline()) as pool:
        def submit(start: int):
            count = min(_CHUNK_FRAMES, frames - start)
            service = np.empty(count)
            gain_mean = np.empty(count) if with_gain_mean else None
            futures = [pool.submit(_fill_service, config, start + lo,
                                   service[lo:lo + _SUB_FRAMES],
                                   None if gain_mean is None else gain_mean[lo:lo + _SUB_FRAMES])
                       for lo in range(0, count, _SUB_FRAMES)]
            return start, service, gain_mean, futures

        def finish(chunk):
            start, service, gain_mean, futures = chunk
            for future in futures:
                future.result()
            return start, service, gain_mean

        ahead = None
        for start in range(0, frames, _CHUNK_FRAMES):
            submitted = submit(start)
            if ahead is not None:
                yield finish(ahead)
            ahead = submitted
        yield finish(ahead)


def _lindley_chunk(q_prev: float, x: np.ndarray) -> np.ndarray:
    # closed form of the recursion over one chunk; see module docstring
    c = np.cumsum(x)
    floor = np.minimum(np.minimum.accumulate(c), 0.0)
    return np.maximum(q_prev + c, c - floor)


def simulate_queue(config: QueueConfig, trace_every: int = 0) -> QueueResult:
    """Run the queue for config.frames frames from an empty buffer.

    Returns post-burn-in queue lengths (bits, one per frame) and diagnostics.
    trace_every > 0 additionally records every trace_every-th post-burn-in
    frame as (frame index, mean gain, service bits, queue bits).
    """
    if trace_every < 0:
        raise DomainError(f"trace_every must be >= 0, got {trace_every!r}")
    frames = config.frames
    burn = config.burn_in_frames
    a = config.arrival_bits_per_frame
    samples = np.empty(frames - burn)
    traced: list[np.ndarray] = []
    q_prev = 0.0
    service_sum = 0.0
    service_sumsq = 0.0
    for start, service, gain_mean in _service_chunks(config, trace_every > 0):
        count = service.size
        service_sum += float(service.sum())
        service_sumsq += float(service @ service)
        q = _lindley_chunk(q_prev, a - service)
        q_prev = float(q[-1])
        lo = max(burn - start, 0)
        if lo < count:
            samples[start + lo - burn: start + count - burn] = q[lo:]
            if trace_every > 0:
                first = start + lo
                offset = (-first) % trace_every
                idx = np.arange(lo + offset, count, trace_every, dtype=int)
                if idx.size:
                    traced.append(np.column_stack([
                        (start + idx).astype(float), gain_mean[idx],
                        service[idx], q[idx]]))
    n_kept = samples.size
    step = max(1, n_kept // _TREND_POINTS)
    decim = samples[::step]
    t = np.arange(decim.size, dtype=float) * step
    slope = float(np.polyfit(t, decim, 1)[0]) if decim.size > 1 else 0.0
    mean_service = service_sum / frames
    var_service = max(service_sumsq / frames - mean_service**2, 0.0)
    drift = a - mean_service
    se = math.sqrt(var_service / frames)
    unstable = drift > 3.0 * se if se > 0.0 else drift > 0.0
    trace = np.concatenate(traced, axis=0) if traced else None
    return QueueResult(
        samples=samples,
        unstable=unstable,
        trend_slope=slope,
        mean_service=mean_service,
        trace=trace,
    )


def estimate_decay_rate(samples: np.ndarray, p_lo: float = 1e-4,
                        p_hi: float = 1e-1, grid_points: int = 50) -> TailEstimate:
    """Fit theta_hat from the empirical tail of queue-length samples.

    Lays a uniform q-grid across the quantile band where the tail
    probability runs from p_hi down to p_lo, computes the empirical
    P(Q >= q), and fits ln P against q by least squares.  Raises
    EstimationError when fewer than 5 usable grid points remain (run
    longer) or when the fitted tail fails to decay.
    """
    if not 0.0 < p_lo < p_hi < 1.0:
        raise DomainError(f"need 0 < p_lo < p_hi < 1, got ({p_lo!r}, {p_hi!r})")
    if grid_points < 5:
        raise DomainError(f"grid_points must be >= 5, got {grid_points!r}")
    s = np.asarray(samples, dtype=float)
    if s.size < 10:
        raise EstimationError(f"need at least 10 samples, got {s.size}")
    q_lo, q_hi = (float(v) for v in np.quantile(s, [1.0 - p_hi, 1.0 - p_lo]))
    if not q_lo < q_hi:
        raise EstimationError(
            f"degenerate tail window [{q_lo!r}, {q_hi!r}]; queue barely moves")
    # every grid point is >= q_lo, so the sorted tail above q_lo counts
    # P(Q >= q) exactly as the whole sorted sample would
    grid = np.linspace(q_lo, q_hi, grid_points)
    tail = np.sort(s[s >= q_lo])
    ccdf = (tail.size - np.searchsorted(tail, grid, side="left")) / s.size
    keep = (ccdf >= p_lo) & (ccdf <= p_hi)
    q_fit = grid[keep]
    p_fit = ccdf[keep]
    if q_fit.size < 5:
        raise EstimationError(
            f"only {q_fit.size} grid points in the tail window; run longer")
    log_p = np.log(p_fit)
    slope, _ = np.polyfit(q_fit, log_p, 1)
    if slope >= 0.0:
        raise EstimationError("queue tail is not decaying; unstable or insufficient data")
    r = float(np.corrcoef(q_fit, log_p)[0, 1])
    return TailEstimate(
        theta_hat=float(-slope),
        fit_r2=r * r,
        q_lo=q_lo,
        q_hi=q_hi,
        overflow_fraction_at_q_hi=float(ccdf[-1]),
    )
