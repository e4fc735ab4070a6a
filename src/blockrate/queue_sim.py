"""Discrete-time queue fed by constant arrivals and two-point frame service.

One frame = one codeword = n*m channel uses.  Each frame draws m fresh
unit-mean Rayleigh gains, then one decoding draw, and the policy's `service`
rule turns them into bits: n*m*R on success, nothing on a decoding failure
(failed bits stay queued — an implicit retransmission).  The queue follows
the Lindley recursion Q_{t+1} = max(Q_t + a - r_t, 0).

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
Frame t consumes the random-stream window of index t (its m gains, then its
decoding draw), making trajectories reproducible and extendable without
replaying.

The run keeps no per-frame values.  Each chunk's post-burn-in queue lengths
are counted into a TailHistogram: bins of width h = 1/(8*theta) bits up to a
cap of 128/theta bits, past which one overflow bin counts the rest.  The
scan reuses three chunk-sized buffers, for its steps, running sums and bin
numbers, and keeps the 2048-odd points of the trajectory that `trend_slope`
is fitted on.  So a run holds a few chunks' arrays, the 1025 bin counts and
edges (16 KB) and those points, however many frames it simulates; per-frame
values come only from a trace_every=1 trace.

A frame's service depends only on (seed, frame index), so worker threads
compute it in sub-chunks of 2^15 frames, one chunk ahead of the scan: at
most two chunks of service and one sub-chunk's temporaries per worker are
alive however many frames run.  The workers are channel._executor's
persistent pool, the one the sweeps use, so BLOCKRATE_THREADS caps both.
The scan stays on the calling thread, in frame order and with unchanged
chunk boundaries, so results are identical for any thread count.  The
service's sum and sum of squares, behind drift_z, are numpy's pairwise sums
per chunk, added in chunk order; no BLAS call is made, so OpenBLAS's thread
count cannot change them either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    SystemParams,
    _check_integer,
    _executor,
    _exponential_from_uniform,
    uniform_windows,
)
from .errors import DomainError, EstimationError
from .fbl import RatePolicy, rate_stats_arrays

_CHUNK_FRAMES = 1 << 19
# frames per service task on the worker threads.  A task's temporaries
# (about 1 MB each) stay in malloc's heaps between tasks; at 2^17 frames
# glibc handed them back to the OS and faulted them in again, 400 MB of
# page faults per 1e7 frames.
_SUB_FRAMES = 1 << 15
_TREND_POINTS = 2048
_BINS_PER_THETA = 8  # tail bins per 1/theta bits: h = 1/(8*theta)
_TAIL_SPAN = 128     # the overflow bin starts at 128/theta bits


@dataclass(frozen=True)
class QueueConfig:
    """Inputs of one queue run; one frame spans params.nm channel uses and
    sees params.m unit-mean Rayleigh gains.  policy's target must be set."""

    arrival_bits_per_frame: float
    frames: int
    burn_in_frames: int
    seed: int
    policy: RatePolicy
    params: SystemParams

    def __post_init__(self):
        a = self.arrival_bits_per_frame
        if not (np.isfinite(a) and a >= 0):
            raise DomainError(f"arrival_bits_per_frame must be finite and >= 0, got {a!r}")
        _check_integer("frames", self.frames, 1)
        _check_integer("burn_in_frames", self.burn_in_frames, 0)
        if self.burn_in_frames >= self.frames:
            raise DomainError(
                f"burn_in_frames={self.burn_in_frames} must be < frames={self.frames}")
        if not isinstance(self.policy, RatePolicy):
            raise DomainError(f"unknown rate policy: {self.policy!r}")
        if self.policy.target is None:
            raise DomainError(f"queue runs need an explicit {self.policy.target_name} "
                              "(optimize it first, then simulate)")
        if not self.params.theta > 0.0:
            raise DomainError(f"queue runs need theta > 0 (it scales the tail "
                              f"histogram's bins), got {self.params.theta!r}")


def _bin_edges(per_bit: float, bins: int) -> np.ndarray:
    """edges[i] = the smallest double q with fl(q * per_bit) >= i, i = 0..bins.

    fl(q * per_bit) is non-decreasing in q, so a value counts at bin i or
    above exactly when it is >= edges[i].  Each edge is i/per_bit moved by
    at most a few ulps.
    """
    i = np.arange(bins + 1, dtype=float)
    edges = i / per_bit
    while np.any(low := edges * per_bit < i):
        edges[low] = np.nextafter(edges[low], np.inf)
    while np.any(high := (np.nextafter(edges, -np.inf) * per_bit >= i) & (i > 0)):
        edges[high] = np.nextafter(edges[high], -np.inf)
    return edges


class TailHistogram:
    """Counts of queue lengths (bits) on bins of width h = 1/(8*theta).

    Bin i < bins counts the values in [edges[i], edges[i+1]), where edges[i]
    is i*h to within a few ulps; values below h, negative ones included,
    count in bin 0.  The last bin, counts[bins], is the overflow bin: every
    value >= edges[bins] = 128/theta.  counts[i:].sum() is therefore the
    exact number of values >= edges[i].  Memory is the 1025 counts and edges
    (16 KB), however many values are added.
    """

    def __init__(self, theta: float):
        if not (math.isfinite(theta) and theta > 0.0):
            raise DomainError(f"theta must be finite and > 0, got {theta!r}")
        self._per_bit = _BINS_PER_THETA * float(theta)
        bins = _BINS_PER_THETA * _TAIL_SPAN
        self.edges = _bin_edges(self._per_bit, bins)
        self.counts = np.zeros(bins + 1, dtype=np.int64)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def nbytes(self) -> int:
        return self.counts.nbytes + self.edges.nbytes

    def add(self, values: np.ndarray, index: np.ndarray) -> None:
        """Count float values into their bins.

        values is overwritten with its scaled, clipped bin positions, so
        pass a copy to keep it.  index, an intp array at least values.size
        long, receives the bin numbers; the Lindley scan passes one buffer
        for every chunk, so binning allocates nothing per chunk.
        """
        n = values.size
        index = index[:n]
        np.multiply(values, self._per_bit, out=values)
        np.clip(values, 0.0, self.counts.size - 1, out=values)
        np.copyto(index, values, casting="unsafe")  # truncation is floor here
        self.counts += np.bincount(index, minlength=self.counts.size)


@dataclass(frozen=True)
class QueueResult:
    """Post-burn-in queue-length histogram plus run diagnostics.

    samples is the TailHistogram of the post-burn-in queue lengths; it and
    every other field have a size fixed by theta's bins, not by frames.
    unstable means the trajectory diverges: the arrival rate exceeds the
    measured mean service rate by more than three standard errors (service
    is independent across frames, so the z-test is exact); drift_z is that
    z-score, (arrival - mean service) / its standard error, and is +-inf
    (0 when they are equal) when every frame serves the same bits; the
    service's variance comes from per-chunk pairwise sums of its squares.
    Tail fitting is meaningless on an unstable run.  trend_slope is a
    diagnostic linear trend fitted to every max(1, kept // 2048)-th
    post-burn-in frame.  trace is optional decimated per-frame records with
    columns (frame index, mean gain, service bits, queue bits);
    trace_every=1 is the only way to get every frame's queue length.
    """

    samples: TailHistogram
    unstable: bool
    trend_slope: float
    mean_service: float
    drift_z: float
    trace: np.ndarray | None = None


@dataclass(frozen=True)
class TailEstimate:
    """Fitted exponential decay of the stationary queue tail.

    theta_hat is -slope of ln P(Q >= q) against q at the histogram's bin
    edges where the tail probability lies in [p_lo, p_hi]; q_lo and q_hi
    are the outermost of those edges.  fit_r2 is the linear fit quality;
    overflow_fraction_at_q_hi is the exact fraction of samples >= q_hi.
    """

    theta_hat: float
    fit_r2: float
    q_lo: float
    q_hi: float
    overflow_fraction_at_q_hi: float


def _fill_service(config: QueueConfig, start: int, service: np.ndarray,
                  gain_mean: np.ndarray | None) -> None:
    """Write the service bits of frames [start, start+len(service)) into
    service, and their mean gains into gain_mean unless it is None.

    Every frame's service is per-row arithmetic on its own stream window, so
    any split of a frame range into sub-ranges fills the same bits.
    """
    params = config.params
    m = params.m
    u = uniform_windows(config.seed, start, service.size, m + 1)
    gains = _exponential_from_uniform(u[:, :m], 1.0)
    mu, delta = rate_stats_arrays(gains, params)
    service[:] = config.policy.service(mu, delta, u[:, m], params.nm)
    if gain_mean is not None:
        gain_mean[:] = gains.mean(axis=1)


def _service_chunks(config: QueueConfig, with_gain_mean: bool):
    """Yield (start, service, gain_mean) for each Lindley chunk, in frame order.

    A chunk's sub-chunks of _SUB_FRAMES frames are submitted to `_executor`
    one chunk ahead of the consumer, so at most two chunks of results and
    one sub-chunk's temporaries per worker are alive however many frames
    run.  With one worker each sub-chunk is filled inline by the calling
    thread.
    """
    frames = config.frames
    pool = _executor(-(-frames // _SUB_FRAMES))

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


def _lindley_chunk(q_prev: float, x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Queue lengths after each step of x from q_prev, by the closed form of
    the recursion (see module docstring).

    The result overwrites x, and work, a float buffer of x's size, is
    clobbered, so a scan that passes the same two buffers for every chunk
    allocates nothing.
    """
    c = np.cumsum(x, out=work)
    floor = np.minimum.accumulate(c, out=x)
    np.minimum(floor, 0.0, out=floor)
    np.subtract(c, floor, out=floor)
    np.add(c, q_prev, out=c)
    return np.maximum(c, floor, out=floor)


def simulate_queue(config: QueueConfig, trace_every: int = 0) -> QueueResult:
    """Run the queue for config.frames frames from an empty buffer.

    Returns the histogram of post-burn-in queue lengths (bits) and
    diagnostics.  trace_every > 0 additionally records every trace_every-th
    frame, counted from frame 0, after the burn-in as (frame index, mean
    gain, service bits, queue bits).
    """
    _check_integer("trace_every", trace_every, 0)
    frames = config.frames
    burn = config.burn_in_frames
    a = config.arrival_bits_per_frame
    # the trend is fitted on every step-th kept frame, kept index 0 first
    step = max(1, (frames - burn) // _TREND_POINTS)
    trend = np.empty(-(-(frames - burn) // step))
    tail = TailHistogram(config.params.theta)
    # the scan's buffers, reused by every chunk
    steps = np.empty(min(frames, _CHUNK_FRAMES))
    work = np.empty_like(steps)
    index = np.empty(steps.size, dtype=np.intp)
    traced: list[np.ndarray] = []
    q_prev = 0.0
    service_sum = 0.0
    service_sumsq = 0.0
    for start, service, gain_mean in _service_chunks(config, trace_every > 0):
        count = service.size
        service_sum += float(service.sum())
        # a pairwise sum in work, which the scan overwrites next: BLAS's dot
        # would wake its spinning threads and round by their count
        service_sumsq += float(np.multiply(service, service, out=work[:count]).sum())
        q = _lindley_chunk(q_prev, np.subtract(a, service, out=steps[:count]), work[:count])
        q_prev = float(q[-1])
        lo = max(burn - start, 0)
        if lo < count:
            first = lo + (burn - start - lo) % step
            kept = q[first::step]
            at = (start + first - burn) // step
            trend[at:at + kept.size] = kept
            if trace_every > 0:
                offset = (-(start + lo)) % trace_every
                idx = np.arange(lo + offset, count, trace_every, dtype=int)
                if idx.size:
                    traced.append(np.column_stack([
                        (start + idx).astype(float), gain_mean[idx],
                        service[idx], q[idx]]))
            tail.add(q[lo:], index)  # last use of q: binning overwrites it
    t = np.arange(trend.size, dtype=float) * step
    slope = float(np.polyfit(t, trend, 1)[0]) if trend.size > 1 else 0.0
    mean_service = service_sum / frames
    var_service = max(service_sumsq / frames - mean_service**2, 0.0)
    drift = a - mean_service
    se = math.sqrt(var_service / frames)
    unstable = drift > 3.0 * se if se > 0.0 else drift > 0.0
    if se > 0.0:
        drift_z = drift / se
    else:
        drift_z = math.copysign(math.inf, drift) if drift else 0.0
    trace = np.concatenate(traced, axis=0) if traced else None
    return QueueResult(
        samples=tail,
        unstable=unstable,
        trend_slope=slope,
        mean_service=mean_service,
        drift_z=drift_z,
        trace=trace,
    )


def estimate_decay_rate(tail: TailHistogram, p_lo: float = 1e-4,
                        p_hi: float = 1e-1) -> TailEstimate:
    """Fit theta_hat from the tail of a queue-length histogram.

    Fits ln P(Q >= q) against q by least squares at the bin edges where the
    tail probability, an exact count there, lies in [p_lo, p_hi].  Raises
    EstimationError under 10 samples, when the window falls inside one bin
    (the queue barely moves), when it reaches the overflow bin, when fewer
    than 5 edges lie in it (run longer) or when the fitted tail fails to
    decay.
    """
    if not 0.0 < p_lo < p_hi < 1.0:
        raise DomainError(f"need 0 < p_lo < p_hi < 1, got ({p_lo!r}, {p_hi!r})")
    total = tail.total
    if total < 10:
        raise EstimationError(f"need at least 10 samples, got {total}")
    ccdf = np.cumsum(tail.counts[::-1])[::-1] / total  # P(Q >= edges[i])
    if ccdf[-1] >= p_lo:
        raise EstimationError(
            f"P(Q >= {tail.edges[-1]!r}) = {ccdf[-1]!r} >= p_lo: the tail window "
            f"reaches the histogram's overflow bin; the tail decays far slower than theta")
    keep = (ccdf >= p_lo) & (ccdf <= p_hi)
    q_fit = tail.edges[keep]
    p_fit = ccdf[keep]
    if q_fit.size == 0:
        i = np.count_nonzero(ccdf > p_hi) - 1
        raise EstimationError(
            f"degenerate tail window: P(Q >= q) falls from {ccdf[i]!r} to {ccdf[i + 1]!r} "
            f"within the bin [{tail.edges[i]!r}, {tail.edges[i + 1]!r}); queue barely moves")
    if q_fit.size < 5:
        raise EstimationError(
            f"only {q_fit.size} bin edges in the tail window; run longer")
    log_p = np.log(p_fit)
    slope, _ = np.polyfit(q_fit, log_p, 1)
    if slope >= 0.0 or p_fit[-1] == p_fit[0]:
        raise EstimationError("queue tail is not decaying; unstable or insufficient data")
    r = float(np.corrcoef(q_fit, log_p)[0, 1])
    return TailEstimate(
        theta_hat=float(-slope),
        fit_r2=r * r,
        q_lo=float(q_fit[0]),
        q_hi=float(q_fit[-1]),
        overflow_fraction_at_q_hi=float(p_fit[-1]),
    )
