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

Frame t consumes the random-stream window of index t, so a run is
reproducible, extendable without replaying and identical for any thread
count.  The chunked scan (`_lindley_chunk`) is not bit-identical to the
scalar loop: the largest error measured is 3e-11 times the largest step
|a - r_t|, and the tests hold it below 1e-10 times that step.  An untraced
run keeps no per-frame values, so its memory does not grow with its frames.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .channel import (
    SystemParams,
    _check_integer,
    _exponential_from_uniform,
    _run_rows,
    _window_width,
    uniform_windows,
)
from .errors import DomainError, EstimationError
from .fbl import RatePolicy, rate_stats_arrays

_CHUNK_FRAMES = 1 << 19
_SUB_FRAMES = 1 << 15  # frames per fill task and per scan block
_TREND_POINTS = 2048
_BINS_PER_THETA = 8  # tail bins per 1/theta bits: h = 1/(8*theta)
_TAIL_SPAN = 128     # the overflow bin starts at 128/theta bits
_TAIL_WINDOW = (1e-4, 0.1)  # the tail probabilities theta_hat is fitted over


def _check_theta(theta) -> None:
    """The queue's theta rule: finite and > 0, with the tail histogram's
    span 128/theta finite, so that none of its bin edges overflows."""
    if not (theta > 0.0 and math.isfinite(theta) and math.isfinite(_TAIL_SPAN / float(theta))):
        raise DomainError(f"queue runs need theta > 0 (it scales the tail histogram's bins), "
                          f"finite and with {_TAIL_SPAN}/theta finite, got {theta!r}")


def _check_run(arrival, frames, burn_in_frames, theta, trace_every) -> None:
    """The queue run's rules that need no rate target; arrival None is not yet set."""
    if arrival is not None and not (np.isfinite(arrival) and arrival >= 0):
        raise DomainError(f"arrival_bits_per_frame must be finite and >= 0, got {arrival!r}")
    _check_integer("frames", frames, 1)
    _check_integer("burn_in_frames", burn_in_frames, 0)
    if burn_in_frames >= frames:
        raise DomainError(f"burn_in_frames={burn_in_frames} must be < frames={frames}")
    _check_theta(theta)
    _check_integer("trace_every", trace_every, 0)


@dataclass(frozen=True)
class QueueConfig:
    """Inputs of one queue run, traced as `simulate_queue` says; a frame spans
    params.nm channel uses and sees params.m unit-mean Rayleigh gains.  The
    one check of a run: to `_check_run`'s rules it adds the seed's, a
    RatePolicy with its target set and the run's one float-range rule,
    frames*(arrival + `policy.service_bound`)^2 finite, which keeps every
    step, running sum, queue length and service sum or sum of squares finite."""

    arrival_bits_per_frame: float
    frames: int
    burn_in_frames: int
    seed: int
    policy: RatePolicy
    params: SystemParams
    trace_every: int = 0

    def __post_init__(self):
        _check_run(self.arrival_bits_per_frame, self.frames, self.burn_in_frames,
                   self.params.theta, self.trace_every)
        _check_integer("seed", self.seed, 0)
        if not isinstance(self.policy, RatePolicy):
            raise DomainError(f"unknown rate policy: {self.policy!r}")
        if self.policy.target is None:
            raise DomainError(f"queue runs need an explicit {self.policy.target_name} "
                              "(optimize it first, then simulate)")
        a, top = self.arrival_bits_per_frame, self.policy.service_bound(self.params)
        reach = float(a) + top  # x*x below: a float's ** raises on overflow
        if not (self.frames < 2 ** 1023 and math.isfinite(float(self.frames) * (reach * reach))):
            raise DomainError(f"frames * (arrival + largest service)^2 overflows a float: "
                              f"{self.frames} frames, arrival {a!r} and service up to {top!r} "
                              "bits per frame; use a smaller n * m, arrival or frame count")


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
    (16 KB), however many values are added.  theta must pass the queue's
    theta rule, `_check_theta`, which keeps every edge finite.
    """

    def __init__(self, theta: float):
        _check_theta(theta)
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

    def add(self, values: np.ndarray) -> None:
        """Count float values into their bins.

        values is overwritten with its scaled, clipped bin positions, so
        pass a copy to keep it.  Their bin numbers are one intp array per
        call, as large as values, besides its bincount.
        """
        with np.errstate(over="ignore"):  # +inf, clipped into the overflow bin
            np.multiply(values, self._per_bit, out=values)
        np.clip(values, 0.0, self.counts.size - 1, out=values)
        bins = values.astype(np.intp)  # truncation is floor here
        self.counts += np.bincount(bins, minlength=self.counts.size)


@dataclass(frozen=True)
class QueueResult:
    """Post-burn-in queue-length histogram plus run diagnostics.

    samples is the TailHistogram of the post-burn-in queue lengths, of a
    size fixed by theta's bins, not by frames.  drift_z is (arrival - mean
    service) / its standard error, +-inf (0 when they are equal) when every
    frame serves the same bits; unstable is drift_z > 3, where the
    trajectory diverges and tail fitting is meaningless (service is
    independent across frames, so the z-test is exact).  trend_slope is a
    linear trend fitted to every max(1, kept // 2048)-th post-burn-in frame.
    trace is None on an untraced run, else the decimated per-frame records
    (frame index, mean gain, service bits, queue bits), with no rows if no
    kept frame is on the grid.
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
    edges where the tail probability lies in [1e-4, 0.1]; q_lo and q_hi
    are the outermost of those edges.  fit_r2 is the linear fit quality;
    overflow_fraction_at_q_hi is the exact fraction of samples >= q_hi.
    """

    theta_hat: float
    fit_r2: float
    q_lo: float
    q_hi: float
    overflow_fraction_at_q_hi: float


def _fill_service(config: QueueConfig, start: int, out: np.ndarray) -> None:
    """Write the service bits of frames [start, start+count) into out[0], and
    their mean gains into out[1] when out, a (rows, count) array, has one.

    Every frame's service is per-row arithmetic on its own stream window, so
    any split of a frame range into sub-ranges fills the same bits.
    """
    params = config.params
    m = params.m
    service = out[0]
    # each padded window holds m gain draws, then the decoding draw; that
    # draw is parked in service, which the rule reads before it writes, and
    # the whole rows become gains in place, a contiguous pass as in
    # channel.draw_gain_matrix
    raw = np.empty((service.size, _window_width(m + 1)))
    service[:] = uniform_windows(config.seed, start, service.size, m + 1, out=raw)[:, m]
    gains = _exponential_from_uniform(raw, out=raw)[:, :m]
    if len(out) > 1:
        np.mean(gains, axis=1, out=out[1])
    # the statistics and the rule take half the rows at a time, which halves
    # their four temporaries (mu, delta and two per-block scratch arrays)
    half = -(-service.size // 2)
    for rows in (slice(0, half), slice(half, None)):
        config.policy.service(*rate_stats_arrays(gains[rows], params), service[rows],
                              params.nm, out=service[rows])


def _lindley_chunk(q_prev: float, a: float,
                   service: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, q) for each block service[lo:lo + _SUB_FRAMES] of a chunk:
    q holds the queue lengths after those frames, from q_prev at the chunk's
    start.

    With x_t = a - r_t and C the running sum of x over the chunk, the
    recursion has the closed form Q_t = max(q_prev + C_t, C_t - min(0,
    min_{s<=t} C_s)).  Each block carries the running sum and its floor,
    min(0, every sum so far), into the next; a minimum is exact in any
    order, so q has the bits of one whole-chunk scan.  Two block-sized
    buffers hold each block's steps, then q, and its running sums; q is the
    consumer's until it asks for the next block.
    """
    x = np.empty(min(service.size, _SUB_FRAMES))
    c = np.empty_like(x)
    low = 0.0  # min(0, every running sum so far)
    for lo in range(0, service.size, x.size):
        block = service[lo:lo + x.size]
        steps = np.subtract(a, block, out=x[:block.size])
        sums = c[:block.size]
        # as in a whole-chunk cumsum, a later block's first sum is run_sum + x[0]
        if lo:
            steps[0] += run_sum
        np.cumsum(steps, out=sums)
        floor = np.minimum(np.minimum.accumulate(sums, out=steps), low, out=steps)
        run_sum, low = sums[-1], floor[-1]
        np.subtract(sums, floor, out=floor)
        np.add(sums, q_prev, out=sums)
        yield lo, np.maximum(sums, floor, out=floor)


def simulate_queue(config: QueueConfig) -> QueueResult:
    """Run the queue for config.frames frames from an empty buffer.

    Returns the histogram of post-burn-in queue lengths (bits) and
    diagnostics.  config.trace_every > 0 also records every trace_every-th
    frame, counted from frame 0, after the burn-in (`QueueResult.trace`).

    Chunks of 2^19 frames fill the two slots of a ring made once per run (a
    traced run's slots also hold the mean gains).  Each chunk is one
    `channel._run_rows` call: its scan beside the fills of the next chunk
    into the other slot, in 2^15-frame sub-chunks.  A frame's service
    depends only on (seed, frame index), and the scans run one per call, in
    frame order, so results are identical for any thread count.  A scanned
    chunk's trace rows are copied out, then its service is overwritten with
    its squares; the sums behind drift_z are numpy's pairwise sums per
    chunk, added in chunk order, with no BLAS call.
    """
    frames = config.frames
    burn = config.burn_in_frames
    a = config.arrival_bits_per_frame
    trace_every = config.trace_every
    # the trend is fitted on every step-th kept frame, kept index 0 first
    step = max(1, (frames - burn) // _TREND_POINTS)
    trend = np.empty(-(-(frames - burn) // step))
    tail = TailHistogram(config.params.theta)
    # chunk k's service, and its mean gains when traced, fill ring slot k % 2
    ring = np.empty((1 + (frames > _CHUNK_FRAMES), 1 + (trace_every > 0),
                     min(frames, _CHUNK_FRAMES)))
    traced: list[np.ndarray] = []

    def slot(start: int) -> np.ndarray:
        return ring[start // _CHUNK_FRAMES % 2, :, :min(_CHUNK_FRAMES, frames - start)]

    def fills(start: int) -> list:
        # the sub-chunk tasks of the chunk at start; none past the last frame
        if start >= frames:
            return []
        out = slot(start)
        return [functools.partial(_fill_service, config, start + lo, out[:, lo:lo + _SUB_FRAMES])
                for lo in range(0, out.shape[1], _SUB_FRAMES)]

    def scan(start: int, q_prev: float) -> tuple[float, float, float]:
        """The chunk's last queue length, service sum and sum of squares."""
        chunk = slot(start)
        service = chunk[0]
        # pairwise sums, not BLAS's dot, which would wake its spinning threads
        # and round by their count
        total = float(service.sum())
        for lo, q in _lindley_chunk(q_prev, a, service):
            at = start + lo  # the block's first frame
            q_last = float(q[-1])
            kept = max(burn - at, 0)
            if kept < q.size:
                first = kept + (burn - at - kept) % step
                points = q[first::step]
                i = (at + first - burn) // step
                trend[i:i + points.size] = points
                if trace_every > 0:
                    idx = np.arange(kept + (-(at + kept)) % trace_every, q.size, trace_every)
                    traced.append(np.column_stack([(at + idx).astype(float), chunk[1, lo + idx],
                                                   service[lo + idx], q[idx]]))
                tail.add(q[kept:])  # last use of q: binning overwrites it
        # the squares in place, now that the scan has read the service
        return q_last, total, float(np.multiply(service, service, out=service).sum())

    _run_rows(fills(0))
    q_prev = service_sum = service_sumsq = 0.0
    for start in range(0, frames, _CHUNK_FRAMES):
        (q_prev, total, sumsq), *_ = _run_rows(
            [functools.partial(scan, start, q_prev), *fills(start + _CHUNK_FRAMES)])
        service_sum += total
        service_sumsq += sumsq
    mean_service = service_sum / frames
    t = np.arange(trend.size, dtype=float) * step
    slope = float(np.polyfit(t, trend, 1)[0]) if trend.size > 1 else 0.0
    var_service = max(service_sumsq / frames - mean_service**2, 0.0)
    drift, se = a - mean_service, math.sqrt(var_service / frames)
    drift_z = drift / se if se > 0.0 else math.copysign(math.inf, drift) if drift else 0.0
    trace = np.concatenate(traced or [np.empty((0, 4))]) if trace_every > 0 else None
    return QueueResult(samples=tail, unstable=drift_z > 3.0, trend_slope=slope,
                       mean_service=mean_service, drift_z=drift_z, trace=trace)


def estimate_decay_rate(tail: TailHistogram) -> TailEstimate:
    """Fit theta_hat from the tail of a queue-length histogram.

    Fits ln P(Q >= q) against q by least squares at the bin edges where the
    tail probability, an exact count there, lies in [1e-4, 0.1].  Raises
    EstimationError under 10 samples, when the window falls inside one bin
    (the queue barely moves), when it reaches the overflow bin, when fewer
    than 5 edges lie in it (run longer) or when the fitted tail fails to
    decay.
    """
    p_lo, p_hi = _TAIL_WINDOW
    total = tail.total
    if total < 10:
        raise EstimationError(f"need at least 10 samples, got {total}")
    ccdf = np.cumsum(tail.counts[::-1])[::-1] / total  # P(Q >= edges[i])
    if ccdf[-1] >= p_lo:
        raise EstimationError(
            f"P(Q >= {float(tail.edges[-1])!r}) = {float(ccdf[-1])!r} >= {p_lo!r}: the tail "
            f"window reaches the histogram's overflow bin; the tail decays far slower than theta")
    keep = (ccdf >= p_lo) & (ccdf <= p_hi)
    q_fit = tail.edges[keep]
    p_fit = ccdf[keep]
    if q_fit.size == 0:
        i = np.count_nonzero(ccdf > p_hi) - 1
        raise EstimationError(
            f"degenerate tail window: P(Q >= q) falls from {float(ccdf[i])!r} to "
            f"{float(ccdf[i + 1])!r} within the bin [{float(tail.edges[i])!r}, "
            f"{float(tail.edges[i + 1])!r}); queue barely moves")
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
