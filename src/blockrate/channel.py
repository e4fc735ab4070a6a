"""Block-fading channel model and reproducible gain sampling.

Fading stays constant over a coherence block of n symbols and is i.i.d.
across blocks; a codeword spans m blocks and sees the power gains
z = (z_1, ..., z_m) with z_l = |h_l|^2.  Rayleigh fading makes each z_l
exponential; the gains have unit mean and the SNR sets the received power.

Sampling is counter-based: sample index i owns a fixed window of a Philox
stream (padded to whole 4-draw counter blocks), so drawing samples [a, b)
in one vectorized batch -- or concurrently in any chunking -- reproduces a
serial full pass bit for bit.

`_executor` is the package's one choice between a pool of at most
BLOCKRATE_THREADS workers (default: the core count) and running inline.
The cap is read on every call, and each cap gets one pool that lives as
long as the process, so no call starts or joins threads once its pool
exists.  A call made on a worker of one of those pools runs inline: nested
work (a sweep row whose statistics are not cached yet walks them through
`_run_rows`) never waits on a worker that is waiting for it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import ComputationError, DomainError

_T = TypeVar("_T")

_PHILOX_BLOCK = 4  # 64-bit outputs per Philox counter increment


def _check_integer(name: str, value, low: int) -> None:
    """The one integer rule: value is a Python or numpy integer >= low."""
    if not (isinstance(value, (int, np.integer)) and value >= low):
        raise DomainError(f"{name} must be >= {low} and integral, got {value!r}")


def _check_gains(gains: np.ndarray) -> None:
    # min is nan if any entry is, so two reductions check every entry
    if not (gains.min() >= 0.0 and gains.max() < np.inf):
        raise DomainError("gains must be finite and >= 0")


@dataclass(frozen=True)
class SystemParams:
    """Link parameters: SNR (linear), block length n, blocks per codeword m,
    and QoS exponent theta (1/bits).

    The one check of a point.  Besides each field's range, theta * n * m
    must be finite: every throughput kernel's exponent scales with it."""

    snr_linear: float
    n: int
    m: int
    theta: float

    def __post_init__(self):
        if not (np.isfinite(self.snr_linear) and self.snr_linear > 0):
            raise DomainError(f"snr_linear must be positive, got {self.snr_linear!r}")
        _check_integer("n", self.n, 1)
        _check_integer("m", self.m, 1)
        if not (np.isfinite(self.theta) and self.theta >= 0):
            raise DomainError(f"theta must be >= 0, got {self.theta!r}")
        try:
            scale = self.theta * self.nm
        except OverflowError:  # an int past float range
            raise DomainError("n * m overflows a float") from None
        if not np.isfinite(scale):
            raise DomainError(f"theta * n * m overflows: theta = {self.theta!r}, n * m = {self.nm}")

    @property
    def nm(self) -> int:
        """Codeword length in channel uses."""
        return self.n * self.m

    @classmethod
    def from_db(cls, snr_db: float, n: int, m: int, theta: float) -> "SystemParams":
        try:
            snr = 10.0 ** (snr_db / 10.0)
        except OverflowError:
            snr = np.inf
        if not 0.0 < snr < np.inf:
            raise DomainError(f"snr_db = {snr_db!r} gives no positive finite linear SNR")
        return cls(snr, n, m, theta)


@dataclass(frozen=True)
class Rayleigh:
    """Rayleigh fading: power gains are exponential with unit mean."""


def _thread_cap() -> int:
    """BLOCKRATE_THREADS, or the core count when it is unset."""
    raw = os.environ.get("BLOCKRATE_THREADS", "")
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise DomainError(f"BLOCKRATE_THREADS must be an integer, got {raw!r}") from None
        if cap < 1:
            raise DomainError(f"BLOCKRATE_THREADS must be >= 1, got {cap}")
        return cap
    return os.cpu_count() or 1


class _Inline(Executor):
    """Executor for one worker: runs each task when it is submitted."""

    def submit(self, fn, *args) -> Future:
        future = Future()
        future.set_result(fn(*args))
        return future


_POOLS: dict[int, ThreadPoolExecutor] = {}  # by worker cap, never shut down
_POOLS_LOCK = threading.Lock()
_WORKER = threading.local()  # .pooled is True on the pools' own threads


def _mark_worker() -> None:
    _WORKER.pooled = True


def _executor(n_tasks: int) -> Executor:
    """The process's pool for the current BLOCKRATE_THREADS cap, or _Inline
    when there is one task, the cap is one, or the caller is a pool worker.

    The pool is shared and persistent: callers submit to it and wait on their
    own futures, and never shut it down."""
    cap = _thread_cap()
    if min(cap, n_tasks) <= 1 or getattr(_WORKER, "pooled", False):
        return _Inline()
    with _POOLS_LOCK:
        if cap not in _POOLS:
            _POOLS[cap] = ThreadPoolExecutor(cap, initializer=_mark_worker)
        return _POOLS[cap]


def _run_rows(tasks: Sequence[Callable[[], _T]]) -> list[_T]:
    pool = _executor(len(tasks))
    futures = [pool.submit(t) for t in tasks]
    return [f.result() for f in futures]


def _blocks_per_sample(draws: int) -> int:
    return -(-draws // _PHILOX_BLOCK)


def substream(seed: int, index: int, draws_per_sample: int) -> np.random.Generator:
    """Philox generator positioned at the start of sample `index`'s window."""
    _check_integer("seed", seed, 0)
    bg = np.random.Philox(seed)
    bg.advance(index * _blocks_per_sample(draws_per_sample))
    return np.random.Generator(bg)


def uniform_windows(seed: int, start: int, count: int, draws_per_sample: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """(count, draws_per_sample) uniforms in [0,1); row i is the window of
    sample start+i.  Identical to per-sample substream() draws.

    The padded windows are drawn into `out`, a C-contiguous (count, padded
    width) array, or into a new one; the result is a view of it.
    """
    width = _blocks_per_sample(draws_per_sample) * _PHILOX_BLOCK
    raw = np.empty((count, width)) if out is None else out
    substream(seed, start, draws_per_sample).random(out=raw)
    return raw[:, :draws_per_sample]


def _exponential_from_uniform(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # inverse CDF with u mapped into (0, 1]: z = -ln(u); out may be u
    z = np.log1p(np.negative(u, out=out), out=out)
    return np.negative(z, out=out)


def _gain_buffer(model: Rayleigh, m: int, count: int) -> np.ndarray:
    """An unfilled (count, padded m) buffer for `_fill_gains`, once the
    model, m and count are checked; ComputationError if it cannot be had."""
    if not isinstance(model, Rayleigh):
        raise DomainError(f"model must be a Rayleigh, got {model!r}")
    _check_integer("m", m, 1)
    _check_integer("count", count, 1)
    try:
        return np.empty((count, _blocks_per_sample(m) * _PHILOX_BLOCK))
    except (MemoryError, ValueError) as exc:  # ValueError: "array is too big"
        raise ComputationError(f"cannot allocate gains for {count} samples: {exc}") from None


def _fill_gains(m: int, seed: int, start: int, out: np.ndarray) -> None:
    """Write the gains of sample indices [start, start+len(out)) into the
    leading m columns of `out`, rows of a `_gain_buffer`, allocating no
    temporary of its size; the padding columns are left unspecified."""
    # the whole padded rows: a contiguous pass beats a strided one, most of
    # all at small m
    uniform_windows(seed, start, out.shape[0], m, out=out)
    _exponential_from_uniform(out, out=out)


def draw_gain_matrix(model: Rayleigh, m: int, count: int, seed: int,
                     start: int = 0) -> np.ndarray:
    """(count, m) gains for sample indices [start, start+count), windowed as
    described in the module docstring."""
    buf = _gain_buffer(model, m, count)
    _fill_gains(m, seed, start, buf)
    return buf[:, :m]
