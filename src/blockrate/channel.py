"""Block-fading channel model and reproducible gain sampling.

Fading stays constant over a coherence block of n symbols and is i.i.d.
across blocks; a codeword spans m blocks and sees the power gains
z = (z_1, ..., z_m) with z_l = |h_l|^2.  Rayleigh fading makes each z_l
exponential; the gains have unit mean and the SNR sets the received power.

Sampling is counter-based: sample index i owns a fixed window of a Philox
stream (padded to whole 4-draw counter blocks), so drawing samples [a, b)
in one vectorized batch -- or concurrently in any chunking -- reproduces a
serial full pass bit for bit.  `draw_gain_matrix` is the one draw of a
sample set: it fills one padded matrix in row blocks on the worker pool, and
`SampleSet.draw` reads it.

`_on_row_blocks` is the package's one rule for splitting rows across the
pool, used by the draw, the statistics walk, the fixed-rate kernel's row
sweep and `fbl`'s exact information-density sampler: each worker gets an
equal share of the rows, and no block holds more than about 2^19 values,
so fig2's (1e5, 52) master goes in 10 blocks on one or two workers while a
1e5-row phi sweep goes in one block per worker.  Each of them computes a
row from that row alone, in elementwise numpy arithmetic inside its block,
so neither the split nor the row count moves a bit.  The queue's frame fill
keeps its own 2^15-frame tasks (`queue_sim._SUB_FRAMES`), sized by
measurement against malloc's trim behaviour.

`_run_rows` is the package's one way onto its worker pool, and its one
choice between a pool of at most BLOCKRATE_THREADS workers (default: the
core count) and running inline.  The cap is read on every call, and each
cap gets one pool that lives as long as the process, so no call starts or
joins threads once its pool exists.  A call made on a worker of one of
those pools runs inline.  Work does nest: a multi-row fixed-rate sweep
(fig4, `sweep-m --rate`) evaluates each row on a pool worker, and that
row's phi sweep calls `_run_rows` from there.  Its blocks, one up to 2^19
rows, run inline on that worker, so the call never waits on a worker of
its own pool that may be waiting for it.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
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
    must be finite, and zero or at least the least normal float: every
    throughput kernel's exponent scales with it, and a subnormal one keeps
    only a few bits."""

    snr_linear: float
    n: int
    m: int
    theta: float

    def __post_init__(self):
        if not (np.isfinite(self.snr_linear) and self.snr_linear > 0):
            raise DomainError(f"snr_linear must be finite and > 0, got {self.snr_linear!r}")
        _check_integer("n", self.n, 1)
        _check_integer("m", self.m, 1)
        if not (np.isfinite(self.theta) and self.theta >= 0):
            raise DomainError(f"theta must be finite and >= 0, got {self.theta!r}")
        try:
            scale = self.theta * self.nm
        except OverflowError:  # an int past float range
            raise DomainError("n * m overflows a float") from None
        if not np.isfinite(scale):
            raise DomainError(f"theta * n * m overflows: theta = {self.theta!r}, n * m = {self.nm}")
        if 0.0 < scale < sys.float_info.min:
            raise DomainError(f"theta * n * m = {scale!r} is subnormal, which the kernels hold "
                              f"to a few bits: theta = {self.theta!r}, n * m = {self.nm}; "
                              "use theta = 0 for the ergodic limit")

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


_POOLS: dict[int, ThreadPoolExecutor] = {}  # by worker cap, never shut down
_POOLS_LOCK = threading.Lock()
_WORKER = threading.local()  # .pooled is True on the pools' own threads


def _mark_worker() -> None:
    _WORKER.pooled = True


def _pool_width() -> int:
    """Workers a pool call made here may use: the BLOCKRATE_THREADS cap, or
    one on a pool worker, where calls run inline."""
    return 1 if getattr(_WORKER, "pooled", False) else _thread_cap()


def _run_rows(tasks: Sequence[Callable[[], _T]]) -> list[_T]:
    """Each task's result, in input order.

    The tasks run inline, in order, when there is one task, the
    BLOCKRATE_THREADS cap is one, or the caller is a pool worker.  Otherwise
    they go to the process's pool for the cap, which is shared and
    persistent: callers wait on their own tasks and never shut it down."""
    cap = _pool_width()
    if min(cap, len(tasks)) <= 1:
        return [t() for t in tasks]
    with _POOLS_LOCK:
        if cap not in _POOLS:
            _POOLS[cap] = ThreadPoolExecutor(cap, initializer=_mark_worker)
        pool = _POOLS[cap]
    futures = [pool.submit(t) for t in tasks]
    return [f.result() for f in futures]


# values (4 MB of floats) a row block holds at most, so that its rows stay in
# cache while a task walks them.  Drawing fig2's (1e5, 52) master and walking
# its statistics took 80-94 ms in 2 to 14 blocks on two workers and 130 ms in
# 40; on one thread, 124 ms in 10 blocks and 139 ms unsplit (2-vCPU VM).
_BLOCK_VALUES = 1 << 19


def _on_row_blocks(count: int, width: int, task: Callable[[int, int], None]) -> None:
    """task(lo, hi) for each row block of a (count, width) array, on the
    worker pool; each task writes only its own rows.

    The blocks are the fewest, in a multiple of the workers a pool call made
    here may use, that keep each under about _BLOCK_VALUES values, and their
    sizes differ by at most a row, so every worker gets an equal share."""
    workers = _pool_width()
    blocks = -(-count * width // _BLOCK_VALUES)
    blocks = min(-(-blocks // workers) * workers, count)
    edges = [i * count // blocks for i in range(blocks + 1)]
    _run_rows([functools.partial(task, lo, hi) for lo, hi in zip(edges, edges[1:])])


def _window_width(draws: int) -> int:
    """Columns of a padded window of `draws` draws: whole counter blocks."""
    return -(-draws // _PHILOX_BLOCK) * _PHILOX_BLOCK


def substream(seed: int, index: int, draws_per_sample: int) -> np.random.Generator:
    """Philox generator positioned at the start of sample `index`'s window."""
    _check_integer("seed", seed, 0)
    _check_integer("index", index, 0)
    bg = np.random.Philox(seed)
    bg.advance(int(index) * _window_width(draws_per_sample) // _PHILOX_BLOCK)
    return np.random.Generator(bg)


def uniform_windows(seed: int, start: int, count: int, draws_per_sample: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """(count, draws_per_sample) uniforms in [0,1); row i is the window of
    sample start+i.  Identical to per-sample substream() draws.

    The padded windows are drawn into `out`, a C-contiguous (count, padded
    width) array, or into a new one; the result is a view of it.  A start
    that is negative or not integral, or a last window past the stream's
    2**256 counter blocks, where Philox's counter wraps, is a DomainError.
    """
    stream = substream(seed, start, draws_per_sample)
    width = _window_width(draws_per_sample)
    end = int(start) + count
    if end * width > _PHILOX_BLOCK << 256:
        raise DomainError(f"samples [{start}, {end}) of {draws_per_sample} draws "
                          "run past the stream's 2**256 counter blocks")
    raw = np.empty((count, width)) if out is None else out
    stream.random(out=raw)
    return raw[:, :draws_per_sample]


def _exponential_from_uniform(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # inverse CDF with u mapped into (0, 1]: z = -ln(u); out may be u
    z = np.log1p(np.negative(u, out=out), out=out)
    return np.negative(z, out=out)


def draw_gain_matrix(model: Rayleigh, m: int, count: int, seed: int,
                     start: int = 0) -> np.ndarray:
    """(count, m) gains for sample indices [start, start+count), windowed as
    described in the module docstring: the [:, :m] view of one padded
    (count, 4*ceil(m/4)) buffer (ComputationError if it cannot be had),
    each row block filled in place by one pool task."""
    if not isinstance(model, Rayleigh):
        raise DomainError(f"model must be a Rayleigh, got {model!r}")
    _check_integer("m", m, 1)
    _check_integer("count", count, 1)
    _check_integer("seed", seed, 0)
    try:
        buf = np.empty((count, _window_width(m)))
    except (MemoryError, ValueError) as exc:  # ValueError: "array is too big"
        raise ComputationError(f"cannot allocate gains for {count} samples: {exc}") from None

    def fill(lo: int, hi: int) -> None:
        # the whole padded rows: a contiguous pass beats a strided one, most
        # of all at small m
        uniform_windows(seed, start + lo, hi - lo, m, out=buf[lo:hi])
        _exponential_from_uniform(buf[lo:hi], out=buf[lo:hi])

    _on_row_blocks(count, buf.shape[1], fill)
    return buf[:, :m]
