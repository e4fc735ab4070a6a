"""Block-fading channel model and reproducible gain sampling.

Fading stays constant over a coherence block of n symbols and is i.i.d.
across blocks; a codeword spans m blocks and sees the power gains
z = (z_1, ..., z_m) with z_l = |h_l|^2.  Rayleigh fading makes each z_l
exponential.

Sampling is counter-based: sample index i owns a fixed window of a Philox
stream (padded to whole 4-draw counter blocks), so drawing samples [a, b)
in one vectorized batch -- or concurrently in any chunking -- reproduces a
serial full pass bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_PHILOX_BLOCK = 4  # 64-bit outputs per Philox counter increment


@dataclass(frozen=True)
class SystemParams:
    """Link parameters: SNR (linear), block length n, blocks per codeword m,
    and QoS exponent theta (1/bits)."""

    snr_linear: float
    n: int
    m: int
    theta: float

    def __post_init__(self):
        if not (np.isfinite(self.snr_linear) and self.snr_linear > 0):
            raise DomainError(f"snr_linear must be positive, got {self.snr_linear!r}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise DomainError(f"n must be an integer >= 1, got {self.n!r}")
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise DomainError(f"m must be an integer >= 1, got {self.m!r}")
        if not (np.isfinite(self.theta) and self.theta >= 0):
            raise DomainError(f"theta must be >= 0, got {self.theta!r}")

    @property
    def nm(self) -> int:
        """Codeword length in channel uses."""
        return self.n * self.m

    @classmethod
    def from_db(cls, snr_db: float, n: int, m: int, theta: float) -> "SystemParams":
        return cls(10.0 ** (snr_db / 10.0), n, m, theta)


@dataclass(frozen=True)
class Rayleigh:
    """Rayleigh fading: power gains are exponential with the given mean."""

    mean_power: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.mean_power) and self.mean_power > 0):
            raise DomainError(f"mean_power must be positive, got {self.mean_power!r}")


@dataclass(frozen=True)
class Deterministic:
    """Fixed gains, returned verbatim; consumes no randomness."""

    gains: tuple

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise DomainError("Deterministic gains must be a non-empty vector")
        if not np.all(np.isfinite(g) & (g >= 0)):
            raise DomainError("Deterministic gains must be finite and >= 0")
        object.__setattr__(self, "gains", tuple(float(v) for v in g))


FadingModel = Rayleigh | Deterministic


def _blocks_per_sample(draws: int) -> int:
    return -(-draws // _PHILOX_BLOCK)


def substream(seed: int, index: int, draws_per_sample: int) -> np.random.Generator:
    """Philox generator positioned at the start of sample `index`'s window."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed!r}")
    bg = np.random.Philox(seed)
    bg.advance(index * _blocks_per_sample(draws_per_sample))
    return np.random.Generator(bg)


def uniform_windows(seed: int, start: int, count: int, draws_per_sample: int) -> np.ndarray:
    """(count, draws_per_sample) uniforms in [0,1); row i is the window of
    sample start+i.  Identical to per-sample substream() draws."""
    width = _blocks_per_sample(draws_per_sample) * _PHILOX_BLOCK
    g = substream(seed, start, draws_per_sample)
    raw = g.random((count, width))
    return raw[:, :draws_per_sample]


def _exponential_from_uniform(u: np.ndarray, mean: float) -> np.ndarray:
    # inverse CDF with u mapped into (0, 1]: z = -mean*ln(u)
    return -mean * np.log1p(-u)


def draw_gain_matrix(model: FadingModel, m: int, count: int, seed: int,
                     start: int = 0) -> np.ndarray:
    """(count, m) gains for sample indices [start, start+count), windowed as
    described in the module docstring."""
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m!r}")
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count!r}")
    if isinstance(model, Deterministic):
        g = np.asarray(model.gains, dtype=float)
        if g.size != m:
            raise DomainError(f"Deterministic model has {g.size} gains, need m={m}")
        return np.tile(g, (count, 1))
    if isinstance(model, Rayleigh):
        u = uniform_windows(seed, start, count, m)
        return _exponential_from_uniform(u, model.mean_power)
    raise DomainError(f"unknown fading model {model!r}")
