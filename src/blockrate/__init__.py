"""Throughput of short-blocklength coded transmission over block fading.

Monte Carlo estimators (also run on an m = 1 quadrature rule) for the
queueing-constrained effective rate of a link whose codewords span m
coherence blocks, optimizers for the decoding error probability
(variable-rate) and the coding rate (fixed-rate), sweeps over the number of
blocks, and a frame-level queue simulator that checks the promised
tail-decay exponent end to end.
"""

from .channel import Rayleigh, SystemParams
from .effective_rate import (
    EffectiveRateEstimate,
    SampleSet,
    effective_rate_fixed,
    effective_rate_variable,
    ergodic_rate_fixed,
    ergodic_rate_variable,
    log_psi,
    phi,
)
from .errors import BlockrateError, ComputationError, DomainError, EstimationError
from .fbl import (
    FixedRate,
    RatePolicy,
    RateStats,
    VariableRate,
    error_probability,
    mi_density_samples_exact,
    rate_lower_bound,
    rate_stats,
)
from .optimize import (
    Optimum,
    SweepRow,
    optimal_epsilon,
    optimal_rate,
    sweep,
    sweep_m,
    sweep_theta,
)
from .queue_sim import (
    QueueConfig,
    QueueResult,
    TailEstimate,
    estimate_decay_rate,
    simulate_queue,
)
from .special import q_function, q_inverse, q_inverse_deriv

__version__ = "0.1.0"

__all__ = [
    "BlockrateError",
    "ComputationError",
    "DomainError",
    "EffectiveRateEstimate",
    "EstimationError",
    "FixedRate",
    "Optimum",
    "QueueConfig",
    "QueueResult",
    "RatePolicy",
    "RateStats",
    "Rayleigh",
    "SampleSet",
    "SweepRow",
    "SystemParams",
    "TailEstimate",
    "VariableRate",
    "effective_rate_fixed",
    "effective_rate_variable",
    "ergodic_rate_fixed",
    "ergodic_rate_variable",
    "error_probability",
    "estimate_decay_rate",
    "log_psi",
    "mi_density_samples_exact",
    "optimal_epsilon",
    "optimal_rate",
    "phi",
    "q_function",
    "q_inverse",
    "q_inverse_deriv",
    "rate_lower_bound",
    "rate_stats",
    "simulate_queue",
    "sweep",
    "sweep_m",
    "sweep_theta",
    "__version__",
]
