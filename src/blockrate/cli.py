"""Command-line front end: sweeps, optimizations, and queue runs as tables.

Every command writes one self-describing table: `#`-prefixed metadata lines
(all parameters, seed, sample count, package version, clamp mode) followed
by a CSV header and data rows, or the same content as JSON with --format
json.  Floats are printed with repr so files round-trip exactly; reruns of
the same configuration are byte-identical regardless of BLOCKRATE_THREADS.

Grids on the command line are comma lists; integer grids also accept
inclusive ranges like 1..50 (mixable: "1,2,5..10").  SNR is given in dB and
converted once at parse time.

Exit codes: 0 success, 1 usage error (bad flags or parameter values),
2 runtime error (estimation failure, unstable queue, I/O).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .channel import Rayleigh, SystemParams
from .effective_rate import SampleSet
from .errors import BlockrateError, ComputationError, DomainError, EstimationError
from .fbl import FixedRate, RatePolicy, VariableRate
from .optimize import optimal_epsilon, optimal_rate, sweep, sweep_m, sweep_theta
from .queue_sim import QueueConfig, estimate_decay_rate, simulate_queue

_COMMANDS = ("fig1", "fig2", "fig3", "fig4", "optimize-epsilon", "optimize-rate",
             "sweep-m", "simulate")
_FIXED_RATE_COMMANDS = ("fig4", "optimize-rate")


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved CLI invocation (grids parsed, SNR still in dB)."""

    command: str
    snr_db: float
    n: int
    m_values: tuple[int, ...]
    theta_values: tuple[float, ...]
    epsilon: float | None = None
    rate: float | None = None
    samples: int = 100_000
    seed: int = 1
    clamp_rate: bool = False
    output_path: str = "-"
    format: str = "csv"
    epsilon_grid: tuple[float, ...] | None = None
    rate_grid: tuple[float, ...] | None = None
    frames: int = 1_000_000
    burn_in: int = 10_000
    arrival: float | None = None
    trace_path: str | None = None
    trace_every: int = 0

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise DomainError(f"unknown command {self.command!r}")
        if not np.isfinite(self.snr_db):
            raise DomainError(f"--snr-db must be finite, got {self.snr_db!r}")
        if not self.m_values:
            raise DomainError("--m list must be nonempty")
        if not self.theta_values:
            raise DomainError("--theta list must be nonempty")
        if self.samples < 2:
            raise DomainError(f"--samples must be >= 2, got {self.samples}")
        if self.format not in ("csv", "json"):
            raise DomainError(f"--format must be csv or json, got {self.format!r}")

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)


# ---------------------------------------------------------------------------
# grid parsing and table rendering

def _parse_int_list(text: str) -> tuple[int, ...]:
    """Comma list of integers; segments may be inclusive ranges "a..b"."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise argparse.ArgumentTypeError(f"empty entry in integer list {text!r}")
        if ".." in part:
            lo_s, _, hi_s = part.partition("..")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad integer range {part!r}") from None
            if hi < lo:
                raise argparse.ArgumentTypeError(f"descending range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(part))
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad integer {part!r}") from None
    return tuple(out)


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from None


def _parse_arrival(text: str) -> float | None:
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--arrival must be 'auto' or a number, got {text!r}") from None


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _meta_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(_cell(v) for v in value)
    return _cell(value)


def _jsonable(value):
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def _render(cfg: RunConfig, meta: dict, columns: list[str], rows: list[tuple]) -> str:
    if cfg.format == "json":
        payload = {
            "metadata": {k: _jsonable(v) for k, v in meta.items()},
            "columns": columns,
            "rows": [[_jsonable(v) for v in row] for row in rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# {key} = {_meta_value(value)}" for key, value in meta.items()]
    lines.append(",".join(columns))
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _base_meta(cfg: RunConfig, **extra) -> dict:
    meta = {
        "command": cfg.command,
        "version": __version__,
        "model": "rayleigh",
        "mean_power": 1.0,
        "snr_db": cfg.snr_db,
        "n": cfg.n,
        "m": cfg.m_values,
        "theta": cfg.theta_values,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "clamp_rate": cfg.clamp_rate,
    }
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# command implementations

def _default_epsilon_grid() -> np.ndarray:
    # log-spaced through the small-epsilon region (the variable-rate optimum
    # sits below 1e-5 for large m), linear through the bulk
    return np.unique(np.concatenate([np.geomspace(1e-7, 0.1, 81),
                                     np.linspace(0.1, 0.999, 40)]))


def _default_rate_grid(snr_linear: float) -> np.ndarray:
    hi = max(2.0, 2.0 * np.log2(1.0 + snr_linear))
    return np.linspace(0.0, hi, 101)


def _default_theta_grid() -> np.ndarray:
    return np.geomspace(1e-3, 1.0, 20)


def _policy_from_flags(cfg: RunConfig) -> RatePolicy:
    """The command's rate policy; its target is None where it is optimized
    or taken from a grid.  Flags that conflict with the policy are rejected
    here, for every command."""
    if cfg.rate is not None and cfg.epsilon is not None:
        raise DomainError("give --epsilon or --rate, not both")
    if cfg.rate is not None or cfg.command in _FIXED_RATE_COMMANDS:
        if cfg.clamp_rate:
            raise DomainError("--clamp-rate applies to variable-rate policies only; "
                              "a fixed rate is never negative")
        return FixedRate(rate=cfg.rate)
    return VariableRate(epsilon=cfg.epsilon, clamp_negative=cfg.clamp_rate)


def _cmd_grid(cfg: RunConfig):
    """fig1 / fig4: the policy at every target of a grid, per m (m outer)."""
    if cfg.command == "fig1":
        name = "epsilon"
        grid = cfg.epsilon_grid if cfg.epsilon_grid is not None else _default_epsilon_grid()
    else:
        name = "rate"
        grid = cfg.rate_grid if cfg.rate_grid is not None else _default_rate_grid(cfg.snr_linear)
    grid = tuple(float(x) for x in grid)
    policy = _policy_from_flags(cfg)
    base = SystemParams.from_db(cfg.snr_db, cfg.n, max(cfg.m_values), cfg.theta_values[0])
    rows = sweep(base, cfg.m_values, cfg.theta_values[:1],
                 [replace(policy, **{name: x}) for x in grid], cfg.samples, cfg.seed)
    meta = _base_meta(cfg, **{f"{name}_grid": grid})
    return meta, ["m", name, "effective_rate", "std_error"], [
        (r.m, r.argument, r.effective_rate, r.std_error) for r in rows]


def _cmd_theta(cfg: RunConfig):
    """fig2 / fig3: the policy over theta, per m, sorted by (theta, m)."""
    base = SystemParams.from_db(cfg.snr_db, cfg.n, max(cfg.m_values), cfg.theta_values[0])
    rows = sorted(sweep_theta(base, cfg.theta_values, cfg.m_values, _policy_from_flags(cfg),
                              cfg.samples, cfg.seed), key=lambda r: (r.theta, r.m))
    columns = ["theta", "m", "effective_rate", "std_error"]
    if cfg.command == "fig2":
        return _base_meta(cfg, epsilon=cfg.epsilon), columns, [
            (r.theta, r.m, r.effective_rate, r.std_error) for r in rows]
    return _base_meta(cfg), columns + ["epsilon_star"], [
        (r.theta, r.m, r.effective_rate, r.std_error, r.argument) for r in rows]


def _cmd_optimize(cfg: RunConfig):
    """optimize-epsilon / optimize-rate: one optimum with its search record."""
    policy = _policy_from_flags(cfg)
    params = SystemParams.from_db(cfg.snr_db, cfg.n, cfg.m_values[0], cfg.theta_values[0])
    samples = SampleSet.draw(Rayleigh(), params.m, cfg.samples, cfg.seed)
    if cfg.command == "optimize-rate":
        opt, name = optimal_rate(samples, params), "rate_star"
    else:
        opt, name = optimal_epsilon(samples, params, clamp=policy.clamp_negative), "epsilon_star"
    meta = _base_meta(cfg)
    return meta, [name, "effective_rate", "std_error", "iterations", "at_boundary"], [
        (opt.argument, opt.value, opt.std_error, opt.iterations, opt.at_boundary)]


def _cmd_sweep_m(cfg: RunConfig):
    policy = _policy_from_flags(cfg)
    base = SystemParams.from_db(cfg.snr_db, cfg.n, max(cfg.m_values), cfg.theta_values[0])
    rows, m_star = sweep_m(base, cfg.m_values, policy, cfg.samples, cfg.seed)
    meta = _base_meta(cfg, epsilon=cfg.epsilon, rate=cfg.rate,
                      policy=policy.describe(), m_star=m_star)
    columns = ["m", "effective_rate", "std_error", "argument"]
    table = [(r.m, r.effective_rate, r.std_error, r.argument) for r in rows]
    if cfg.epsilon is None and cfg.rate is None:  # each row's eps was searched
        columns += ["iterations", "at_boundary"]
        table = [t + (r.iterations, r.at_boundary) for t, r in zip(table, rows)]
    return meta, columns, table


def _cmd_simulate(cfg: RunConfig):
    theta = cfg.theta_values[0]
    if theta <= 0.0:
        raise DomainError("--theta must be > 0 for simulate (the tail exponent "
                          "being validated is theta itself)")
    params = SystemParams.from_db(cfg.snr_db, cfg.n, cfg.m_values[0], theta)
    if cfg.trace_every > 0 and cfg.trace_path is None:
        raise DomainError("--trace-every needs --trace-output")
    policy = _policy_from_flags(cfg)
    # the target and the arrival rate are calibrated on --samples gains from --seed
    (cal,), _ = sweep_m(params, [params.m], policy, cfg.samples, cfg.seed)
    if cfg.rate is None:  # the queue runs at the calibrated error target
        policy = replace(policy, epsilon=cal.argument)
    arrival = cfg.arrival if cfg.arrival is not None else cal.effective_rate * params.nm
    queue_seed = cfg.seed + 1  # decouple the trajectory from the rate estimate
    qcfg = QueueConfig(arrival_bits_per_frame=arrival, frames=cfg.frames,
                       burn_in_frames=cfg.burn_in, seed=queue_seed,
                       policy=policy, params=params)
    trace_every = cfg.trace_every
    if cfg.trace_path is not None and trace_every == 0:
        trace_every = 1000
    result = simulate_queue(qcfg, trace_every=trace_every)
    meta = _base_meta(cfg, epsilon=cfg.epsilon, rate=cfg.rate,
                      policy=policy.describe(), frames=cfg.frames,
                      burn_in=cfg.burn_in, arrival_bits_per_frame=arrival,
                      queue_seed=queue_seed)
    if cfg.trace_path is not None and result.trace is not None:
        trace_meta = dict(meta, trace_every=trace_every)
        trace_rows = [(int(f), g, s, q) for f, g, s, q in result.trace]
        _write_text(cfg.trace_path, _render(
            cfg, trace_meta, ["frame", "gain_mean", "service_bits", "queue_bits"],
            trace_rows))
    if result.unstable:
        raise EstimationError(
            f"queue is unstable: arrival {arrival!r} bits/frame exceeds mean "
            f"service {result.mean_service!r}; theta_hat is undefined")
    tail = estimate_decay_rate(result.samples)
    columns = ["theta_hat", "fit_r2", "q_lo", "q_hi", "overflow_fraction_at_q_hi",
               "arrival_bits_per_frame", "policy_argument", "effective_rate",
               "mean_service_bits", "trend_slope", "unstable"]
    row = (tail.theta_hat, tail.fit_r2, tail.q_lo, tail.q_hi,
           tail.overflow_fraction_at_q_hi, arrival, cal.argument, cal.effective_rate,
           result.mean_service, result.trend_slope, result.unstable)
    return meta, columns, [row]


_HANDLERS = {
    "fig1": _cmd_grid,
    "fig2": _cmd_theta,
    "fig3": _cmd_theta,
    "fig4": _cmd_grid,
    "optimize-epsilon": _cmd_optimize,
    "optimize-rate": _cmd_optimize,
    "sweep-m": _cmd_sweep_m,
    "simulate": _cmd_simulate,
}


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(sub: argparse.ArgumentParser, snr_db: float, n: int) -> None:
    sub.add_argument("--snr-db", type=float, default=snr_db,
                     help=f"average SNR in dB (default {snr_db})")
    sub.add_argument("--n", type=int, default=n,
                     help=f"channel uses per coherence block (default {n})")
    sub.add_argument("--samples", type=int, default=100_000,
                     help="Monte Carlo realizations (default 100000)")
    sub.add_argument("--seed", type=int, default=1, help="random seed (default 1)")
    sub.add_argument("--clamp-rate", action="store_true",
                     help="clamp negative rate targets to zero instead of "
                          "keeping the raw value")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")
    sub.add_argument("--output", "-o", default="-",
                     help="output path, '-' for stdout (default)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockrate",
        description="Throughput of short-blocklength coded transmission over "
                    "block fading under queueing constraints.")
    parser.add_argument("--version", action="version", version=f"blockrate {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = subs.add_parser("fig1", help="variable-rate throughput vs error target, per m")
    _add_common(p, snr_db=0.0, n=200)
    p.add_argument("--theta", type=float, default=0.01, help="QoS exponent (default 0.01)")
    p.add_argument("--m", type=_parse_int_list, default=(1, 2, 5, 10),
                   help="blocks per codeword, list/range (default 1,2,5,10)")
    p.add_argument("--epsilon-grid", type=_parse_float_list, default=None,
                   help="error-probability grid (default: 120 log+linear points "
                        "spanning 1e-7..0.999)")

    p = subs.add_parser("fig2", help="throughput vs m at fixed error target, per theta")
    _add_common(p, snr_db=0.0, n=50)
    p.add_argument("--epsilon", type=float, default=0.01,
                   help="error-probability target (default 0.01)")
    p.add_argument("--theta", type=_parse_float_list, default=(0.0, 0.001, 0.01, 0.1),
                   help="QoS exponents, comma list; 0 = no queueing constraint "
                        "(default 0,0.001,0.01,0.1)")
    p.add_argument("--m", type=_parse_int_list, default=tuple(range(1, 51)),
                   help="blocks per codeword, list/range (default 1..50)")

    p = subs.add_parser("fig3", help="optimized variable-rate throughput vs theta, per m")
    _add_common(p, snr_db=-10.0, n=50)
    p.add_argument("--theta", type=_parse_float_list, default=None,
                   help="QoS exponents, comma list (default: 20 log-spaced "
                        "points in 0.001..1)")
    p.add_argument("--m", type=_parse_int_list, default=(1, 2, 5, 10),
                   help="blocks per codeword, list/range (default 1,2,5,10)")

    p = subs.add_parser("fig4", help="fixed-rate throughput vs coding rate, per m")
    _add_common(p, snr_db=0.0, n=200)
    p.add_argument("--theta", type=float, default=0.01, help="QoS exponent (default 0.01)")
    p.add_argument("--m", type=_parse_int_list, default=(1, 2, 5, 10),
                   help="blocks per codeword, list/range (default 1,2,5,10)")
    p.add_argument("--rate-grid", type=_parse_float_list, default=None,
                   help="coding-rate grid in bits/channel use (default: 101 "
                        "points from 0 to max(2, 2*log2(1+SNR)))")

    p = subs.add_parser("optimize-epsilon",
                        help="best error target for variable-rate transmission")
    _add_common(p, snr_db=0.0, n=200)
    p.add_argument("--theta", type=float, default=0.01, help="QoS exponent (default 0.01)")
    p.add_argument("--m", type=int, default=1, help="blocks per codeword (default 1)")

    p = subs.add_parser("optimize-rate",
                        help="best coding rate for fixed-rate transmission")
    _add_common(p, snr_db=0.0, n=200)
    p.add_argument("--theta", type=float, default=0.01, help="QoS exponent (default 0.01)")
    p.add_argument("--m", type=int, default=1, help="blocks per codeword (default 1)")

    p = subs.add_parser("sweep-m", help="throughput vs blocks per codeword")
    _add_common(p, snr_db=0.0, n=50)
    p.add_argument("--theta", type=float, default=0.01, help="QoS exponent (default 0.01)")
    p.add_argument("--m", type=_parse_int_list, default=tuple(range(1, 51)),
                   help="blocks per codeword, list/range (default 1..50)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="fixed error target; omit to optimize per m")
    p.add_argument("--rate", type=float, default=None,
                   help="fixed coding rate (switches to fixed-rate policy)")

    p = subs.add_parser("simulate", help="frame-level queue run and tail-exponent fit")
    _add_common(p, snr_db=0.0, n=200)
    p.add_argument("--theta", type=float, default=0.01, help="QoS exponent (default 0.01)")
    p.add_argument("--m", type=int, default=1, help="blocks per codeword (default 1)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="error target; omit to optimize it first")
    p.add_argument("--rate", type=float, default=None,
                   help="coding rate (switches to fixed-rate policy)")
    p.add_argument("--arrival", type=_parse_arrival, default=None,
                   help="arrival bits per frame, or 'auto' = throughput * n * m "
                        "(default auto)")
    p.add_argument("--frames", type=int, default=1_000_000,
                   help="simulated frames (default 1000000)")
    p.add_argument("--burn-in", type=int, default=10_000,
                   help="frames dropped before tail fitting (default 10000)")
    p.add_argument("--trace-output", default=None,
                   help="write a decimated per-frame trace table to this path")
    p.add_argument("--trace-every", type=int, default=0,
                   help="trace every k-th frame (default 1000 when "
                        "--trace-output is set)")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    m = args.m if isinstance(args.m, tuple) else (args.m,)
    theta = args.theta if isinstance(args.theta, tuple) else (args.theta,)
    if args.command == "fig3" and args.theta is None:
        theta = tuple(float(t) for t in _default_theta_grid())
    return RunConfig(
        command=args.command,
        snr_db=args.snr_db,
        n=args.n,
        m_values=m,
        theta_values=theta,
        epsilon=getattr(args, "epsilon", None),
        rate=getattr(args, "rate", None),
        samples=args.samples,
        seed=args.seed,
        clamp_rate=args.clamp_rate,
        output_path=args.output,
        format=args.format,
        epsilon_grid=getattr(args, "epsilon_grid", None),
        rate_grid=getattr(args, "rate_grid", None),
        frames=getattr(args, "frames", 1_000_000),
        burn_in=getattr(args, "burn_in", 10_000),
        arrival=getattr(args, "arrival", None),
        trace_path=getattr(args, "trace_output", None),
        trace_every=getattr(args, "trace_every", 0),
    )


def run(config: RunConfig) -> int:
    """Execute one resolved configuration and write its table."""
    meta, columns, rows = _HANDLERS[config.command](config)
    _write_text(config.output_path, _render(config, meta, columns, rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config = _config_from_args(args)
        return run(config)
    except DomainError as exc:
        print(f"blockrate: error: {exc}", file=sys.stderr)
        return 1
    except (EstimationError, ComputationError, BlockrateError, OSError) as exc:
        print(f"blockrate: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
