"""Command-line front end: sweeps, optimizations, and queue runs as tables.

Every command writes one self-describing table: `#`-prefixed metadata lines
(all parameters, seed, sample count, package version, clamp mode) followed
by a CSV header and data rows, or the same content as JSON with --format
json.  Floats are printed with repr so files round-trip exactly; reruns of
the same configuration are byte-identical regardless of BLOCKRATE_THREADS.

Grids on the command line are comma lists; integer grids also accept
inclusive ranges like 1..50 (mixable: "1,2,5..10").  SNR is given in dB and
converted where a command needs it.

The commands are one table, `_COMMANDS`, of one `_Command` entry each;
`build_parser` makes one subparser per entry, and `main` runs them.

Exit codes: 0 success, 1 usage error (bad flags or parameter values),
2 runtime error (estimation failure, unstable queue, I/O).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import __version__
from .channel import SystemParams
from .errors import BlockrateError, DomainError, EstimationError
from .fbl import FixedRate, RatePolicy, VariableRate
from .optimize import sweep, sweep_m, sweep_theta
from .queue_sim import QueueConfig, _check_run, estimate_decay_rate, simulate_queue


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


def _one(kind: type) -> Callable[[str], tuple]:
    """Parser of a single-value --m or --theta: the value as a 1-tuple."""
    def parse(text: str) -> tuple:
        return (kind(text),)
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _parse_arrival(text: str) -> float | None:
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--arrival must be 'auto' or a number, got {text!r}") from None


def _cell(value) -> str:
    if isinstance(value, (tuple, list)):  # a metadata line's grid
        return ",".join(_cell(v) for v in value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):  # numpy's float64 (trace cells) reprs its type
        return repr(float(value))
    return str(value)


def _render(fmt: str, meta: dict, columns: list[str], rows: list[tuple]) -> str:
    if fmt == "json":
        payload = {"metadata": meta, "columns": columns, "rows": rows}
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# {key} = {_cell(value)}" for key, value in meta.items()]
    lines.append(",".join(columns))
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _base_meta(args: argparse.Namespace, **extra) -> dict:
    meta = {
        "command": args.command,
        "version": __version__,
        "model": "rayleigh",
        "mean_power": 1.0,
        "snr_db": args.snr_db,
        "n": args.n,
        "m": args.m,
        "theta": args.theta,
        "samples": args.samples,
        "seed": args.seed,
        "clamp_rate": args.clamp_rate,
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


def _policy_from_flags(args: argparse.Namespace) -> RatePolicy:
    """The command's rate policy; its target is None where it is optimized
    or taken from a grid.  Flags that conflict with the policy are rejected
    here, for every command."""
    epsilon, rate = getattr(args, "epsilon", None), getattr(args, "rate", None)
    if rate is not None and epsilon is not None:
        raise DomainError("give --epsilon or --rate, not both")
    if rate is not None or _COMMANDS[args.command].fixed_rate:
        if args.clamp_rate:
            raise DomainError("--clamp-rate applies to variable-rate policies only; "
                              "a fixed rate is never negative")
        return FixedRate(rate=rate)
    return VariableRate(epsilon=epsilon, clamp_negative=args.clamp_rate)


def _cmd_grid(args: argparse.Namespace, params: SystemParams, policy: RatePolicy):
    """fig1 / fig4: the policy at every target of a grid, per m (m outer)."""
    name = policy.target_name
    grid = getattr(args, f"{name}_grid")
    if grid is None:
        grid = _default_epsilon_grid() if name == "epsilon" else _default_rate_grid(params.snr_linear)
    grid = tuple(float(x) for x in grid)
    rows = sweep(params, args.m, args.theta,
                 [replace(policy, **{name: x}) for x in grid], args.samples, args.seed)
    meta = _base_meta(args, **{f"{name}_grid": grid})
    return meta, ["m", name, "effective_rate", "std_error"], [
        (r.m, r.argument, r.effective_rate, r.std_error) for r in rows]


def _cmd_theta(args: argparse.Namespace, params: SystemParams, policy: RatePolicy):
    """fig2 / fig3: the policy over theta, per m, sorted by (theta, m); a
    searched target gets a column, a given one a metadata line."""
    rows = sorted(sweep_theta(params, args.theta, args.m, policy, args.samples, args.seed),
                  key=lambda r: (r.theta, r.m))
    columns = ["theta", "m", "effective_rate", "std_error"]
    table = [(r.theta, r.m, r.effective_rate, r.std_error) for r in rows]
    if policy.target is not None:
        return _base_meta(args, **{policy.target_name: policy.target}), columns, table
    return _base_meta(args), columns + [f"{policy.target_name}_star"], [
        t + (r.argument,) for t, r in zip(table, rows)]


def _cmd_optimize(args: argparse.Namespace, params: SystemParams, policy: RatePolicy):
    """optimize-epsilon / optimize-rate: one optimum with its search record."""
    (row,), _ = sweep_m(params, [params.m], policy, args.samples, args.seed)
    columns = [f"{policy.target_name}_star", "effective_rate", "std_error", "iterations",
               "at_boundary"]
    return _base_meta(args), columns, [
        (row.argument, row.effective_rate, row.std_error, row.iterations, row.at_boundary)]


def _cmd_sweep_m(args: argparse.Namespace, params: SystemParams, policy: RatePolicy):
    rows, m_star = sweep_m(params, args.m, policy, args.samples, args.seed)
    meta = _base_meta(args, epsilon=args.epsilon, rate=args.rate,
                      policy=policy.describe(), m_star=m_star)
    columns = ["m", "effective_rate", "std_error", "argument"]
    table = [(r.m, r.effective_rate, r.std_error, r.argument) for r in rows]
    if policy.target is None:  # each row's target was searched
        columns += ["iterations", "at_boundary"]
        table = [t + (r.iterations, r.at_boundary) for t, r in zip(table, rows)]
    return meta, columns, table


def _cmd_simulate(args: argparse.Namespace, params: SystemParams, policy: RatePolicy):
    if args.trace_every > 0 and args.trace_output is None:
        raise DomainError("--trace-every needs --trace-output")
    # the target and the arrival rate are calibrated on --samples gains from --seed
    (cal,), _ = sweep_m(params, [params.m], policy, args.samples, args.seed)
    policy = replace(policy, **{policy.target_name: cal.argument})  # a given target stays
    if args.arrival is None and cal.effective_rate < 0.0:
        raise EstimationError(f"--arrival auto: the calibrated effective rate {cal.effective_rate!r}"
                              " is negative; give --arrival, a larger --epsilon or --clamp-rate")
    arrival = args.arrival if args.arrival is not None else cal.effective_rate * params.nm
    queue_seed = args.seed + 1  # decouple the trajectory from the rate estimate
    trace_every = (args.trace_every or 1000) if args.trace_output is not None else 0
    result = simulate_queue(QueueConfig(
        arrival_bits_per_frame=arrival, frames=args.frames, burn_in_frames=args.burn_in,
        seed=queue_seed, policy=policy, params=params, trace_every=trace_every))
    meta = _base_meta(args, epsilon=args.epsilon, rate=args.rate,
                      policy=policy.describe(), frames=args.frames,
                      burn_in=args.burn_in, arrival_bits_per_frame=arrival,
                      queue_seed=queue_seed)
    if args.trace_output is not None:
        trace_meta = dict(meta, trace_every=trace_every)
        trace_rows = [(int(f), g, s, q) for f, g, s, q in result.trace]
        _write_text(args.trace_output, _render(
            args.format, trace_meta, ["frame", "gain_mean", "service_bits", "queue_bits"],
            trace_rows))
    if result.unstable:
        raise EstimationError(
            f"queue is unstable: arrival {arrival!r} bits/frame exceeds mean "
            f"service {result.mean_service!r}; theta_hat is undefined")
    tail = estimate_decay_rate(result.samples)
    columns = ["theta_hat", "fit_r2", "q_lo", "q_hi", "overflow_fraction_at_q_hi",
               "arrival_bits_per_frame", "policy_argument", "effective_rate",
               "mean_service_bits", "trend_slope", "drift_z", "unstable"]
    row = (tail.theta_hat, tail.fit_r2, tail.q_lo, tail.q_hi,
           tail.overflow_fraction_at_q_hi, arrival, cal.argument, cal.effective_rate,
           result.mean_service, result.trend_slope, result.drift_z, result.unstable)
    return meta, columns, [row]


# ---------------------------------------------------------------------------
# the command table and argument parsing

@dataclass(frozen=True)
class _Command:
    """One command: what it runs and every default it does not share, each
    written as it would be typed and parsed by its flag's own type, so that
    --help prints it as given."""

    handler: Callable[[argparse.Namespace, SystemParams, RatePolicy], tuple]
    help: str
    snr_db: float
    n: int
    m: str                              # as typed; parsed by the flag's type
    theta: str | tuple[float, ...]      # a tuple is a computed grid
    m_list: bool = False                # --m takes a list/range, not one value
    theta_list: bool = False
    fixed_rate: bool = False            # FixedRate policy even without --rate
    extra: tuple = ()                   # (flag, type, default, help) per extra flag
    check: Callable[[argparse.Namespace], None] = lambda args: None  # before any draw


_TARGET_FLAGS = (("--epsilon", float, None, "fixed error target; omit to optimize it"),
                 ("--rate", float, None, "fixed coding rate (switches to fixed-rate policy)"))

_COMMANDS = {
    "fig1": _Command(
        _cmd_grid, "variable-rate throughput vs error target, per m", 0.0, 200,
        m="1,2,5,10", theta="0.01", m_list=True,
        extra=(("--epsilon-grid", _parse_float_list, None, "error-probability grid "
                "(default: 120 log+linear points spanning 1e-7..0.999)"),)),
    "fig2": _Command(
        _cmd_theta, "throughput vs m at fixed error target, per theta", 0.0, 50,
        m="1..50", theta="0,0.001,0.01,0.1", m_list=True, theta_list=True,
        extra=(("--epsilon", float, 0.01, "error-probability target (default %(default)s)"),)),
    "fig3": _Command(
        _cmd_theta, "optimized variable-rate throughput vs theta, per m", -10.0, 50,
        m="1,2,5,10", theta=tuple(float(t) for t in np.geomspace(1e-3, 1.0, 20)),
        m_list=True, theta_list=True),
    "fig4": _Command(
        _cmd_grid, "fixed-rate throughput vs coding rate, per m", 0.0, 200,
        m="1,2,5,10", theta="0.01", m_list=True, fixed_rate=True,
        extra=(("--rate-grid", _parse_float_list, None, "coding-rate grid in bits/channel "
                "use (default: 101 points from 0 to max(2, 2*log2(1+SNR)))"),)),
    "optimize-epsilon": _Command(
        _cmd_optimize, "best error target for variable-rate transmission", 0.0, 200,
        m="1", theta="0.01"),
    "optimize-rate": _Command(
        _cmd_optimize, "best coding rate for fixed-rate transmission", 0.0, 200,
        m="1", theta="0.01", fixed_rate=True),
    "sweep-m": _Command(
        _cmd_sweep_m, "throughput vs blocks per codeword", 0.0, 50,
        m="1..50", theta="0.01", m_list=True, extra=_TARGET_FLAGS),
    "simulate": _Command(
        _cmd_simulate, "frame-level queue run and tail-exponent fit", 0.0, 200,
        m="1", theta="0.01", extra=_TARGET_FLAGS + (
            ("--arrival", _parse_arrival, "auto",
             "arrival bits per frame, or 'auto' = throughput * n * m (default %(default)s)"),
            ("--frames", int, 1_000_000, "simulated frames (default %(default)s)"),
            ("--burn-in", int, 10_000, "frames dropped before tail fitting (default %(default)s)"),
            ("--trace-output", str, None, "write a decimated per-frame trace table to this path"),
            ("--trace-every", int, 0,
             "trace every k-th frame (default 1000 when --trace-output is set)")),
        check=lambda a: _check_run(a.arrival, a.frames, a.burn_in, a.theta[0], a.trace_every)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockrate",
        description="Throughput of short-blocklength coded transmission over "
                    "block fading under queueing constraints.")
    parser.add_argument("--version", action="version", version=f"blockrate {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, c in _COMMANDS.items():
        p = subs.add_parser(name, help=c.help)
        p.add_argument("--snr-db", type=float, default=c.snr_db,
                       help="average SNR in dB (default %(default)s)")
        p.add_argument("--n", type=int, default=c.n,
                       help="channel uses per coherence block (default %(default)s)")
        p.add_argument("--samples", type=int, default=100_000,
                       help="Monte Carlo realizations (default %(default)s)")
        p.add_argument("--seed", type=int, default=1, help="random seed (default %(default)s)")
        p.add_argument("--clamp-rate", action="store_true",
                       help="clamp negative rate targets to zero instead of "
                            "keeping the raw value")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default %(default)s)")
        p.add_argument("--output", "-o", default="-",
                       help="output path, '-' for stdout (default)")
        theta_help = "QoS exponents, comma list" if c.theta_list else "QoS exponent"
        theta_help += (" (default %(default)s)" if isinstance(c.theta, str)
                       else " (default: 20 log-spaced points in 0.001..1)")
        p.add_argument("--theta", type=_parse_float_list if c.theta_list else _one(float),
                       default=c.theta, help=theta_help)
        p.add_argument("--m", type=_parse_int_list if c.m_list else _one(int), default=c.m,
                       help=("blocks per codeword, list/range" if c.m_list
                             else "blocks per codeword") + " (default %(default)s)")
        for flag, kind, default, text in c.extra:
            p.add_argument(flag, type=kind, default=default, help=text)
    return parser


# the one parser every main call of the process reads, built on the first
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run the command argv names: its flag check (simulate's:
    `queue_sim._check_run`) before anything is drawn, then its handler, with
    the policy and the point (`SystemParams` at the largest m, first theta)."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    command = _COMMANDS[args.command]
    try:
        if args.samples < 2:
            raise DomainError(f"--samples must be >= 2, got {args.samples}")
        command.check(args)
        policy = _policy_from_flags(args)
        params = SystemParams.from_db(args.snr_db, args.n, max(args.m), args.theta[0])
        meta, columns, rows = command.handler(args, params, policy)
        _write_text(args.output, _render(args.format, meta, columns, rows))
        return 0
    except (BlockrateError, OSError) as exc:
        print(f"blockrate: error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DomainError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
