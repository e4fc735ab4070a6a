"""Output checks for the benchmark's jobs, against a re-derivation it owns.

Each check parses the CSV table a CLI command wrote, re-derives the numbers
with plain numpy/scipy from the gains `SampleSet.draw` gives for the same
seed, and returns a list of problems (empty when the output is right).
Checks sample a rotating subset of rows, chosen from the job index, so every
row is eventually checked while each job's check stays cheap.

The re-derivation shares no arithmetic helper with the package: (mu, delta)
are recomputed from the gains, Q and its inverse come from scipy.special, and
the psi/phi expectations are reduced here.  Agreement is asked to a relative
1e-9: loose enough for a different summation order (cumulative instead of
pairwise sums move the last ulps), tight enough that a wrong block prefix or
a wrong statistic (relative changes of 1e-4 and up) cannot pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri

from blockrate.channel import Rayleigh
from blockrate.effective_rate import SampleSet

REL_TOL = 1e-9
IDENTITY_TOL = 1e-9
THETA_HAT_TOL = 0.15  # criterion 11 of the acceptance gate
_LOG2E = math.log2(math.e)


def parse_table(text: str) -> tuple[dict, list[str], list[list[str]]]:
    """(metadata, columns, rows) of one CSV table as the CLI writes it."""
    meta: dict[str, str] = {}
    columns: list[str] | None = None
    rows: list[list[str]] = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    if columns is None:
        raise ValueError("table has no header line")
    return meta, columns, rows


def draw_gains(m: int, count: int, seed: int) -> np.ndarray:
    return SampleSet.draw(Rayleigh(), m, count, seed).gains


def rate_stats(gains: np.ndarray, snr: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(mu, delta) per row of a (count, m) gain matrix, in bits per channel use."""
    m = gains.shape[1]
    s = snr * gains
    mu = _LOG2E * np.log1p(s).mean(axis=1)
    delta = _LOG2E * np.sqrt((s / (1.0 + s)).sum(axis=1) * 2.0 / (n * m * m))
    return mu, delta


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _mean_and_se(y: np.ndarray) -> tuple[float, float]:
    return float(y.mean()), float(y.std(ddof=1)) / math.sqrt(y.size)


def _psi_terms(eps: float, r: np.ndarray, theta: float, nm: int) -> tuple[float, np.ndarray]:
    """Shift L and summands u with E[eps + (1-eps) exp(-theta nm r)] = exp(L) mean(u)."""
    x = (-theta * nm) * r
    shift = max(float(x.max()), 0.0)
    return shift, eps * math.exp(-shift) + (1.0 - eps) * np.exp(x - shift)


def log_psi(eps: float, mu: np.ndarray, delta: np.ndarray, theta: float, nm: int) -> float:
    """ln E[eps + (1-eps) exp(-theta nm R)] with R = mu - delta Q^{-1}(eps)."""
    shift, u = _psi_terms(eps, mu + delta * ndtri(eps), theta, nm)  # Q^{-1} = -ndtri
    return shift + math.log(float(u.mean()))


def variable_rate(eps: float, mu: np.ndarray, delta: np.ndarray, theta: float,
                  nm: int) -> tuple[float, float]:
    """(effective rate, standard error) of variable-rate transmission."""
    r = mu + delta * ndtri(eps)
    if theta == 0.0:
        return _mean_and_se((1.0 - eps) * r)
    shift, u = _psi_terms(eps, r, theta, nm)
    mean_u, se_u = _mean_and_se(u)
    scale = theta * nm
    return -(shift + math.log(mean_u)) / scale, se_u / (mean_u * scale)


def fixed_rate(rate: float, mu: np.ndarray, delta: np.ndarray, theta: float,
               nm: int) -> tuple[float, float]:
    """(effective rate, standard error) of fixed-rate transmission."""
    eps_z = ndtr((rate - mu) / delta)  # Q((mu - R)/delta)
    t = theta * nm * rate
    mean_eps, se_eps = _mean_and_se(eps_z)
    mean_ok = float((1.0 - eps_z).mean())
    log_phi = float(np.logaddexp(_log(mean_eps), _log(mean_ok) - t))
    scale = theta * nm
    return -log_phi / scale, -math.expm1(-t) * se_eps / (math.exp(log_phi) * scale)


def _mismatch(label: str, got: float, want: float) -> list[str]:
    if abs(got - want) <= REL_TOL * max(abs(want), 1e-300):
        return []
    return [f"{label}: output {got!r}, re-derived {want!r}"]


def _rotating(job: int, size: int, picks: int) -> list[int]:
    """`picks` row indices spread over `size` rows, shifted with the job index."""
    return sorted({(job * 7 + i * size // picks) % size for i in range(picks)})


def checked_rows(workload: str, job: int, outputs: list[str]) -> list[tuple[int, int]]:
    """(output index, row index) pairs the check of this job looks at."""
    if workload == "msweep":
        rows = parse_table(outputs[0])[2]
        return [(0, r) for r in _rotating(job, len(rows), 4)]
    if workload == "optimize":
        fig3 = parse_table(outputs[0])[2]
        picks = [(0, r) for r in _rotating(job, len(fig3), 2)]
        return picks + [(1 + job % (len(outputs) - 2), 0), (len(outputs) - 1, 0)]
    return [(0, 0)]


def _meta(meta: dict) -> tuple[float, int, int, int]:
    snr = 10.0 ** (float(meta["snr_db"]) / 10.0)
    return snr, int(meta["n"]), int(meta["samples"]), int(meta["seed"])


def _floats(row: list[str]) -> list[float]:
    return [float(v) if v not in ("true", "false", "") else math.nan for v in row]


def _check_msweep(job: int, outputs: list[str], notes: list[str]) -> list[str]:
    meta, columns, rows = parse_table(outputs[0])
    if columns != ["theta", "m", "effective_rate", "std_error"]:
        return [f"fig2 columns {columns}"]
    snr, n, count, seed = _meta(meta)
    m_values = [int(v) for v in meta["m"].split(",")]
    theta_values = [float(v) for v in meta["theta"].split(",")]
    if len(rows) != len(m_values) * len(theta_values):
        return [f"fig2 wrote {len(rows)} rows, expected {len(m_values) * len(theta_values)}"]
    eps = float(meta["epsilon"])
    gains = draw_gains(max(m_values), count, seed)
    problems: list[str] = []
    for _, r in checked_rows("msweep", job, outputs):
        theta, m, value, se = _floats(rows[r])
        m = int(m)
        mu, delta = rate_stats(gains[:, :m], snr, n)
        want, want_se = variable_rate(eps, mu, delta, theta, n * m)
        problems += _mismatch(f"fig2 theta={theta} m={m} effective_rate", value, want)
        problems += _mismatch(f"fig2 theta={theta} m={m} std_error", se, want_se)
    return problems


# Coarse grids the reported optima must not lose to by more than their
# standard error; each lies within the optimizer's own search bracket.
_EPS_GRID = np.geomspace(1e-10, 0.5, 41)
_RATE_GRID_POINTS = 41


def _check_optimum(label: str, kind: str, arg: float, value: float, se: float,
                   at_boundary: bool, mu: np.ndarray, delta: np.ndarray, theta: float,
                   nm: int, notes: list[str]) -> list[str]:
    """Problems of one optimum.  An optimum the optimizer itself flags
    at_boundary may lose to the grid: that is noted, not counted as failed."""
    if kind == "epsilon":
        want, _ = variable_rate(arg, mu, delta, theta, nm)
        grid = [variable_rate(e, mu, delta, theta, nm)[0] for e in _EPS_GRID]
    else:
        want, _ = fixed_rate(arg, mu, delta, theta, nm)
        hi = float(np.max(mu + 10.0 * delta))
        grid = [fixed_rate(r, mu, delta, theta, nm)[0]
                for r in np.linspace(0.0, hi, _RATE_GRID_POINTS)]
    problems = _mismatch(f"{label} effective_rate at its argument", value, want)
    best = max(grid)
    if value < best - se:
        finding = (f"{label}: optimum {value!r} loses to grid value {best!r} "
                   f"by more than its std_error {se!r}")
        if at_boundary:
            notes.append(f"{finding} (flagged at_boundary, {1 - value / best:.1%} short)")
        else:
            problems.append(finding)
    return problems


def _check_optimize(job: int, outputs: list[str], notes: list[str]) -> list[str]:
    problems: list[str] = []
    fig3_gains = None
    for out_index, r in checked_rows("optimize", job, outputs):
        meta, columns, rows = parse_table(outputs[out_index])
        snr, n, count, seed = _meta(meta)
        command = meta["command"]
        if command == "fig3":
            if columns != ["theta", "m", "effective_rate", "std_error", "epsilon_star"]:
                return [f"fig3 columns {columns}"]
            m_values = [int(v) for v in meta["m"].split(",")]
            theta, m, value, se, arg = _floats(rows[r])
            m, at_boundary = int(m), False  # fig3 rows do not carry the flag
            if fig3_gains is None:
                fig3_gains = draw_gains(max(m_values), count, seed)
            gains = fig3_gains[:, :m]
            kind = "epsilon"
        else:
            kind = "epsilon" if command == "optimize-epsilon" else "rate"
            if columns != [f"{kind}_star", "effective_rate", "std_error", "iterations",
                           "at_boundary"] or len(rows) != 1:
                return [f"{command} table {columns} with {len(rows)} rows"]
            arg, value, se = _floats(rows[0])[:3]
            at_boundary = rows[0][4] == "true"
            m, theta = int(meta["m"]), float(meta["theta"])
            gains = draw_gains(m, count, seed)
        mu, delta = rate_stats(gains, snr, n)
        problems += _check_optimum(f"{command} theta={theta} m={m}", kind, arg, value, se,
                                   at_boundary, mu, delta, theta, n * m, notes)
    return problems


def _check_queue(job: int, outputs: list[str], notes: list[str]) -> list[str]:
    meta, columns, rows = parse_table(outputs[0])
    if len(rows) != 1:
        return [f"simulate wrote {len(rows)} rows"]
    row = dict(zip(columns, rows[0]))
    if row["unstable"] != "false":
        return ["simulate reports an unstable queue"]
    snr, n, count, seed = _meta(meta)
    m, theta = int(meta["m"]), float(meta["theta"])
    problems: list[str] = []
    theta_hat = float(row["theta_hat"])
    if abs(theta_hat / theta - 1.0) > THETA_HAT_TOL:
        problems.append(f"theta_hat {theta_hat!r} is more than {THETA_HAT_TOL:.0%} "
                        f"from theta {theta!r}")
    eps = float(row["policy_argument"])
    arrival = float(row["arrival_bits_per_frame"])
    mu, delta = rate_stats(draw_gains(m, count, seed), snr, n)
    # E[exp(theta (a - service))] = exp(theta a) psi(eps) on the calibration set
    residual = math.expm1(theta * arrival + log_psi(eps, mu, delta, theta, n * m))
    if abs(residual) > IDENTITY_TOL:
        problems.append(f"queue identity residual {residual!r} exceeds {IDENTITY_TOL!r}")
    want, _ = variable_rate(eps, mu, delta, theta, n * m)
    problems += _mismatch("simulate effective_rate", float(row["effective_rate"]), want)
    return problems


_CHECKS = {"msweep": _check_msweep, "optimize": _check_optimize, "queue": _check_queue}


def check(workload: str, job: int, outputs: list[str]) -> tuple[list[str], list[str]]:
    """(problems, notes) of one job's outputs.  Any problem fails the job, an
    unparseable table included; notes report known defects that do not."""
    notes: list[str] = []
    try:
        return _CHECKS[workload](job, outputs, notes), notes
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], notes
