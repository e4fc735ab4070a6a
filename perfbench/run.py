"""blockrate benchmark: the CLI's three main jobs, driven in-process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload msweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The load is a closed loop with one client: each job calls
`blockrate.cli.main(argv)` once per command of the workload, and the next job
starts when the previous one ends.  Job j of a run uses CLI seed
`--seed + j`; job 0 is the warm-up and is not timed.  Each job's tables are
checked against perfbench/oracle.py outside the timed region; a job fails
when `main` returns nonzero, raises, or writes a table that fails its check.

--trace 0 measures the end-to-end metrics (BENCHMARK.json "end_to_end"):
  setup_s      median time a fresh interpreter takes to import blockrate.cli
  job_s_p50    median wall time of one timed job
  peak_rss_mb  ru_maxrss of this process
  pass_ratio   jobs that passed / jobs attempted
--trace 1 measures the per-layer metrics ("per_layer") in three passes: an
untraced pass, one job with BLOCKRATE_THREADS=1, and a traced pass over the
same job seeds whose tables must match the untraced ones byte for byte.  The
spans are written to .bench_out/.  Sweeps otherwise run with
BLOCKRATE_THREADS unset, so the package uses one thread per core.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status is 0 when the run completed (its
`correct` field says whether every job passed), 1 when no timed job of a pass
completed, and 2 when the package cannot be found under ./src or the
arguments are bad.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

WORKLOADS = ("msweep", "optimize", "queue")
SETUP_REPEATS = 7
SETUP_CODE = ("import time; t = time.perf_counter(); import blockrate.cli; "
              "print(repr(time.perf_counter() - t))")
TRACE_DIR = ".bench_out"


def job_argvs(workload: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """CLI argument lists of one job; `tiny` shrinks sizes for the self-test."""
    s = ["--seed", str(seed)]
    if workload == "msweep":
        # fig2 at defaults: 0 dB, n=50, eps=0.01, 4 thetas, m=1..50, 1e5 samples
        return [["fig2", *s, *(["--samples", "4000", "--m", "1..8"] if tiny else [])]]
    if workload == "optimize":
        small = ["--samples", "4000"] if tiny else []
        fig3 = ["fig3", *s, *small, *(["--theta", "0.01,0.1"] if tiny else [])]
        rates = [["optimize-rate", "--snr-db", "0", "--n", "200", "--m", str(m),
                  "--theta", str(theta), *s, *small]
                 for m in (1, 2, 5, 10) for theta in (0.01, 0.1)]
        # eps* of this point lies below the optimizer's bracket (a known
        # false at_boundary hit), so the job keeps that case visible
        eps = ["optimize-epsilon", "--snr-db", "0", "--n", "200", "--m", "10",
               "--theta", "0.1", *s, *small]
        return [fig3, *rates, eps]
    if workload == "queue":
        size = (["--frames", "1000000", "--burn-in", "10000"] if tiny
                else ["--frames", "10000000", "--burn-in", "100000"])
        return [["simulate", "--theta", "0.05", "--n", "50", "--m", "2", *size, *s]]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Tally:
    """Jobs attempted and failed, and the wall times of the timed ones."""

    attempted: int = 0
    failed: int = 0
    walls: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, label: str, problems: list[str], wall: float | None = None,
            notes: list[str] = ()) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: FAIL {label}: {p}", file=sys.stderr)
        self.notes += [f"{label}: {n}" for n in notes]
        if wall is not None:
            self.walls.append(wall)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted


def run_job(cli, argvs: list[list[str]]) -> tuple[float, list[str]]:
    """Wall time and captured stdout of every command of one job.

    `cli.main` is looked up per call, so a traced binding is honoured."""
    outputs = []
    start = perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"blockrate {' '.join(argv)} exited with {code}")
        outputs.append(buf.getvalue())
    return perf_counter() - start, outputs


def _plain(job: int):
    return contextlib.nullcontext()


@contextlib.contextmanager
def one_thread(job: int):
    os.environ["BLOCKRATE_THREADS"] = "1"
    try:
        yield
    finally:
        del os.environ["BLOCKRATE_THREADS"]


@dataclass
class Bench:
    """Runs and checks the jobs of one workload; job j uses CLI seed seed + j."""

    cli: object
    oracle: object
    workload: str
    seed: int
    tiny: bool = False
    sizes: dict = field(default_factory=dict)  # command -> samples/frames per job

    def job(self, job: int, tally: Tally, timed: bool, expect: list[str] | None = None,
            context=_plain) -> list[str] | None:
        """Run job `job` inside context(job), then check it and count it in `tally`.

        Returns its tables, or None when it raised or `main` returned nonzero."""
        label = f"{self.workload} job {job} (seed {self.seed + job})"
        try:
            with context(job):
                wall, outputs = run_job(self.cli, job_argvs(self.workload, self.seed + job,
                                                            self.tiny))
        except Exception:  # a job boundary: record it as failed and keep measuring
            tally.add(label, [traceback.format_exc()])
            return None
        problems, notes = self.oracle.check(self.workload, job, outputs)
        if not self.sizes and not problems:
            for text in outputs:
                meta = self.oracle.parse_table(text)[0]
                self.sizes[meta["command"]] = {k: int(meta[k]) for k in ("samples", "frames")
                                               if k in meta}
        if expect is not None and outputs != expect:
            problems.append("tables differ from the untraced run of the same seed")
        tally.add(label, problems, wall if timed else None, notes)
        return outputs

    def timed_pass(self, first_job: int, seconds: float, tally: Tally,
                   expected: dict | None = None, context=_plain) -> dict[int, list | None]:
        """Timed jobs from `first_job` on until `seconds` have passed (at least one)."""
        outputs = {}
        end = perf_counter() + seconds
        job = first_job
        while True:
            outputs[job] = self.job(job, tally, True, (expected or {}).get(job), context)
            job += 1
            if perf_counter() >= end:
                return outputs


def setup_times(root: Path, src: Path, repeats: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("BLOCKRATE_THREADS", None)
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip()))
    return times


def commit_of(root: Path) -> str:
    """HEAD commit read from the checkout's own .git, without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class NoTimedJob(RuntimeError):
    """Every timed job of a pass raised, so there is no time to report."""


def median_wall(tally: Tally) -> float:
    if not tally.walls:
        raise NoTimedJob("no timed job completed; see the FAIL lines above")
    return statistics.median(tally.walls)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def metric_line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<40} {value!r} {unit}" + (f"  ({note})" if note else "")


def measure_end_to_end(bench: Bench, seconds: float, root: Path,
                       src: Path) -> tuple[Tally, dict]:
    setup = setup_times(root, src, 2 if bench.tiny else SETUP_REPEATS)
    tally = Tally()
    bench.job(0, tally, timed=False)
    bench.timed_pass(1, seconds, tally)
    job_s = median_wall(tally)
    q1, q3 = quartiles(tally.walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh imports of blockrate.cli"),
        "job_s_p50": (job_s, "s", f"n={len(tally.walls)} timed jobs, q1={q1!r}, q3={q3!r}"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "ru_maxrss of the workload process"),
        "pass_ratio": (1.0 - tally.fail_ratio, "ratio",
                       f"{tally.attempted - tally.failed}/{tally.attempted} jobs passed"),
    }
    print(metric_line("fail_ratio", tally.fail_ratio, "ratio",
                      f"{tally.failed}/{tally.attempted} jobs failed"))
    return tally, metrics


def measure_per_layer(bench: Bench, seconds: float, tracing) -> tuple[Tally, dict]:
    """Untraced pass, one single-thread job, then a traced pass over the same seeds."""
    tally = Tally()
    expected = {0: bench.job(0, tally, timed=False)}
    expected.update(bench.timed_pass(1, seconds / 2.0, tally))
    untraced = median_wall(tally)

    serial = Tally()
    bench.job(0, serial, timed=True, expect=expected[0], context=one_thread)

    rec = tracing.Recorder()
    traced = Tally()
    outputs = bench.timed_pass(0, seconds / 2.0, traced, expected,
                               context=lambda job: tracing.instrument(rec, job))
    traced_s = median_wall(traced)
    for part in (serial, traced):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.notes += part.notes
    out_bytes = [sum(len(t.encode()) for t in o) for o in outputs.values() if o]

    values = tracing.layer_metrics(rec.spans, traced.walls, os.cpu_count() or 1)
    values["optimize.t1_speedup"] = median_wall(serial) / untraced
    values["cli.out_bytes"] = statistics.mean(out_bytes)
    values["trace.job_s_p50"] = traced_s
    values["trace.overhead_ratio"] = traced_s / untraced
    Path(TRACE_DIR).mkdir(exist_ok=True)
    path = Path(TRACE_DIR) / f"trace-{bench.workload}-seed{bench.seed}.json"
    rec.write(path)
    print(f"  {len(rec.spans)} spans written to {path}; job_s_p50 {untraced!r} s "
          f"untraced over {len(tally.walls)} jobs, traced over {len(traced.walls)}")
    return tally, {k: (values[k], unit, "") for k, unit in tracing.PER_LAYER_UNITS.items()}


def import_package(src: Path):
    """Import blockrate.cli from ./src and nowhere else."""
    if not (src / "blockrate" / "cli.py").is_file():
        raise ImportError(f"no blockrate package under {src}")
    sys.path.insert(0, str(src))
    import blockrate
    import blockrate.cli as cli
    if Path(blockrate.__file__).resolve().parent != (src / "blockrate").resolve():
        raise ImportError(f"blockrate was imported from {blockrate.__file__}, not {src}")
    return cli


def run_all(args) -> int:
    """Each workload in its own process, so each gets its own peak RSS."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.workload == "all":
        return run_all(args)

    root = Path.cwd()
    src = root / "src"
    os.environ.pop("BLOCKRATE_THREADS", None)
    try:
        cli = import_package(src)
    except ImportError as exc:
        print(f"perfbench: cannot import blockrate from {src}: {exc}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import oracle
    import tracing

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    bench = Bench(cli, oracle, args.workload, args.seed, args.tiny)
    try:
        if args.trace:
            tally, metrics = measure_per_layer(bench, args.seconds, tracing)
        else:
            tally, metrics = measure_end_to_end(bench, args.seconds, root, src)
    except NoTimedJob as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit, note) in metrics.items():
        print(metric_line(name, value, unit, note))
    if tally.notes:
        print(f"  {len(tally.notes)} known defects noted, not counted as failures; "
              f"first: {tally.notes[0]}")
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit_of(root), "nproc": os.cpu_count(),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "BLOCKRATE_THREADS": "unset (one thread per core)"
                             + ("; 1 for the optimize.t1_speedup job" if args.trace else ""),
        "jobs_attempted": tally.attempted, "jobs_timed": len(tally.walls),
        "job_sizes": bench.sizes, "job_argvs": job_argvs(args.workload, args.seed, args.tiny),
    }
    print("provenance " + json.dumps(provenance))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
