"""Self-test of the benchmark at tiny sizes.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
  1. every metric BENCHMARK.json names is printed with its unit, both on the
     human-readable lines and in the final JSON line (end_to_end metrics with
     --trace 0, per_layer metrics with --trace 1), for every workload;
  2. a deliberately corrupted output row makes its job count as failed;
  3. traced, untraced and single-thread runs write byte-identical CLI tables;
  4. the span recorder keeps every span and parent when threads share it.
Exit status is 0 when all hold and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import threading
from pathlib import Path

import run

ROOT = Path.cwd()


def check_metric_names(spec: dict) -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(Path(run.__file__)), "--workload", workload,
                 "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{label}: tiny run not correct: {proc.stderr[-500:]}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{label}: metrics {got} differ from BENCHMARK.json {wanted}")
            printed = {line.split()[0]: line.split()[2] for line in lines[1:-1]
                       if line.startswith("  ") and len(line.split()) >= 3}
            for name, unit in wanted.items():
                if printed.get(name) != unit:
                    problems.append(f"{label}: {name} not printed with unit {unit}")
            if trace == 0 and printed.get("fail_ratio") != "ratio":
                problems.append(f"{label}: fail_ratio not printed")
    return problems


def corrupt(table: str, row: int) -> str:
    """The table with the effective_rate of data row `row` raised by 1e-6 relative."""
    lines = table.splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    col = lines[header].rstrip("\n").split(",").index("effective_rate")
    cells = lines[header + 1 + row].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) * (1.0 + 1e-6))
    lines[header + 1 + row] = ",".join(cells) + "\n"
    return "".join(lines)


class CorruptingCli:
    """Stands in for blockrate.cli: the `target` (command, row) of a job is corrupted."""

    def __init__(self, cli, target: tuple[int, int]):
        self.cli, self.target, self.calls = cli, target, 0

    def main(self, argv: list[str]) -> int:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        text = buf.getvalue()
        if self.calls == self.target[0]:
            text = corrupt(text, self.target[1])
        self.calls += 1
        sys.stdout.write(text)
        return code


def check_corruption_counted(cli, oracle) -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        _, clean = run.run_job(cli, run.job_argvs(workload, 5, tiny=True))
        found, _ = oracle.check(workload, 0, clean)
        if found:
            problems.append(f"{workload}: clean tiny job fails its check: {found}")
            continue
        for target in oracle.checked_rows(workload, 0, clean):
            tally = run.Tally()
            bench = run.Bench(CorruptingCli(cli, target), oracle, workload, 5, tiny=True)
            with contextlib.redirect_stderr(io.StringIO()):  # the expected FAIL lines
                bench.job(0, tally, timed=False)
            if (tally.attempted, tally.failed, tally.fail_ratio) != (1, 1, 1.0):
                problems.append(f"{workload}: corrupted row {target} not counted as failed")
    return problems


def check_tracing_neutral(cli, tracing) -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        argvs = run.job_argvs(workload, 7, tiny=True)
        _, plain = run.run_job(cli, argvs)
        rec = tracing.Recorder()
        with tracing.instrument(rec):
            _, traced = run.run_job(cli, argvs)
        with run.one_thread(0):
            _, serial = run.run_job(cli, argvs)
        if traced != plain or serial != plain:
            problems.append(f"{workload}: traced or single-thread tables differ")
        layers = {s.name.split(".")[0] for s in rec.spans}
        if not {"cli", "channel", "fbl", "effective_rate"} <= layers:
            problems.append(f"{workload}: traced layers {sorted(layers)}")
        recorded = len(rec.spans)
        run.run_job(cli, argvs)
        if len(rec.spans) != recorded:
            problems.append(f"{workload}: spans recorded after the traced block ended")
    return problems


def check_recorder_threads(tracing, threads: int = 8, calls: int = 2000) -> list[str]:
    """Nested spans from more threads than cores, with frequent thread switches."""
    rec = tracing.Recorder()

    def work():
        for _ in range(calls):
            rec.call("outer", rec.call, ("inner", lambda: None, (), {}), {})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    if any(w.is_alive() for w in workers):
        return ["recorder stress test did not finish in 60 s"]
    by_id = {s.sid: s for s in rec.spans}
    inner = [s for s in rec.spans if s.name == "inner"]
    if len(by_id) != len(rec.spans) or len(rec.spans) != 2 * threads * calls:
        return [f"recorder kept {len(by_id)} distinct of {len(rec.spans)} spans, "
                f"expected {2 * threads * calls}"]
    if not all(s.parent in by_id and by_id[s.parent].name == "outer"
               and by_id[s.parent].thread == s.thread for s in inner):
        return ["recorder gave an inner span a parent from another thread"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = run.import_package(ROOT / "src")
    import oracle
    import tracing

    problems = (check_metric_names(spec) + check_corruption_counted(cli, oracle)
                + check_tracing_neutral(cli, tracing) + check_recorder_threads(tracing))
    for p in problems:
        print(f"selftest: FAIL {p}")
    print(f"selftest: {'FAIL' if problems else 'ok'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
