"""Command-line surface: parsing, table formats, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import blockrate
from blockrate import cli
from blockrate.cli import (
    _parse_arrival,
    _parse_float_list,
    _parse_int_list,
    main,
)

import argparse

from test_golden import GOLDEN


THETA_RULE = ("queue runs need theta > 0 (it scales the tail histogram's bins), "
              "finite and with 128/theta finite, got ")


def _python(args, **env):
    """Run this interpreter on args in a fresh process that imports this
    checkout's package, with env added to the environment."""
    src = str(Path(blockrate.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path, **env})


def _run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["-o", str(out)])
    return code, out


def _read_csv(path):
    meta, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


FAST_FIG1 = ["fig1", "--m", "1,2", "--epsilon-grid", "0.001,0.01,0.1",
             "--samples", "2000", "--seed", "3"]


class TestParsers:
    def test_int_list_mixed_ranges(self):
        assert _parse_int_list("1,2,5..10") == (1, 2, 5, 6, 7, 8, 9, 10)
        assert _parse_int_list(" 4 ") == (4,)
        assert _parse_int_list("3..3") == (3,)

    @pytest.mark.parametrize("bad", ["", "1,,2", "2..1", "x", "1..y"])
    def test_int_list_rejects(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_int_list(bad)

    def test_float_list(self):
        assert _parse_float_list("0.1,1e-3") == (0.1, 1e-3)
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_float_list("0.1,oops")

    def test_arrival(self):
        assert _parse_arrival("auto") is None
        assert _parse_arrival("12.5") == 12.5
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_arrival("fast")


def _common(snr_db, n):
    return {"--help": None, "--snr-db": snr_db, "--n": n, "--samples": "100000",
            "--seed": "1", "--clamp-rate": None, "--format": "csv", "--output": ""}


# long flag -> the text of its "(default ...)" note, None where help has none
HELP_SURFACE = {
    "fig1": {**_common("0.0", "200"), "--theta": "0.01", "--m": "1,2,5,10",
             "--epsilon-grid": "120 log+linear points spanning 1e-7..0.999"},
    "fig2": {**_common("0.0", "50"), "--epsilon": "0.01", "--theta": "0,0.001,0.01,0.1",
             "--m": "1..50"},
    "fig3": {**_common("-10.0", "50"), "--theta": "20 log-spaced points in 0.001..1",
             "--m": "1,2,5,10"},
    "fig4": {**_common("0.0", "200"), "--theta": "0.01", "--m": "1,2,5,10",
             "--rate-grid": "101 points from 0 to max(2, 2*log2(1+SNR))"},
    "optimize-epsilon": {**_common("0.0", "200"), "--theta": "0.01", "--m": "1"},
    "optimize-rate": {**_common("0.0", "200"), "--theta": "0.01", "--m": "1"},
    "sweep-m": {**_common("0.0", "50"), "--theta": "0.01", "--m": "1..50",
                "--epsilon": None, "--rate": None},
    "simulate": {**_common("0.0", "200"), "--theta": "0.01", "--m": "1", "--epsilon": None,
                 "--rate": None, "--arrival": "auto", "--frames": "1000000",
                 "--burn-in": "10000", "--trace-output": None,
                 "--trace-every": "1000 when --trace-output is set"},
}


@pytest.mark.parametrize("command", sorted(HELP_SURFACE))
def test_help_lists_same_flags_and_defaults(command, capsys, monkeypatch):
    # wide enough that argparse wraps no help line; flag order and help
    # wording are free to change, the flags and their defaults are not
    monkeypatch.setenv("COLUMNS", "1000")
    assert main([command, "--help"]) == 0
    options = capsys.readouterr().out.split("\noptions:\n", 1)[1]
    surface = {}
    for entry in re.split(r"\n(?=  -)", options):
        flag = re.search(r"--[a-z][a-z-]*", entry).group()
        default = re.search(r"\(default:? ?(.*)\)$", " ".join(entry.split()))
        surface[flag] = default and default.group(1)
    assert surface == HELP_SURFACE[command]


def test_main_builds_one_parser(capsys):
    # the first main call builds the parser; later calls, a usage error's
    # among them, parse with that one
    cli._parser.cache_clear()
    assert main(["--version"]) == 0
    assert main(["fig1", "--bogus"]) == 1
    assert main(["--version"]) == 0
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


class TestExitCodes:
    def test_version_is_success(self, capsys):
        assert main(["--version"]) == 0
        assert "blockrate" in capsys.readouterr().out

    def test_missing_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["fig1", "--bogus"]) == 1

    def test_conflicting_policy_flags(self, capsys):
        code = main(["sweep-m", "--m", "1,2", "--epsilon", "0.01",
                     "--rate", "0.5", "--samples", "500"])
        assert code == 1
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fig4", "--m", "1", "--rate-grid", "0.5,inf"],
        ["sweep-m", "--m", "1,2", "--rate", "inf"],
        ["simulate", "--rate", "inf", "--frames", "1000", "--burn-in", "10"],
    ])
    def test_infinite_rate_rejected(self, argv, capsys):
        assert main(argv + ["--samples", "500"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "rate must be finite and >= 0" in err

    @pytest.mark.parametrize("argv", [
        ["fig4", "--m", "1", "--rate-grid", "0.5,RATE"],
        ["sweep-m", "--m", "1,2", "--rate", "RATE"],
        ["fig4", "--theta", "0", "--rate-grid", "RATE"],
        ["simulate", "--rate", "RATE", "--frames", "1000", "--burn-in", "10"],
    ])
    def test_rate_past_float_range_of_z(self, argv, capsys):
        # at 1e308, (mu - rate)/delta overflows: each such row is a step at
        # eps = 1, so every command prints what it prints at 1e200, with no
        # numpy warning.  simulate calibrates on those rows, then its queue's
        # float-range rule rejects the run: n*m*rate squared overflows
        runs = []
        for rate in ("1e200", "1e308"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([a.replace("RATE", rate) for a in argv] + ["--samples", "500"])
            assert caught == []
            out, err = capsys.readouterr()
            runs.append((code, out.replace("1e+200", "1e+308"), err))
        if argv[0] == "simulate":
            for (code, out, err), top in zip(runs, ("2e+202", "inf")):
                assert (code, out) == (1, "")
                assert err == ("blockrate: error: frames * (arrival + largest service)^2 "
                               "overflows a float: 1000 frames, arrival 0.0 and service up to "
                               f"{top} bits per frame; use a smaller n * m, arrival or frame count\n")
            return
        assert runs[1] == runs[0]
        code, out, err = runs[1]
        rows = [r for r in out.splitlines() if "1e+308" in r and not r.startswith("#")]
        assert code == 0 and rows
        assert all(",0.0,0.0" in r for r in rows)  # throughput and its error

    @pytest.mark.parametrize("argv", [
        ["fig4", "--m", "1", "--rate-grid", "0.5"],
        ["optimize-rate"],
        ["sweep-m", "--m", "1,2", "--rate", "0.5"],
        ["simulate", "--rate", "0.5", "--frames", "1000", "--burn-in", "10"],
    ])
    def test_clamp_rate_rejected_on_fixed_rate(self, argv, capsys):
        # a fixed rate has no negative target to clamp; the flag would be
        # ignored while the metadata reported clamp_rate = true
        assert main(argv + ["--clamp-rate", "--samples", "500"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--clamp-rate" in err

    @pytest.mark.parametrize("argv,message", [
        (["fig1", "--samples", "1"], "--samples must be >= 2"),
        (["optimize-epsilon", "--snr-db", "nan"], "snr_db = nan gives no positive finite"),
        (["simulate", "--snr-db", "inf"], "snr_db = inf gives no positive finite"),
        (["fig3", "--m", "1", "--seed", "-1", "--samples", "500"], "seed must be >= 0"),
        (["simulate", "--frames", "1000", "--burn-in", "10", "--seed", "-1",
          "--samples", "500"], "seed must be >= 0"),
        # 10**(snr_db/10) overflows, or underflows to 0
        (["fig2", "--snr-db", "4000", "--samples", "100"], "snr_db = 4000.0"),
        (["fig2", "--snr-db", "-4000", "--samples", "100"], "snr_db = -4000.0"),
        (["fig4", "--snr-db", "4000", "--samples", "100"], "snr_db = 4000.0"),
        # theta * n * m overflows a float
        (["fig4", "--m", "1", "--theta", "1e306", "--rate-grid", "0,0.5", "--samples", "500"],
         "theta * n * m overflows"),
        (["fig2", "--m", "1", "--theta", "1e308", "--samples", "500"], "theta * n * m overflows"),
        (["optimize-epsilon", "--theta", "1e308", "--samples", "500"], "theta * n * m overflows"),
        # n * m itself past float range
        (["optimize-epsilon", "--n", "1" + "0" * 400, "--samples", "500"], "n * m overflows"),
        (["fig2", "--theta", "inf"], "theta must be finite and >= 0, got inf"),
        # a subnormal theta * n * m, which every kernel holds to a few bits:
        # 1e-320 read 1.2e-5 (fig2) and 2.7e-5 (fig3) relative off theta -> 0
        (["fig2", "--m", "1", "--samples", "2000", "--theta", "0,1e-310,1e-320"],
         "theta * n * m = 4.999999999999985e-309 is subnormal, which the kernels hold to a "
         "few bits: theta = 1e-310, n * m = 50; use theta = 0 for the ergodic limit"),
        (["fig3", "--m", "1", "--samples", "2000", "--theta", "1e-16,1e-320"],
         "theta * n * m = 4.99994e-319 is subnormal"),
    ])
    def test_bad_parameter_value_is_usage_error(self, argv, message, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["fig2", "--m", "1,2", "--theta", "0"],
        ["sweep-m", "--m", "1..3", "--theta", "0", "--epsilon", "0.1"],
        ["optimize-rate"],
        ["fig4", "--m", "1", "--rate-grid", "0.5"],
        ["optimize-epsilon"],
    ])
    def test_overflowing_snr_gain_is_usage_error(self, argv, capsys):
        # SNR = 1e308 passes SystemParams, but its product with any gain
        # above 1.8 overflows: every command stops at the statistics, with
        # one message and no numpy warning, instead of printing nan rows or
        # failing later in its own way
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--snr-db", "3080", "--samples", "200"]) == 1
        assert caught == []
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("blockrate: error: snr_linear * gain overflows")
        assert len(err.splitlines()) == 1

    @staticmethod
    def _one_error_line(argv, capsys):
        """main's exit code and its one stderr line, with no numpy warning."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert caught == []
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        return code, err

    def test_overflowing_arrival_is_usage_error(self, capsys):
        # frames * (arrival + largest service)^2 overflows at an arrival of
        # 1e308, so QueueConfig rejects the run before any frame is filled
        code, err = self._one_error_line(
            ["simulate", "--arrival", "1e308", "--frames", "1000", "--burn-in", "10",
             "--epsilon", "0.01", "--samples", "100"], capsys)
        assert code == 1
        assert err.startswith("blockrate: error: frames * (arrival + largest service)^2 "
                              "overflows a float: 1000 frames, arrival 1e+308 and service up to ")

    def test_overflowing_service_square_is_usage_error(self, capsys):
        # n = 1e160 passes SystemParams, and each success serves 5e159 bits,
        # whose square overflows: the run stops before any frame is filled
        code, err = self._one_error_line(
            ["simulate", "--rate", "0.5", "--n", str(10**160), "--frames", "1000",
             "--burn-in", "10", "--samples", "200"], capsys)
        assert code == 1
        assert err.startswith("blockrate: error: frames * (arrival + largest service)^2 "
                              "overflows a float: 1000 frames, arrival ")
        assert "and service up to 5e+159 bits per frame; use a smaller n * m" in err

    def test_overflowing_service_is_usage_error(self, capsys):
        # n = 1e308 passes SystemParams, but each success serves n*m*R = inf bits
        code, err = self._one_error_line(
            ["simulate", "--rate", "2", "--n", str(10**308), "--frames", "1000",
             "--burn-in", "10", "--samples", "200"], capsys)
        assert code == 1
        assert err.startswith("blockrate: error: frames * (arrival + largest service)^2 ")
        assert err.endswith(" and service up to inf bits per frame; use a smaller n * m, "
                            "arrival or frame count\n")

    def test_overflowing_bin_position_prints_no_warning(self, capsys):
        # the run passes the float-range rule, but its queue lengths times
        # 8*theta overflow in the tail histogram, into its overflow bin
        code, err = self._one_error_line(
            ["simulate", "--theta", "1e250", "--n", "1", "--m", "1", "--epsilon", "0.01",
             "--arrival", "1e70", "--frames", "1000", "--burn-in", "10", "--samples", "200"],
            capsys)
        assert code == 2
        assert err.startswith("blockrate: error: queue is unstable: arrival 1e+70")

    @pytest.mark.parametrize("command", ["fig3", "optimize-epsilon", "optimize-rate"])
    def test_cannot_optimize_at_theta_zero(self, command, capsys):
        code = main([command, "--theta", "0", "--m", "1", "--samples", "500"])
        assert code == 1
        assert "target" in capsys.readouterr().err

    # simulate checks its queue flags, and every command its seed, before
    # any gains are drawn: drawn first, 1e17 samples would exit 2 with
    # "cannot allocate gains".  TRACE stands for a path in tmp_path.
    @pytest.mark.parametrize("argv,message", [
        (["--frames", "0"], "frames must be >= 1 and integral, got 0"),
        (["--burn-in", "-1"], "burn_in_frames must be >= 0 and integral, got -1"),
        (["--burn-in", "1000", "--frames", "1000"], "burn_in_frames=1000 must be < frames=1000"),
        (["--trace-every", "-3", "--trace-output", "TRACE"],
         "trace_every must be >= 0 and integral, got -3"),
        (["--arrival", "-1"], "arrival_bits_per_frame must be finite and >= 0, got -1.0"),
        (["--arrival", "nan"], "arrival_bits_per_frame must be finite and >= 0, got nan"),
        (["--theta", "-1"], THETA_RULE + "-1.0"),
        (["--theta", "0"], THETA_RULE + "0.0"),
        (["--theta", "nan"], THETA_RULE + "nan"),
        (["--seed", "-1"], "seed must be >= 0 and integral, got -1"),
        (["fig2", "--seed", "-1"], "seed must be >= 0 and integral, got -1"),
        (["--theta", "inf"], THETA_RULE + "inf"),
        # 128/theta, the tail histogram's span, overflows
        (["--theta", "1e-310", "--frames", "1000", "--burn-in", "10"], THETA_RULE + "1e-310"),
        # Q^-1 of a subnormal epsilon is not resolved
        (["--epsilon", "1e-310"], "epsilon = 1e-310 is subnormal, where Q is held to a few bits "
                                  "and Q^-1(epsilon) cannot be resolved"),
    ])
    def test_rejected_before_drawing(self, argv, message, tmp_path, capsys):
        if argv[0] != "fig2":
            argv = ["simulate", "--epsilon", "0.01"] + argv
        argv = [str(tmp_path / "trace.csv") if a == "TRACE" else a for a in argv]
        assert main(argv + ["--samples", str(10**17)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"blockrate: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_trace_every_needs_trace_output(self, capsys):
        code = main(["simulate", "--epsilon", "0.01", "--trace-every", "10",
                     "--samples", str(10**17), "--frames", "1000", "--burn-in", "10"])
        assert code == 1
        assert capsys.readouterr().err == "blockrate: error: --trace-every needs --trace-output\n"

    def test_unwritable_output_is_runtime_error(self, capsys):
        code = main(FAST_FIG1 + ["-o", "/nonexistent-dir-xyz/out.csv"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("snr_db,m,theta", [("20", "5", "1"), ("10", "10", "1"),
                                                ("20", "10", "0.1")])
    def test_underflowing_eps_optimizes(self, snr_db, m, theta, capsys):
        # every eps underflows near R*, where the fixed-rate slopes once
        # overflowed; ln E[eps] from log_ndtr finds an interior optimum
        code = main(["optimize-rate", "--snr-db", snr_db, "--n", "500", "--m", m,
                     "--theta", theta, "--samples", "2000"])
        assert code == 0
        out, err = capsys.readouterr()
        assert err == ""
        header, row = out.splitlines()[-2:]
        assert header.split(",")[-1] == "at_boundary" and row.split(",")[-1] == "false"

    @pytest.mark.parametrize("samples", [str(10**16), str(10**17)])
    def test_unallocatable_samples_is_runtime_error(self, samples, capsys):
        # too many rows to map at all: exabytes, or past numpy's largest array
        assert main(["fig2", "--samples", samples]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("blockrate: error: cannot allocate gains")
        assert len(err.splitlines()) == 1

    def test_negative_auto_arrival_is_runtime_error(self, capsys):
        # at eps = 1e-6 and theta = 1 the calibrated throughput is negative,
        # so --arrival auto has no arrival rate to take
        code = main(["simulate", "--theta", "1", "--epsilon", "1e-6", "--n", "50",
                     "--samples", "2000", "--frames", "20000", "--burn-in", "100"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "calibrated effective rate -" in err and "give --arrival" in err
        assert len(err.splitlines()) == 1

    def test_unstable_queue_is_runtime_error(self, tmp_path, capsys):
        code, _ = _run_to_file(tmp_path, "q.csv", [
            "simulate", "--theta", "0.05", "--n", "50", "--m", "2",
            "--epsilon", "0.01", "--arrival", "1e6",
            "--samples", "2000", "--frames", "20000", "--burn-in", "100"])
        assert code == 2
        assert "unstable" in capsys.readouterr().err


class TestCsvOutput:
    def test_fig1_table_shape(self, tmp_path):
        code, out = _run_to_file(tmp_path, "fig1.csv", FAST_FIG1)
        assert code == 0
        meta, columns, rows = _read_csv(out)
        assert meta["command"] == "fig1"
        assert meta["snr_db"] == "0.0"
        assert meta["seed"] == "3"
        assert columns == ["m", "epsilon", "effective_rate", "std_error"]
        assert len(rows) == 6  # 2 m values x 3 grid points
        for row in rows:
            assert float(row[2]) > 0.0 and float(row[3]) >= 0.0

    def test_no_volatile_metadata(self, tmp_path):
        _, out = _run_to_file(tmp_path, "fig1.csv", FAST_FIG1)
        meta, _, _ = _read_csv(out)
        for key in meta:
            assert "time" not in key and "date" not in key and "host" not in key

    def test_stdout_by_default(self, capsys):
        assert main(FAST_FIG1) == 0
        text = capsys.readouterr().out
        assert text.startswith("# command = fig1")
        assert "m,epsilon,effective_rate,std_error" in text

    def test_floats_round_trip_exactly(self, tmp_path):
        # repr format: reparse and re-render must reproduce the bytes
        _, out = _run_to_file(tmp_path, "fig1.csv", FAST_FIG1)
        _, _, rows = _read_csv(out)
        for row in rows:
            assert repr(float(row[1])) == row[1]
            assert repr(float(row[2])) == row[2]


class TestJsonOutput:
    def test_mirrors_csv_rows(self, tmp_path):
        _, csv_out = _run_to_file(tmp_path, "a.csv", FAST_FIG1)
        code, json_out = _run_to_file(tmp_path, "a.json",
                                      FAST_FIG1 + ["--format", "json"])
        assert code == 0
        payload = json.loads(json_out.read_text())
        assert set(payload) == {"metadata", "columns", "rows"}
        assert payload["metadata"]["command"] == "fig1"
        _, columns, csv_rows = _read_csv(csv_out)
        assert payload["columns"] == columns
        assert len(payload["rows"]) == len(csv_rows)
        for jrow, crow in zip(payload["rows"], csv_rows):
            assert jrow[0] == int(crow[0])
            for jval, cval in zip(jrow[1:], crow[1:]):
                assert jval == float(cval)

    def test_optimize_epsilon_single_row(self, tmp_path):
        code, out = _run_to_file(tmp_path, "opt.json", [
            "optimize-epsilon", "--theta", "0.01", "--n", "200",
            "--samples", "5000", "--format", "json"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["epsilon_star", "effective_rate",
                                      "std_error", "iterations", "at_boundary"]
        (row,) = payload["rows"]
        assert 0.0 < row[0] < 1.0 and row[1] > 0.0 and row[4] is False

    def test_optimize_rate_single_row(self, tmp_path):
        code, out = _run_to_file(tmp_path, "optr.json", [
            "optimize-rate", "--theta", "0.01", "--n", "200",
            "--samples", "5000", "--format", "json"])
        assert code == 0
        (row,) = json.loads(out.read_text())["rows"]
        assert row[0] > 0.0 and row[1] > 0.0


class TestSweepCommands:
    def test_sweep_m_reports_m_star(self, tmp_path):
        code, out = _run_to_file(tmp_path, "sm.csv", [
            "sweep-m", "--m", "1..6", "--epsilon", "0.01",
            "--theta", "0.01", "--n", "50", "--samples", "4000"])
        assert code == 0
        meta, columns, rows = _read_csv(out)
        assert columns == ["m", "effective_rate", "std_error", "argument"]
        assert len(rows) == 6
        best = max(rows, key=lambda r: float(r[1]))
        assert meta["m_star"] == best[0]
        assert all(float(r[3]) == 0.01 for r in rows)

    def test_optimized_sweep_m_reports_search_record(self, tmp_path):
        code, out = _run_to_file(tmp_path, "smo.csv", [
            "sweep-m", "--m", "1,10", "--theta", "0.1", "--n", "200", "--samples", "4000"])
        assert code == 0
        _, columns, rows = _read_csv(out)
        assert columns == ["m", "effective_rate", "std_error", "argument",
                           "iterations", "at_boundary"]
        assert all(int(r[4]) > 0 for r in rows)
        # eps* of m = 10 lies below the bracket: the row says so
        assert [r[5] for r in rows] == ["false", "true"]
        assert float(rows[1][3]) == 1e-10

    def test_fig2_includes_ergodic_row(self, tmp_path):
        code, out = _run_to_file(tmp_path, "f2.csv", [
            "fig2", "--theta", "0,0.01", "--m", "1,2", "--epsilon", "0.01",
            "--n", "50", "--samples", "4000"])
        assert code == 0
        _, columns, rows = _read_csv(out)
        assert columns == ["theta", "m", "effective_rate", "std_error"]
        assert [r[0] for r in rows] == ["0.0", "0.0", "0.01", "0.01"]
        # the zero-exponent (ergodic) value dominates the constrained one
        assert float(rows[0][2]) >= float(rows[2][2])

    def test_fig3_reports_optimized_epsilon(self, tmp_path):
        code, out = _run_to_file(tmp_path, "f3.csv", [
            "fig3", "--theta", "0.01,0.1", "--m", "1", "--n", "50",
            "--samples", "4000"])
        assert code == 0
        _, columns, rows = _read_csv(out)
        assert columns[-1] == "epsilon_star"
        assert all(0.0 < float(r[4]) < 1.0 for r in rows)

    def test_fig4_row_count(self, tmp_path):
        code, out = _run_to_file(tmp_path, "f4.csv", [
            "fig4", "--m", "1", "--rate-grid", "0.0,0.5,1.0",
            "--samples", "2000"])
        assert code == 0
        _, columns, rows = _read_csv(out)
        assert columns == ["m", "rate", "effective_rate", "std_error"]
        assert len(rows) == 3
        assert float(rows[0][2]) == 0.0  # rate 0 serves nothing


class TestSimulateCommand:
    def test_end_to_end_tail_estimate(self, tmp_path):
        code, out = _run_to_file(tmp_path, "sim.json", [
            "simulate", "--theta", "0.05", "--n", "50", "--m", "2",
            "--samples", "20000", "--frames", "200000", "--burn-in", "5000",
            "--seed", "2024", "--format", "json"])
        assert code == 0
        payload = json.loads(out.read_text())
        row = dict(zip(payload["columns"], payload["rows"][0]))
        assert row["unstable"] is False
        assert row["theta_hat"] == pytest.approx(0.05, rel=0.3)
        assert row["fit_r2"] > 0.95
        assert payload["metadata"]["queue_seed"] == 2025

    def test_trace_file_written(self, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _ = _run_to_file(tmp_path, "sim.csv", [
            "simulate", "--theta", "0.05", "--n", "50", "--m", "2",
            "--epsilon", "0.02", "--samples", "5000",
            "--frames", "30000", "--burn-in", "1000",
            "--trace-output", str(trace), "--trace-every", "500"])
        assert code == 0
        meta, columns, rows = _read_csv(trace)
        assert columns == ["frame", "gain_mean", "service_bits", "queue_bits"]
        assert len(rows) == (30000 - 1000) // 500
        assert meta["trace_every"] == "500"
        assert int(rows[0][0]) == 1000

    def test_trace_output_defaults_to_every_thousandth_frame(self, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _ = _run_to_file(tmp_path, "sim.csv", [
            "simulate", "--theta", "0.05", "--n", "50", "--m", "2",
            "--epsilon", "0.02", "--samples", "5000",
            "--frames", "30000", "--burn-in", "1500", "--trace-output", str(trace)])
        assert code == 0
        assert "# trace_every = 1000\n" in trace.read_text()
        meta, columns, rows = _read_csv(trace)
        assert columns == ["frame", "gain_mean", "service_bits", "queue_bits"]
        assert [int(row[0]) for row in rows] == list(range(2000, 30000, 1000))

    def test_trace_output_written_when_no_frame_is_traced(self, tmp_path):
        # the trace grid's first point, frame 40000, is past the last frame:
        # the file still holds the metadata and the header, with no rows
        trace = tmp_path / "trace.csv"
        code, out = _run_to_file(tmp_path, "sim.csv", [
            "simulate", "--theta", "0.05", "--n", "50", "--epsilon", "0.02",
            "--samples", "3000", "--frames", "30000", "--burn-in", "1000",
            "--trace-every", "40000", "--trace-output", str(trace)])
        assert code == 0 and out.exists()
        meta, columns, rows = _read_csv(trace)
        assert meta["trace_every"] == "40000" and meta["frames"] == "30000"
        assert columns == ["frame", "gain_mean", "service_bits", "queue_bits"]
        assert rows == []


class TestDeterminism:
    def test_output_independent_of_thread_count(self, tmp_path, monkeypatch):
        argv = ["fig2", "--theta", "0.01,0.1", "--m", "1..6",
                "--epsilon", "0.01", "--n", "50", "--samples", "5000"]
        monkeypatch.setenv("BLOCKRATE_THREADS", "1")
        _, one = _run_to_file(tmp_path, "t1.csv", argv)
        monkeypatch.setenv("BLOCKRATE_THREADS", "4")
        _, four = _run_to_file(tmp_path, "t4.csv", argv)
        assert one.read_bytes() == four.read_bytes()

    def test_simulate_independent_of_thread_count(self, tmp_path, monkeypatch, capsys):
        # three Lindley chunks, a burn-in that ends mid-chunk, and a trace
        argv = ["simulate", "--theta", "0.05", "--n", "50", "--m", "2",
                "--samples", "5000", "--frames", "1200000", "--burn-in", "123457",
                "--seed", "6", "--trace-every", "997"]
        outputs = []
        for threads in ("1", "4", None):
            if threads is None:
                monkeypatch.delenv("BLOCKRATE_THREADS", raising=False)
            else:
                monkeypatch.setenv("BLOCKRATE_THREADS", threads)
            trace = tmp_path / f"trace{threads}.csv"
            assert main(argv + ["--trace-output", str(trace)]) == 0
            outputs.append((capsys.readouterr().out, trace.read_bytes()))
        assert outputs[0][0] and outputs[0][1]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_simulate_independent_of_blas_thread_count(self):
        # no table value comes from a BLAS call: a threaded dot product
        # rounds by OpenBLAS's thread count, and this digest's drift_z moved
        argv = GOLDEN["simulate_clamp_trace"][0]
        runs = [_python(["-m", "blockrate", *argv], OPENBLAS_NUM_THREADS=threads)
                for threads in ("1", "2")]
        for run in runs:
            assert run.returncode == 0, run.stderr
        assert runs[0].stdout and runs[0].stdout == runs[1].stdout

    def test_rerun_byte_identical(self, tmp_path):
        _, a = _run_to_file(tmp_path, "r1.csv", FAST_FIG1)
        _, b = _run_to_file(tmp_path, "r2.csv", FAST_FIG1)
        assert a.read_bytes() == b.read_bytes()


class TestImportCost:
    def test_cli_import_pulls_in_no_heavy_scipy_modules(self):
        # the CLI starts in a fresh interpreter per run: these subpackages
        # would add about 0.3 s and 20 MB to every start
        heavy = ["scipy.optimize", "scipy.stats", "scipy.linalg"]
        code = ("import sys, blockrate.cli; "
                f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
        proc = _python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""
