"""Every command's output pinned byte for byte at reduced sizes.

Each case runs `cli.main` in-process and compares the sha256 of its stdout
to a hash recorded from the same command.  A refactor that keeps the
arithmetic order must keep these hashes.  The hashes depend on the rounding
of numpy's and scipy's kernels (log1p, erfc, and the pairwise sums behind
each expectation and the queue's service variance; the rate statistics sum
their blocks left to right in `fbl`'s own order), so they hold only for the
versions recorded below; under other versions the test is skipped with a
message naming both.  They depend on no BLAS call, so neither
BLOCKRATE_THREADS nor OPENBLAS_NUM_THREADS can move them.
"""

import hashlib

import numpy
import pytest
import scipy

from blockrate.cli import main

RECORDED_NUMPY = "2.4.6"
RECORDED_SCIPY = "1.17.1"

_S = ["--samples", "3000"]

GOLDEN = {
    "fig1": (["fig1", "--m", "1,2,5", "--seed", "3"] + _S,
             "47170dbcb5275ac6f7fb4b0b58896713a6fd3e4d433af5fa4dcdf7d53b43d745"),
    "fig1_theta0_clamp_json": (
        ["fig1", "--theta", "0", "--m", "1,3", "--epsilon-grid", "0.001,0.01,0.3",
         "--clamp-rate", "--format", "json"] + _S,
        "5218a0f84104847becf9a65647534b0059848187a8e7c37d84b74965623a8cae"),
    "fig2": (["fig2", "--m", "1..12", "--seed", "4"] + _S,
             "3ef91e68d1e763740631f97ba32edb1b3018d656416392620ac61ffebb75ee89"),
    "fig3": (["fig3", "--m", "1,2,5", "--theta", "0.001,0.01,0.1,1", "--seed", "5"] + _S,
             "30bc2b9912da47b8208c3b1be2d40b76234348b2007d88d45aa941031c12c0a2"),
    # no --theta: the computed 20-point grid
    "fig3_default_theta": (["fig3", "--m", "1,2,5", "--seed", "5"] + _S,
                           "208060350b7cf8d38941bca45caa1146029763c3a164755d9245a32c33f56c39"),
    "fig3_clamp": (["fig3", "--snr-db", "0", "--n", "200", "--m", "1,10",
                    "--theta", "0.01,0.1", "--clamp-rate", "--seed", "12"] + _S,
                   "8f7e385b4fc4f4203f6fbcc10fed554a6623878fa733269dcc84ad1c50e7967c"),
    "fig4": (["fig4", "--m", "1,2,5", "--seed", "6"] + _S,
             "e3d5e72d25b0f15739b280af53f3695b7c466f68d4a884ba388328a74f09a9ee"),
    "fig4_theta0_json": (["fig4", "--theta", "0", "--m", "1,2", "--rate-grid", "0,0.5,1",
                          "--format", "json"] + _S,
                         "950bdd2c4e51559540e6a9c35d8c26a5545d137e61dbc6fa561c3ca5911fa495"),
    "optimize_epsilon": (["optimize-epsilon", "--m", "2", "--theta", "0.1", "--seed", "7"] + _S,
                         "408a71afb920034a1f755ced55b2776de3c842394dd85966657e8230c36f0861"),
    # single-value --m and --theta are printed as one-element lists
    "optimize_epsilon_json": (["optimize-epsilon", "--m", "2", "--theta", "0.1", "--seed", "7",
                               "--format", "json"] + _S,
                              "46b74e1f46f1d7e538e2cf15957620ae6876d3d9521cb9de2c163ac6c555d4be"),
    # clamping moves eps* here (0.2514 unclamped), so --clamp-rate must reach the search
    "optimize_epsilon_clamp": (["optimize-epsilon", "--snr-db", "-10", "--n", "50", "--m", "2",
                                "--theta", "0.1", "--clamp-rate", "--seed", "14"] + _S,
                               "93408a917ef5212cebac5db74e48e7bc6a38f42a6dc8fd5404320bb9f9617c2d"),
    "optimize_rate": (["optimize-rate", "--m", "2", "--theta", "0.1", "--seed", "8"] + _S,
                      "86f0bdc4aac569553ef7199cd39e2d42ea4b7dd98cd31a7c66c572bd04e6e980"),
    "sweep_m_rate": (["sweep-m", "--m", "1..8", "--rate", "0.5", "--seed", "9"] + _S,
                     "39b6021e2add11644df2444e86276d598da2cdd110c4bcedc1b07af6ba15c67e"),
    "sweep_m_optimized": (["sweep-m", "--m", "1..8", "--seed", "10"] + _S,
                          "cbdceab6e388ef3c498d9c8a79a4d4ae7f6c391a1925fa057e018a1265f9ea8d"),
    "sweep_m_theta0_clamp": (["sweep-m", "--m", "1..5", "--theta", "0", "--epsilon", "0.05",
                              "--clamp-rate"] + _S,
                             "53b85f5212ff345c16d0f7fe29631bf11f001c58f0dac73107f3e1c89b3ab54e"),
    # about 6e5 frames: two Lindley chunks, with the trace written to stdout
    # ahead of the table
    "simulate_clamp_trace": (["simulate", "--m", "2", "--n", "50", "--theta", "0.05",
                              "--clamp-rate", "--frames", "600000", "--burn-in", "20000",
                              "--seed", "11", "--trace-output", "-",
                              "--trace-every", "997"] + _S,
                             "16b84d6f3728dcbeb72e4325284f4106dd6ec82520a49c1b11b10a73a0816256"),
    "simulate_rate": (["simulate", "--rate", "0.3", "--frames", "200000",
                       "--burn-in", "5000", "--seed", "13"] + _S,
                      "86d0d64a76c18b363cf85e5680cd8fad4fa7654834cf660a2c4fba3b32aee7a0"),
    "simulate_rate_json": (["simulate", "--rate", "0.3", "--frames", "200000",
                            "--burn-in", "5000", "--seed", "13", "--format", "json"] + _S,
                           "3755159c677441537888eb8f722dc4926753e259d9bcd03d17d25b1368f1037e"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_recorded_hash(name, capsys):
    if (numpy.__version__, scipy.__version__) != (RECORDED_NUMPY, RECORDED_SCIPY):
        pytest.skip(f"hashes were recorded with numpy {RECORDED_NUMPY} and scipy "
                    f"{RECORDED_SCIPY}; this is numpy {numpy.__version__} and scipy "
                    f"{scipy.__version__}")
    argv, digest = GOLDEN[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    got = hashlib.sha256(out.encode()).hexdigest()
    assert got == digest, (
        f"stdout of case {name!r} (blockrate {' '.join(argv)}) changed:\n"
        f"  recorded {digest}\n  now      {got}\n"
        f"if the change is intended, record the new digest for {name!r} in GOLDEN")
