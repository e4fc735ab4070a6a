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
             "eb4bffdfc5d43cb0a2151ff054764fd52d187d07c4bfb04922621716b93072c0"),
    "fig1_theta0_clamp_json": (
        ["fig1", "--theta", "0", "--m", "1,3", "--epsilon-grid", "0.001,0.01,0.3",
         "--clamp-rate", "--format", "json"] + _S,
        "270dd49e65d94d9917876b0f7db35bb9189a08e48e6cecdd6a7f90168d682af7"),
    "fig2": (["fig2", "--m", "1..12", "--seed", "4"] + _S,
             "145478fcd32954b63ed39b11882f00e69d2ef88c018140c92106a79d6d9b18d4"),
    "fig3": (["fig3", "--m", "1,2,5", "--theta", "0.001,0.01,0.1,1", "--seed", "5"] + _S,
             "2b54ccbd552872a176faf627df4b30233cade5b0df16dec3ffef562c2c5e70a8"),
    # no --theta: the computed 20-point grid
    "fig3_default_theta": (["fig3", "--m", "1,2,5", "--seed", "5"] + _S,
                           "fcf0537251483489d01030a1eee555b59d24e60d1d6a2e62887eb3e421e11565"),
    "fig3_clamp": (["fig3", "--snr-db", "0", "--n", "200", "--m", "1,10",
                    "--theta", "0.01,0.1", "--clamp-rate", "--seed", "12"] + _S,
                   "a3b2b5127ea8e453008e88a150d7b0f8f420247edf6f90ce89000bd042372fff"),
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
                          "945aa891a8febaa99241122b3487fcf82e75fb4be1c0b21ed2978e99b238c570"),
    "sweep_m_theta0_clamp": (["sweep-m", "--m", "1..5", "--theta", "0", "--epsilon", "0.05",
                              "--clamp-rate"] + _S,
                             "53b85f5212ff345c16d0f7fe29631bf11f001c58f0dac73107f3e1c89b3ab54e"),
    # about 6e5 frames: two Lindley chunks, with the trace written to stdout
    # ahead of the table
    "simulate_clamp_trace": (["simulate", "--m", "2", "--n", "50", "--theta", "0.05",
                              "--clamp-rate", "--frames", "600000", "--burn-in", "20000",
                              "--seed", "11", "--trace-output", "-",
                              "--trace-every", "997"] + _S,
                             "fbfbdb762eed07497bf53a4ce40ec05e10b995cf1ef7b75702a8c892faffcd83"),
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
