"""The README's library and command-line examples run as written."""

import re
from pathlib import Path

import pytest

from blockrate.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs():
    scope: dict = {}
    exec(compile(_library_block(), str(README), "exec"), scope)
    assert scope["m_star"] in range(1, 51)
    assert not scope["res"].unstable
    assert scope["tail"].theta_hat == pytest.approx(0.0101, abs=5e-5)  # as its comment says


def test_cli_example_prints_the_quoted_row(capsys):
    text = README.read_text(encoding="utf-8")
    argv = "optimize-epsilon --snr-db 0 --n 200 --theta 0.01"
    row = "0.03574535853038407,0.4482414624853387,0.0011332817582692355,4,false"
    assert f"$ blockrate {argv}\n" in text and f"\n{row}\n" in text
    assert main(argv.split()) == 0
    assert capsys.readouterr().out.splitlines()[-1] == row
