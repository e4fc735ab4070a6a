"""The README's library example runs as written."""

import re
from pathlib import Path

import pytest

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
