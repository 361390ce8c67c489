"""README's Python examples run as written, so a retired export or a call
whose signature drifted fails here before a reader meets it."""

import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
FENCES = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)


def test_readme_has_a_python_example():
    assert FENCES


@pytest.mark.parametrize("code", FENCES, ids=[f"fence{i}" for i in range(len(FENCES))])
def test_python_fence_runs(code):
    exec(compile(code, "README.md", "exec"), {})
