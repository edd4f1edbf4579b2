"""The README's Python examples run as written, so the documented API
cannot drift from the code unseen."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_python_examples():
    assert EXAMPLES


@pytest.mark.parametrize("code", EXAMPLES, ids=lambda code: code.splitlines()[0])
def test_readme_python_example_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
