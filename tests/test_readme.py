"""The README's examples run as written, so the documented API and
command line cannot drift from the code unseen."""

import re
import shlex
from pathlib import Path

import pytest

from bcpnp import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    for line in block.splitlines()
    if line.startswith("bcpnp ")
]


def test_readme_has_python_examples():
    assert EXAMPLES


@pytest.mark.parametrize("code", EXAMPLES, ids=lambda code: code.splitlines()[0])
def test_readme_python_example_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})


def test_readme_has_command_lines():
    assert COMMANDS


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_line_parses(line):
    """Each `bcpnp ...` line parses with the CLI's own parser (a removed
    flag exits 2), and the config it names exists."""
    args = cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
    assert (ROOT / args.config).is_file()


def test_readme_config_reference_names_every_mode():
    """The config reference lists each mode that `solver.modes` accepts, so
    the documented mode list cannot drift from `cli.MODES`."""
    reference = README.read_text().split("## Config reference", 1)[1].split("\n## ", 1)[0]
    yaml_block = re.search(r"^```yaml\n(.*?)^```", reference, re.S | re.M).group(1)
    for mode in cli.MODES:
        assert re.search(rf"(?<![\w-]){re.escape(mode)}(?![\w-])", yaml_block), mode
