"""The README's examples run: each line of its "Command line" block through
``cli.main``, and its Python "Quick example"."""

import re
import shlex
from pathlib import Path

import pytest

from siolab.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block_after(heading: str, lang: str = "") -> str:
    match = re.search(rf"^{re.escape(heading)}\n+```{lang}\n(.*?)^```", README,
                      re.MULTILINE | re.DOTALL)
    assert match, heading
    return match.group(1)


COMMANDS = [shlex.split(line)[1:] for line in _block_after("## Command line").splitlines()
            if line.startswith("siolab ")]


def test_readme_lists_every_subcommand():
    assert sorted(argv[0] for argv in COMMANDS) == [
        "carleson", "dichotomy", "multiplier", "norm", "sio-check"]


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_readme_command_line_example_runs(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # the examples write out/ and verdict.json here
    assert main(argv) == EXIT_OK


def test_readme_quick_example_runs(capsys):
    exec(_block_after("Quick example:", "python"), {})
    value, modular, iterations = capsys.readouterr().out.split()
    assert float(value) > 0.0 and abs(float(modular) - 1.0) <= 1e-10
