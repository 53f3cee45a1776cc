"""The README's examples run: each line of its "Command line" block through
``cli.main``, and its Python "Quick example". Its config-key table and
defaults are those of ``cli``."""

import dataclasses
import json
import re
import shlex
from pathlib import Path

import pytest

from siolab.cli import COMMAND_KEYS, COMMON_KEYS, EXIT_OK, ExperimentConfig, main

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


def test_readme_config_key_table_is_the_cli_table():
    table = re.search(r"^Config keys by command[^|]*?\n\n((?:\|.*\n)+)", README,
                      re.MULTILINE)
    assert table
    rows = {}
    for line in table.group(1).splitlines()[2:]:
        command, keys = (cell.strip() for cell in line.strip("|").split("|"))
        rows[command.strip("`")] = tuple(re.findall(r"`(\w+)`", keys))
    assert rows == {**COMMAND_KEYS, "every command": COMMON_KEYS}


def test_readme_config_defaults_are_the_cli_defaults():
    defaults = json.loads(_block_after("Defaults (a value must have its default's type):",
                                       "json"))
    expected = dataclasses.asdict(ExperimentConfig())
    expected.pop("command")
    assert defaults == {**expected, "sizes": list(expected["sizes"])}
