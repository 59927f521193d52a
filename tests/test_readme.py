"""The README's examples run as written.

A flag or scenario key the program no longer takes fails here instead
of staying in the docs.
"""

import dataclasses
import pathlib
import re
import shlex

import pytest

from crowdmw.cli import main
from crowdmw.harness import ConfigError, parse_scenario, run_scenario

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _block_after(heading):
    """The body of the first fenced block after a ``## `` heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def _cli_lines():
    return [shlex.split(line, comments=True)[1:]
            for line in _block_after("CLI").splitlines()
            if line.startswith("crowdmw ")]


def test_readme_also_recognized_keys_parse():
    # A value may be out of range for a key; the key itself must be known.
    text = README.read_text(encoding="utf-8")
    sentence = text.split("\nAlso recognized: ", 1)[1].split(".\n", 1)[0]
    keys = re.findall(r"`(\w+)`", sentence)
    assert "override_leader" in keys
    for key in keys:
        try:
            parse_scenario(f"{key} = 1")
        except ConfigError as exc:
            assert "unknown key" not in str(exc)


def test_readme_scenario_example_runs(tmp_path):
    config = parse_scenario(_block_after("Scenario files"))
    assert config.nodes == 4 and config.faults
    report = run_scenario(dataclasses.replace(config, cycles=2),
                          str(tmp_path / "store.journal"))
    assert report.reconciliation.conserves()


@pytest.mark.parametrize("argv", [
    argv for argv in _cli_lines() if "lossy.scn" not in argv
], ids=" ".join)
def test_readme_cli_line_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_readme_cli_block_is_found():
    assert len(_cli_lines()) >= 5
