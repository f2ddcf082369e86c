"""Every `pennylab ...` command in the README's usage blocks runs and exits 0."""

import pathlib
import shlex

import pytest

from pennylab.cli import COMMANDS, main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands():
    """The `pennylab` lines of the README's ```bash blocks, trailing comments dropped."""
    commands, fenced = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = line == "```bash"
        elif fenced and line.startswith("pennylab "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


EXAMPLES = _readme_commands()


def test_the_readme_shows_every_command():
    assert {argv[0] for argv in EXAMPLES} == set(COMMANDS)


@pytest.mark.parametrize("argv", EXAMPLES, ids=[" ".join(argv) for argv in EXAMPLES])
def test_readme_command_runs(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if "--out" in argv:
        artifact = tmp_path / argv[argv.index("--out") + 1]
        assert artifact.read_text() and out == ""
    else:
        assert out
