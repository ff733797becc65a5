"""The README's Python and command-line examples run as written."""

import contextlib
import io
import re
import shlex

import pytest

from conftest import README, readme_blocks, run_cli

# Subcommands whose README output shows only the header line.
ABRIDGED = ("simulate", "dispersion")


def test_readme_python_blocks_run():
    blocks = readme_blocks("python")
    assert blocks
    for source in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def readme_cli_examples():
    """(files, argv, shown output) for each `$ discretum` line in sh blocks.

    The lines after a `$ cat NAME` are the file NAME, which later commands
    of the same block read; the lines after a `$ discretum ...` are its
    stdout as the README shows it.
    """
    examples = []
    for block in readme_blocks("sh"):
        files = {}
        for command, shown in re.findall(r"^\$ (.*)\n((?:(?!\$ ).*\n)*)",
                                         block, flags=re.M):
            argv = shlex.split(command)
            if argv[0] == "cat":
                files[argv[1]] = shown
            else:
                assert argv[0] == "discretum", command
                examples.append((dict(files), argv[1:], shown))
    return examples


EXAMPLES = readme_cli_examples()


def test_readme_shows_every_subcommand():
    assert [argv[0] for _, argv, _ in EXAMPLES] == [
        "fold", "processes", "thermalize", "simulate", "dispersion",
        "cutoff", "commutator", "planck"]


@pytest.mark.parametrize("files,argv,shown", EXAMPLES,
                         ids=[argv[0] for _, argv, _ in EXAMPLES])
def test_readme_cli_example(tmp_path, monkeypatch, files, argv, shown):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    status, out, err = run_cli(*argv)
    assert (status, err) == (0, "")
    if argv[0] in ABRIDGED:
        assert shown.count("\n") == 1
        assert out.split("\n", 1)[0] + "\n" == shown
    else:
        assert out == shown
