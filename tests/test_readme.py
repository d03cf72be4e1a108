"""Every example that README.md shows runs as README says.

Each ``aamr ...`` line of README's plain fenced blocks runs through
``aamr.cli.main`` in a temporary directory that holds README's problem-file
JSON block as ``problem.json``, and must exit with the code that its
``# exit N`` comment states (and, where the comment quotes a message, print
it on stderr).  Each ``python`` block runs in a fresh namespace.

So that the ``aamr bench`` examples stay below desk scale, the test appends
``--n 10 --instances 2 --starts 2 --bins 2`` to them, each flag only where
the sweep reads its field (``Sweep.reads``): ``rates`` reads none of them and
runs as written.
"""

import re
import shlex
from pathlib import Path

import pytest

from aamr.bench import SWEEPS
from aamr.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.S | re.M)
COMMANDS = [line for lang, body in BLOCKS if not lang
            for line in body.splitlines() if line.startswith("aamr ")]
PROBLEMS = [body for lang, body in BLOCKS if lang == "json"]
PYTHON = [body for lang, body in BLOCKS if lang == "python"]

# SweepConfig field -> the size flag appended where the sweep reads the field
SIZE_FLAGS = {"n": ["--n", "10"], "n_instances": ["--instances", "2"],
              "n_starts": ["--starts", "2"], "angle_bins": ["--bins", "2"]}
STATED = re.compile(r'\s+# exit (\d+)(?:: (?:"([^"]*)"|.*))?$')


def test_readme_shows_one_problem_file_and_examples_of_every_command():
    assert len(PROBLEMS) == 1
    assert {line.split()[1] for line in COMMANDS} == {"solve", "angle", "bench"}
    assert {line.split()[2] for line in COMMANDS if line.split()[1] == "bench"} == set(SWEEPS)
    assert PYTHON


@pytest.mark.parametrize("line", COMMANDS, ids=[c.split("#")[0].strip() for c in COMMANDS])
def test_readme_command_exits_as_stated(line, tmp_path, monkeypatch, capsys):
    stated = STATED.search(line)
    assert stated, f"README states no exit code for: {line}"
    argv = shlex.split(line[:stated.start()])[1:]
    if argv[0] == "bench":
        reads = SWEEPS[argv[1]].reads
        argv += [part for field, flag in SIZE_FLAGS.items() if field in reads for part in flag]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "problem.json").write_text(PROBLEMS[0], encoding="utf-8")
    code = main(argv)
    err = capsys.readouterr().err
    assert code == int(stated.group(1)), err
    if stated.group(2):
        assert stated.group(2) in err


@pytest.mark.parametrize("block", PYTHON, ids=[f"block{i}" for i in range(len(PYTHON))])
def test_readme_python_block_runs(block, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})
