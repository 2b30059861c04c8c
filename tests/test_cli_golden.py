"""Recorded CLI outputs: stdout, stderr and exit code of ``main(argv)``.

Every command runs under plain, ``--json``, ``--latex`` and ``--json
--latex`` output, each with and without ``--normalize``; ``embed`` runs also
with ``--matrix``.  The towers are li, the nested tower of the ROADMAP, a
tower that ``--normalize`` shifts and a dependent tower, and two error cases
record a parse error and a missing file.  The commands run in a temporary
working directory on relative file names, so that messages do not name it.

After an intended change of the output, rewrite the fixture with

    PYTHONPATH=src python tests/test_cli_golden.py

and review its diff.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from towerdecomp.cli import main

FIXTURE = Path(__file__).with_name("cli_golden.json")

# name -> (tower file, expression)
TOWERS = {
    "li": (
        "var x\ngen t1 : log(x)\ngen t2 : prim 1/t1\ngen t3 : log(t1)\n",
        "1/(t1*t2) + (t2 - 2*x*t1)/t1^2 + t3",
    ),
    "nested": (
        "var x\ngen t1 : log(x)\ngen t2 : log(x*t1)\ngen t3 : log((x+1)*(t1+1)*t2)\n",
        "t3/x",
    ),
    "shift": (
        "var x\ngen t1 : log(x)\ngen t2 : prim 1/t1 + 1/t1^2\n",
        "t2/x + 1/t1",
    ),
    "dependent": (
        "var x\ngen t1 : log(x)\ngen t2 : log(x^2)\n",
        "1/x",
    ),
}

FLAGS = [[], ["--json"], ["--latex"], ["--json", "--latex"]]


def cases():
    """(id, argv) of every recorded run."""
    out = []
    for name, (_, expr) in TOWERS.items():
        tower = ["--tower", f"{name}.tower"]
        commands = [
            [cmd, *tower, "--expr", expr] for cmd in ("decomp", "integrate", "elementary")
        ]
        commands += [
            ["embed", *tower, "--expr", expr],
            ["embed", *tower, "--expr", expr, "--matrix"],
            ["matrix", *tower],
            ["check", *tower],
        ]
        for argv in commands:
            for normalize in ([], ["--normalize"]):
                for flags in FLAGS:
                    full = argv + flags + normalize
                    label = [f for f in full[3:] if f.startswith("--") and f != "--expr"]
                    out.append(("-".join([name, argv[0]] + [f[2:] for f in label]), full))
    out.append(("parse-error", ["decomp", "--tower", "li.tower", "--expr", "1/"]))
    out.append(("missing-file", ["check", "--tower", "missing.tower"]))
    return out


def write_towers(directory):
    for name, (text, _) in TOWERS.items():
        (Path(directory) / f"{name}.tower").write_text(text, encoding="utf-8")


def run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def regenerate():
    """Rewrite the fixture from the current code."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_towers(directory)
        os.chdir(directory)
        try:
            recorded = {key: dict(argv=argv, **run(argv)) for key, argv in cases()}
        finally:
            os.chdir(cwd)
    FIXTURE.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")


GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}


def test_fixture_covers_every_case():
    assert [key for key, _ in cases()] == list(GOLDEN)


@pytest.mark.parametrize("key", list(GOLDEN))
def test_cli_output_is_unchanged(key, tmp_path, monkeypatch):
    write_towers(tmp_path)
    monkeypatch.chdir(tmp_path)
    expected = GOLDEN[key]
    assert run(expected["argv"]) == {k: expected[k] for k in ("exit", "stdout", "stderr")}


if __name__ == "__main__":
    regenerate()
