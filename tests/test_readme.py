"""The README's examples run as shown: its six command lines exit 0, the
first prints exactly the three lines the README shows, and the library
snippet runs.  Every finer-grained name the README documents resolves in
its module."""

import importlib
import re
import shlex
from pathlib import Path

from towerdecomp.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"```(\w*)\n(.*?)```", README, re.S)


def _block(lang, start):
    """The first fenced block in language lang whose text starts with start."""
    return next(text for kind, text in BLOCKS if kind == lang and text.startswith(start))


def test_readme_commands_exit_0_and_decomp_prints_the_readme_lines(
    tmp_path, monkeypatch, capsys
):
    (tmp_path / "li.tower").write_text(_block("", "# log x"))
    (tmp_path / "nested.tower").write_text(_block("", "var x\ngen t1 : log(x)\ngen t2"))
    monkeypatch.chdir(tmp_path)
    commands = _block("", "towerdecomp ").splitlines()
    assert [shlex.split(c)[1] for c in commands] == [
        "decomp", "integrate", "elementary", "embed", "matrix", "check",
    ]
    outputs = []
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == _block("", "g = ")


def test_readme_library_snippet_runs():
    namespace = {}
    exec(_block("python", "from towerdecomp"), namespace)
    assert namespace["dec"].r and namespace["verdict"].status == "yes"


# the finer-grained names the README documents, by module
DOCUMENTED = {
    "hermite": ["hermite_reduce_proper_value"],
    "matryoshka": ["project_value", "head_data_value", "order_key_value", "is_simple_value"],
    "exprio": [
        "parse_tower_file",
        "parse_expression",
        "render_expression",
        "render_latex",
        "render_tower_file",
    ],
    "embed": ["normalization_images"],
}


def test_readme_finer_grained_names_resolve():
    for module, names in DOCUMENTED.items():
        mod = importlib.import_module(f"towerdecomp.{module}")
        assert f"`towerdecomp.{module}" in README, module
        for name in names:
            assert re.search(rf"`[\w.]*\b{name}\b", README), name
            assert callable(getattr(mod, name, None)), f"towerdecomp.{module}.{name}"
