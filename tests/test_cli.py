import contextlib
import decimal
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from towerdecomp import gcdheu, polys
from towerdecomp.arith import substitute
from towerdecomp.cli import main
from towerdecomp.exprio import (
    MAX_DEGREE,
    MAX_DIGITS,
    parse_expression,
    parse_tower_file,
    render_expression,
    render_latex,
    render_tower_file,
)
from towerdecomp.errors import ExprSyntaxError, UnknownName

from conftest import random_element

LI_TOWER = """\
# log x, its logarithmic integral, log log x
var x
gen t1 : log(x)
gen t2 : prim 1/t1
gen t3 : log(t1)
"""

NESTED_TOWER = """\
var x
gen t1 : log(x)
gen t2 : log(x*t1)
gen t3 : log((x+1)*(t1+1)*t2)
"""


@pytest.fixture
def li_file(tmp_path):
    path = tmp_path / "li.tower"
    path.write_text(LI_TOWER)
    return str(path)


@pytest.fixture
def nested_file(tmp_path):
    path = tmp_path / "nested.tower"
    path.write_text(NESTED_TOWER)
    return str(path)


def test_parse_expression_examples():
    T = parse_tower_file(LI_TOWER)
    x, t1, t2, t3 = T.gens
    f = parse_expression("1/(t1*t2) + (t2 - 2*x*t1)/t1^2 + t3", T)
    assert f.value == 1 / (t1 * t2) + (t2 - 2 * x * t1) / t1**2 + t3
    assert not parse_expression("0", T)
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("(x", T)
    assert err.value.offset == 2
    with pytest.raises(UnknownName):
        parse_expression("nope + 1", T)


def test_render_round_trip_random(rng):
    T = parse_tower_file(LI_TOWER)
    for _ in range(200):
        f = random_element(T, rng)
        text = render_expression(f, T.names)
        assert parse_expression(text, T).value == f


def test_negative_power_round_trip(li_file, capsys):
    """A negative power of a polynomial with a negative leading coefficient
    parses to the canonical element, whose text parses back to the same
    numerator and denominator."""
    T = parse_tower_file(LI_TOWER)
    for src in ["(0-x)^-1", "(1 - x*t1)^-2", "(-t2)^-3", "(0-2)^-1"]:
        f = parse_expression(src, T).value
        assert f.denom.LC > 0
        back = parse_expression(render_expression(f, T.names), T).value
        assert (back.numer, back.denom) == (f.numer, f.denom)
    assert main(["decomp", "--tower", li_file, "--expr", "(0-x)^-1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["input"] == "(-1)/(x)"


def test_decomp_command_text(li_file, capsys):
    code = main(
        ["decomp", "--tower", li_file, "--expr", "1/(t1*t2) + (t2 - 2*x*t1)/t1^2 + t3"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "r = 1/(t1*t2)" in out
    assert "integrable: no" in out


def test_decomp_renders_g_and_r_once(li_file, monkeypatch, capsys):
    """Without --latex the text lines and the --json fields are the same
    strings, so each of g and r is rendered once, not twice."""
    from towerdecomp import cli

    rendered = []

    def counting(value, names, _render=cli.render_expression):
        rendered.append(value)
        return _render(value, names)

    monkeypatch.setattr(cli, "render_expression", counting)
    expr = "1/(t1*t2) + (t2 - 2*x*t1)/t1^2 + t3"
    assert main(["decomp", "--tower", li_file, "--expr", expr]) == 0
    assert len(rendered) == 2
    out = capsys.readouterr().out
    assert "r = 1/(t1*t2)" in out


def test_decomp_command_json_schema(li_file, capsys):
    code = main(["decomp", "--tower", li_file, "--expr", "1/x", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"tower", "input", "g", "r", "integrable", "verified"}
    assert payload["integrable"] is True
    assert payload["verified"] is True
    assert payload["g"] == "t1"
    # expressions round-trip through the parser
    T = parse_tower_file(payload["tower"])
    assert parse_expression(payload["r"], T).value == T.F.zero


def test_integrate_command(li_file, capsys):
    assert main(["integrate", "--tower", li_file, "--expr", "1/x"]) == 0
    assert "integral = t1" in capsys.readouterr().out
    assert main(["integrate", "--tower", li_file, "--expr", "1/(t1*t2)"]) == 0
    out = capsys.readouterr().out
    assert "not integrable" in out and "remainder" in out


def test_elementary_command(li_file, capsys):
    code = main(
        [
            "elementary",
            "--tower",
            li_file,
            "--expr",
            "1/(t1*t2) + (t2 - 2*x*t1)/t1^2 + t3",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "elementary: yes" in out
    assert "1 * log(t2)" in out


def test_elementary_certificate_is_named_as_a_coefficient(li_file, capsys):
    """The residue of 1/(t1 + x) at t1 = -x is 1/t1' there, x/(x + 1); the
    certificate printed is the z^0 coefficient of the monic residue
    polynomial z - x/(x + 1), and the line calls it that."""
    assert main(["elementary", "--tower", li_file, "--expr", "1/(t1+x)"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "certificate (non-constant coefficient of the residue polynomial): (-x)/(x + 1)"
    )


def test_elementary_command_spans_after_the_witness(tmp_path, capsys):
    path = tmp_path / "prim.tower"
    path.write_text("var x\ngen t1 : prim 1/(x^2-2)\n")
    assert main(["elementary", "--tower", str(path), "--expr", "1/x + 1/(x^2-2)"]) == 0
    out = capsys.readouterr().out
    assert "elementary: yes" in out
    assert "1 * t1" in out and "1 * log(x)" in out


def test_check_command(li_file, capsys):
    assert main(["check", "--tower", li_file]) == 0
    assert "S-primitive: yes" in capsys.readouterr().out


def test_check_reports_dependence(tmp_path, capsys):
    path = tmp_path / "dep.tower"
    path.write_text("var x\ngen t1 : log(x)\ngen t2 : prim 2/x\n")
    assert main(["check", "--tower", str(path)]) == 0
    out = capsys.readouterr().out
    assert "S-primitive: no" in out
    assert "certificate" in out


@pytest.mark.parametrize(
    "tower, printed",
    [
        ("var x\ngen t1 : log(x)\ngen t2 : prim 2/x\n", "2"),
        (
            "var x\ngen t1 : log(x)\ngen t2 : log(x+1)\n"
            "gen t3 : prim 1/(2*x) - 3/(x+1)\n",
            "1/2, -3",
        ),
    ],
)
def test_check_prints_the_certificate_as_json_does(tower, printed, tmp_path, capsys):
    path = tmp_path / "dep.tower"
    path.write_text(tower)
    assert main(["check", "--tower", str(path)]) == 0
    assert f"dependence certificate: {printed}\n" in capsys.readouterr().out
    assert main(["check", "--tower", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"] == printed.split(", ")


def test_matrix_command(li_file, capsys):
    assert main(["matrix", "--tower", li_file]) == 0
    out = capsys.readouterr().out
    assert "1/(x)" in out
    assert main(["matrix", "--tower", li_file, "--latex"]) == 0
    assert "\\begin{pmatrix}" in capsys.readouterr().out


def test_embed_command(nested_file, capsys):
    assert main(["embed", "--tower", nested_file]) == 0
    out = capsys.readouterr().out
    assert "gen u5" in out
    assert "phi(t3) = u2 + u4 + u5" in out
    assert main(["embed", "--tower", nested_file, "--expr", "t3/x", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["w"] == 5
    assert payload["ell"] == [1, 3, 5]
    target = parse_tower_file(payload["target"])
    r = parse_expression(payload["r"], target)
    u = target.gens
    assert r.value == -u[1] / (u[0] + 1) - (u[1] + 1) / (u[0] * (u[1] + u[3]))


def test_exit_code_parse_error(li_file, capsys):
    assert main(["decomp", "--tower", li_file, "--expr", "(x"]) == 1
    assert "error" in capsys.readouterr().err


def test_exit_code_missing_file(capsys):
    assert main(["decomp", "--tower", "/nonexistent.tower", "--expr", "1"]) == 1


def test_exit_code_validation_error(tmp_path, capsys):
    path = tmp_path / "dep.tower"
    path.write_text("var x\ngen t1 : log(x)\ngen t2 : prim 2/x\n")
    assert main(["decomp", "--tower", str(path), "--expr", "1/x"]) == 2
    err = capsys.readouterr().err
    assert "not S-primitive" in err and "depend" in err


README_INPUT = "1/(t1*t2) + (t2 - 2*x*t1)/t1^2 + t3"


def test_failed_heuristic_gcd_exits_3(nested_file, monkeypatch, capsys):
    # with no evaluation point to try, the first gcd of two polynomials of
    # more than one term fails (on li every gcd of this input has a
    # one-term argument and never reaches the heuristic)
    monkeypatch.setattr(gcdheu, "HEU_GCD_MAX", 0)
    assert main(["decomp", "--tower", nested_file, "--expr", README_INPUT]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: heuristic gcd") and "Traceback" not in err


def test_exponent_overflow_exits_2(li_file, monkeypatch, capsys):
    # the parser's degree cap keeps every quick input far below 2**15, so
    # the bound is narrowed to 3, which the parser's x^5 then passes
    monkeypatch.setattr(polys, "EMAX", 3)
    assert main(["decomp", "--tower", li_file, "--expr", "1/x^5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: an exponent would pass 3") and "Traceback" not in err


def _last_line_of(script, *flags):
    """The last printed line of script, run in a fresh interpreter that
    imports towerdecomp from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env, check=True
    ).stdout
    return out.splitlines()[-1]


def test_a_command_loads_no_sympy_module(li_file):
    """Importing the package and running a command leave sympy unloaded."""
    script = (
        "import sys, towerdecomp, towerdecomp.cli\n"
        f"code = towerdecomp.cli.main(['decomp', '--tower', {li_file!r}, '--expr', {README_INPUT!r}])\n"
        "loaded = [m for m in sys.modules if m == 'sympy' or m.startswith('sympy.')]\n"
        "print(code, loaded)\n"
    )
    assert _last_line_of(script) == "0 []"


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("decomp", []),
        ("integrate", []),
        ("elementary", ["towerdecomp.elem"]),
        ("embed", ["towerdecomp.elem", "towerdecomp.embed"]),
        ("matrix", ["towerdecomp.embed"]),
        ("check", ["towerdecomp.embed"]),
    ],
)
def test_a_command_loads_only_the_layers_it_runs(command, loaded, li_file, nested_file):
    """elem and embed load only for the commands that call them (embed
    --expr recovers log arguments through elem's residues)."""
    argv = ["--tower", nested_file if command == "embed" else li_file, "--expr", "1/(x*t1)"]
    script = (
        "import sys, towerdecomp.cli\n"
        f"code = towerdecomp.cli.main([{command!r}] + {argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m in ('towerdecomp.elem', 'towerdecomp.embed')))\n"
    )
    assert _last_line_of(script) == f"0 {loaded}"


def test_no_module_loads_dataclasses():
    """With the site hooks off, importing every module of the package
    leaves the standard library's dataclasses unloaded."""
    modules = sorted(p.stem for p in Path(gcdheu.__file__).parent.glob("*.py") if p.stem != "__init__")
    assert {"cli", "elem", "embed", "tower"} <= set(modules)
    script = (
        "import importlib, sys\n"
        f"for m in {modules!r}: importlib.import_module('towerdecomp.' + m)\n"
        "print('dataclasses' in sys.modules)\n"
    )
    assert _last_line_of(script, "-S") == "False"


def test_package_names_resolve_on_first_use():
    """The package loads elem and embed when one of their names is first
    read, and still exports every name of __all__ to every kind of lookup."""
    script = (
        "import sys, towerdecomp as td\n"
        "def loaded(): return sorted(m for m in sys.modules if m in ('towerdecomp.elem', 'towerdecomp.embed'))\n"
        "assert loaded() == []\n"
        "assert set(td.__all__) <= set(dir(td)) and loaded() == []\n"
        "assert td.YES == 'yes' and loaded() == ['towerdecomp.elem']\n"
        "namespace = {}\n"
        "exec('from towerdecomp import *', namespace)\n"
        "namespace.pop('__builtins__')\n"
        "assert sorted(namespace) == sorted(td.__all__)\n"
        "assert namespace['embed_well_generated'] is sys.modules['towerdecomp.embed'].embed_well_generated\n"
        "assert td.elem.ElementaryVerdict is td.ElementaryVerdict\n"
        "assert td.embed.normalize_tower is td.normalize_tower\n"
        "assert all(getattr(td, name) is not None for name in td.__all__)\n"
        "try:\n"
        "    td.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
        "print(len(namespace))\n"
    )
    assert _last_line_of(script) == "30"


# towers with at most one generator, and an expression over each
DEGENERATE_TOWERS = {
    "base-only": ("var x\n", "1/x + x"),
    "one-log": ("var x\ngen t1 : log(x)\n", "1/(x*t1) + t1"),
    "one-prim": ("var x\ngen t1 : prim 1/(x^2 + 1)\n", "t1/(x^2 + 1)"),
}


@pytest.mark.parametrize("tower", sorted(DEGENERATE_TOWERS))
@pytest.mark.parametrize("command", ["decomp", "integrate", "elementary", "embed", "matrix", "check"])
def test_every_command_is_total_on_degenerate_towers(tower, command, tmp_path):
    text, expr = DEGENERATE_TOWERS[tower]
    path = tmp_path / f"{tower}.tower"
    path.write_text(text)
    for flags in ([], ["--json"], ["--latex"], ["--normalize"]):
        argv = [command, "--tower", str(path), "--expr", expr, *flags]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue(), (argv, code)


def test_embed_a_tower_without_generators(tmp_path, capsys):
    path = str(tmp_path / "x.tower")
    Path(path).write_text("var x\n")
    for extra in ([], ["--expr", "1/x"], ["--latex"], ["--matrix"]):
        assert main(["embed", "--tower", path, *extra]) == 0, extra
        out = capsys.readouterr().out
        assert out.startswith("already well generated; identity embedding\nvar x\n")
    assert main(["embed", "--tower", path, "--expr", "1/x", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["w"] == 0 and payload["ell"] == [] and payload["images"] == {}
    assert payload["target"] == "var x\n" and payload["r"] == "1/(x)"


def test_embed_a_tower_whose_base_is_named_u1(tmp_path, capsys):
    """The target's generators are v1, v2, since u1 names the base."""
    text = "var u1\ngen t1 : log(u1)\ngen t2 : log(t1)\n"
    path = tmp_path / "u1.tower"
    path.write_text(text)
    assert main(["embed", "--tower", str(path), "--expr", "1/u1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    target = parse_tower_file(payload["target"])
    assert target.names == ["u1", "v1", "v2"]
    assert payload["g"] == "v1" and payload["r"] == "0"
    source = parse_tower_file(text)
    images = [parse_expression(payload["images"][t], target).value for t in ("t1", "t2")]
    values = [target.gens[0]] + images
    for img, d in zip(images, source.derivs):
        assert target.diff(img) == substitute(d, target.F, values)


def test_normalize_flag(tmp_path, capsys):
    path = tmp_path / "ns.tower"
    path.write_text("var x\ngen t1 : log(x)\ngen t2 : prim 1/t1^2\n")
    assert main(["decomp", "--tower", str(path), "--expr", "1/t1"]) == 2
    capsys.readouterr()
    assert main(["decomp", "--tower", str(path), "--expr", "1/t1", "--normalize"]) == 0
    out = capsys.readouterr().out
    assert "shift t2: (-x)/(t1)" in out
    assert "g = t2" in out


def test_normalize_flag_reads_expr_in_the_file_tower(tmp_path, capsys):
    # the shift makes u2 = t2 + x/t1, so the file's t2 is u2 - x/t1
    path = tmp_path / "ns.tower"
    path.write_text("var x\ngen t1 : log(x)\ngen t2 : prim 1/t1^2\n")
    args = ["decomp", "--tower", str(path), "--expr", "t2", "--normalize", "--json"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["input"] == "(-x + t1*t2)/(t1)"
    assert payload["g"] == "x*t2" and payload["r"] == "(-2*x)/(t1)"


@pytest.mark.parametrize("command", ["embed", "check"])
def test_normalize_keeps_a_log_tower_logarithmic(nested_file, capsys, command):
    """The nested tower needs no shift, so --normalize changes nothing."""
    argv = [command, "--tower", nested_file]
    if command == "embed":
        argv += ["--expr", "t3/x"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--normalize"]) == 0
    assert capsys.readouterr().out == plain


def test_embed_expr_keeps_its_meaning_after_normalization(tmp_path, capsys):
    # normalize_tower rewrites t3 = log((x+1)*t1) as t3 - t2 = log(x+1) and
    # moves it below t2; --expr still means the file's generators
    path = tmp_path / "coupled.tower"
    path.write_text(
        "var x\ngen t1 : log(x)\ngen t2 : log(t1)\ngen t3 : log((x+1)*t1)\n"
    )
    assert main(["embed", "--tower", str(path), "--expr", "t3"]) == 0
    out = capsys.readouterr().out
    assert "normalization steps: 2" in out
    assert "phi(f) = u2 + u3" in out
    assert main(["embed", "--tower", str(path), "--expr", "t3 - t2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["image"] == "u2"


def test_latex_output(li_file, capsys):
    assert main(
        ["decomp", "--tower", li_file, "--expr", "1/t1^2", "--latex"]
    ) == 0
    assert "\\frac" in capsys.readouterr().out


def test_tower_file_errors():
    with pytest.raises(ExprSyntaxError):
        parse_tower_file("gen t1 : log(x)\n")
    with pytest.raises(ExprSyntaxError):
        parse_tower_file("var x\ngen t1 : exp(x)\n")
    with pytest.raises(ExprSyntaxError):
        parse_tower_file("var x\ngen t1 : log(t1)\n")


INPUT_ERRORS = {
    "division-by-zero": (LI_TOWER, "1/0", 1, "division by zero at offset 1"),
    "non-integer-exponent": (LI_TOWER, "x^t1", 1, "expected integer exponent at offset 2"),
    "reserved-name": ("var x\ngen log : log(x)\n", "x", 1, "line 2: reserved name 'log'"),
    "empty-file": ("", "x", 1, "empty tower file: missing 'var <name>' header"),
    "comment-only-file": ("# nothing\n\n", "x", 1, "empty tower file"),
    "base-name-reused": ("var x\ngen x : log(x)\n", "x", 1, "duplicate variable names in tower file"),
    "log-of-zero": ("var x\ngen t1 : log(0)\n", "x", 1, "line 2: logarithm of zero"),
    "zero-derivative": ("var x\ngen t1 : prim 0\n", "x", 2, "derivative of t1 is zero"),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_errors_exit_with_their_message(case, tmp_path, capsys):
    text, expr, code, message = INPUT_ERRORS[case]
    path = tmp_path / "case.tower"
    path.write_text(text)
    assert main(["decomp", "--tower", str(path), "--expr", expr]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_tower_file_round_trip():
    T = parse_tower_file(NESTED_TOWER)
    T2 = parse_tower_file(render_tower_file(T))
    assert T2.derivs == T.derivs


def test_render_latex_shape():
    T = parse_tower_file(LI_TOWER)
    x, t1 = T.gens[0], T.gens[1]
    assert render_latex(1 / t1**2, T.names) == "\\frac{1}{t1^{2}}"


def test_exit_code_tower_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.tower"
    path.write_bytes(b"var x\ngen t1 : log(x)  # \xe9\n")
    assert main(["check", "--tower", str(path)]) == 1
    err = capsys.readouterr().err
    assert "not UTF-8 text (byte 25)" in err and "Traceback" not in err


def test_a_tower_file_may_start_with_a_byte_order_mark(nested_file, tmp_path, capsys):
    path = tmp_path / "bom.tower"
    path.write_bytes(b"\xef\xbb\xbf" + NESTED_TOWER.encode())
    assert main(["embed", "--tower", nested_file, "--expr", "t3/x"]) == 0
    plain = capsys.readouterr().out
    assert main(["embed", "--tower", str(path), "--expr", "t3/x"]) == 0
    assert capsys.readouterr().out == plain
    # a bad byte after the mark is reported at its offset in the file
    path.write_bytes(b"\xef\xbb\xbfvar x\n\xe9\n")
    assert main(["check", "--tower", str(path)]) == 1
    assert "not UTF-8 text (byte 9)" in capsys.readouterr().err


def test_exit_code_deeply_nested_expression(li_file, capsys):
    depth = 5000
    expr = "(" * depth + "x" + ")" * depth
    assert main(["decomp", "--tower", li_file, "--expr", expr]) == 1
    assert "nested deeper than" in capsys.readouterr().err
    T = parse_tower_file(LI_TOWER)
    x = T.gens[0]
    assert parse_expression("(" * 100 + "x" + ")" * 100, T).value == x
    assert parse_expression("-" * depth + "x", T).value == x


def test_log_argument_must_be_one_parenthesized_expression(tmp_path, capsys):
    # log(x)*(x+1) is not log(x*(x+1)): the factor lies outside the logarithm
    path = tmp_path / "bad.tower"
    path.write_text("var x\ngen t1 : log(x)*(x+1)\n")
    assert main(["check", "--tower", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 2: log argument must be one parenthesized expression" in err
    for rest in ["x", "(x))", "((x)", "(x)(x)"]:
        with pytest.raises(ExprSyntaxError, match="one parenthesized"):
            parse_tower_file(f"var x\ngen t1 : log{rest}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["decomp", "--expr", "1/x"],
        ["integrate", "--expr", "1/x"],
        ["embed", "--expr", "t3/x"],
    ],
)
def test_exit_code_internal_verification(argv, nested_file, monkeypatch, capsys):
    # the library's remainder check is the one that guards printed results
    monkeypatch.setattr(
        "towerdecomp.decomp._is_remainder_value", lambda T, r, simple: (False, "forced")
    )
    assert main(argv + ["--tower", nested_file]) == 3
    captured = capsys.readouterr()
    assert "internal error:" in captured.err and "forced" in captured.err
    assert not captured.out


def test_zero_to_the_zero_in_expr_exits_1(li_file, capsys):
    assert main(["decomp", "--tower", li_file, "--expr", "0^0"]) == 1
    err = capsys.readouterr().err
    assert "zero to a non-positive power" in err and "Traceback" not in err
    T = parse_tower_file(LI_TOWER)
    for text in ["(x-x)^0", "0^-0", "0^-2"]:
        with pytest.raises(ExprSyntaxError, match="non-positive power"):
            parse_expression(text, T)
    assert parse_expression("x^0 + 0^1", T).value == T.F.one


def test_zero_to_the_zero_in_tower_file_exits_1(tmp_path, capsys):
    path = tmp_path / "zero.tower"
    path.write_text("var x\ngen t1 : log(x+0^0)\n")
    assert main(["check", "--tower", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 2:" in err and "zero to a non-positive power" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("expr", ["t1^5000", "(x+1)^200000"])
def test_degree_above_cap_in_expr_exits_1_at_once(expr, li_file, capsys):
    start = time.perf_counter()
    assert main(["decomp", "--tower", li_file, "--expr", expr]) == 1
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert f"degree above {MAX_DEGREE}" in err and "Traceback" not in err


def test_degree_cap_covers_products_and_tower_files(tmp_path, capsys):
    T = parse_tower_file(LI_TOWER)
    x, t1 = T.gens[:2]
    half = MAX_DEGREE // 2 + 1
    assert parse_expression(f"t1^{MAX_DEGREE}", T).value == t1**MAX_DEGREE
    assert parse_expression(f"x^-{MAX_DEGREE}", T).value == x**-MAX_DEGREE
    for text in [
        f"t1^{MAX_DEGREE + 1}",
        f"(x*t1)^-{MAX_DEGREE + 1}",
        f"t1^{half}*t1^{half}",
        f"x^{half}/x^{half}",
        f"(t1^{half} + 1)*(t1 + x)^{half}",
    ]:
        with pytest.raises(ExprSyntaxError, match="degree above"):
            parse_expression(text, T)
    path = tmp_path / "deg.tower"
    path.write_text("var x\ngen t1 : log(x)\ngen t2 : prim 1/t1^5000\n")
    assert main(["check", "--tower", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 3:" in err and "degree above" in err


@pytest.mark.parametrize(
    "expr",
    [
        "9^5000",
        "7" * 5000,
        "x^" + "9" * 5000,
        "2^-" + "9" * MAX_DIGITS,
        "9^4000*9^4000",
        "1/9^3000 + 1/7^3000",
    ],
    ids=["power", "literal", "exponent", "negative-exponent", "product", "sum"],
)
def test_constant_above_digit_cap_exits_1(expr, li_file, capsys):
    start = time.perf_counter()
    assert main(["decomp", "--tower", li_file, "--expr", expr]) == 1
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert f"integer above {MAX_DIGITS} digits" in err and "Traceback" not in err


def test_digit_cap_admits_constants_up_to_the_cap(tmp_path, capsys):
    T = parse_tower_file(LI_TOWER)
    x = T.gens[0]
    assert parse_expression("7" * MAX_DIGITS, T).value == int("7" * MAX_DIGITS)
    # 2^14284 has 4300 digits, 2^14288 has 4301
    assert parse_expression("2^-14284", T).value == T.F.one / 2**14284
    with pytest.raises(ExprSyntaxError, match="digits"):
        parse_expression("2^14288", T)
    assert parse_expression("1^" + "9" * MAX_DIGITS + " + x", T).value == x + 1
    path = tmp_path / "big.tower"
    path.write_text("var x\ngen t1 : log(x + 9^5000)\n")
    assert main(["check", "--tower", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 2:" in err and "digits" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["decomp", "integrate", "elementary"])
def test_nested_readme_reproducer_exits_0(command, nested_file, capsys):
    # f = 1/t3 + t3': in the pass for the head monomial 1 the level-3 part
    # 1/t3 stays out of the span test on the levels below
    expr = "1/t3 + 1/(x+1) + 1/(x*(t1+1)) + (1/x + 1/(x*t1))/t2"
    assert main([command, "--tower", nested_file, "--expr", expr, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    T = parse_tower_file(NESTED_TOWER)
    t3 = T.gens[3]
    if command == "decomp":
        assert parse_expression(payload["g"], T).value == t3
        assert parse_expression(payload["r"], T).value == 1 / t3
    elif command == "integrate":
        assert payload["integrable"] is False
        assert parse_expression(payload["remainder"], T).value == 1 / t3
    else:
        # 1/t3 has the non-constant residue 1/t3' at t3 = 0
        assert payload["status"] == "no"


def test_expr_may_start_with_minus(li_file, capsys):
    assert main(["integrate", "--tower", li_file, "--expr", "-x"]) == 0
    assert capsys.readouterr().out == "integral = (-x^2)/(2)\n"
    assert main(["integrate", "--tower", li_file, "--expr", "-1/t1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["integral"] == "-t2"


@pytest.mark.parametrize("argv", [["--expr", "--"], ["--expr=--"]], ids=["apart", "joined"])
def test_a_lone_double_dash_is_the_expression(argv, li_file, capsys):
    """argparse drops a lone "--" from an option's value; the text "--" is
    still what is parsed, and its error is where that text ends."""
    assert main(["decomp", "--tower", li_file] + argv) == 1
    err = capsys.readouterr().err
    assert err == "error: unexpected end of input at offset 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["decomp", "--expr", "1/x"],
        ["decomp", "--tower", "li.tower", "--expr"],
        ["decomp", "--tower", "li.tower"],
        ["check", "--tower", "li.tower", "--matrix"],
        ["differentiate", "--tower", "li.tower"],
        [],
    ],
    ids=[
        "missing-tower",
        "missing-expr-value",
        "missing-expr",
        "matrix-outside-embed",
        "unknown-command",
        "no-command",
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_the_module_run_exits_with_mains_code(tmp_path):
    """``python -m towerdecomp.cli`` passes main's exit code to the shell."""
    path = tmp_path / "dep.tower"
    path.write_text("var x\ngen t1 : log(x)\ngen t2 : prim 2/x\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "towerdecomp.cli", "decomp", "--tower", str(path), "--expr", "1/x"]
    out = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert out.returncode == 2 and "not S-primitive" in out.stderr


def test_help_exits_0(capsys):
    for argv in (["--help"], ["embed", "--help"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "{decomp,integrate,elementary,embed,matrix,check}" in out
        for flag in ["--tower", "--expr", "--json", "--latex", "--normalize", "--matrix"]:
            assert flag in out


def test_results_above_the_digit_limit_print_in_full(li_file, capsys):
    # r = c^2/(x + c) has 6 000 digits, above the interpreter's int/str
    # limit; main lifts that limit for its command and restores it
    c = int("7" * 3000)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert main(["decomp", "--tower", li_file, "--expr", f"x^2/(x + {'7' * 3000})", "--json"]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    payload = json.loads(capsys.readouterr().out)
    # Decimal prints an int without the int/str limit
    assert payload["r"] == f"{decimal.Decimal(c * c)}/(x + {'7' * 3000})"


SHIFT_TOWER = "var x\ngen t1 : log(x)\ngen t2 : prim 1/t1 + 1/t1^2\n"

# names, digits, operators, a space and two characters outside the grammar;
# an exponent keeps one digit (see _one_digit_exponents)
_FUZZ_TOKENS = ["x", "t1", "t2", "t3", *"0123456789", *"+-*/^()", " ", "@", "q"]


def _one_digit_exponents(text):
    return re.sub(r"(\^\s*-?\s*\d)\d+", r"\1", text)


fuzz_texts = (
    st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=12)
    .map("".join)
    .map(_one_digit_exponents)
)


@pytest.fixture(scope="module")
def fuzz_argvs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    files = {}
    for name, text in [("li", LI_TOWER), ("nested", NESTED_TOWER), ("shift", SHIFT_TOWER)]:
        files[name] = str(directory / f"{name}.tower")
        (directory / f"{name}.tower").write_text(text)
    argvs = [
        [cmd, "--tower", files[name]]
        for cmd in ("decomp", "integrate", "elementary")
        for name in ("li", "nested")
    ]
    argvs.append(["embed", "--tower", files["nested"]])
    argvs.append(["decomp", "--tower", files["shift"], "--normalize"])
    return argvs


@given(text=fuzz_texts, minus=st.booleans())
def test_cli_text_ends_with_exit_0_or_1(text, minus, fuzz_argvs):
    """Any short text over the grammar's alphabet, with or without a leading
    "-", ends every command with exit 0 or 1 and no escaping exception.

    This checks exit codes only, not ROADMAP 5's time bound: with no cap on
    the number of terms, 1/(t1+x)^100 on li still runs past 100 s in decomp
    and 1/(t3+x)^9 on nested past 60 s, so exponents here keep one digit and
    the derandomized examples stay fast.
    """
    expr = "-" + text if minus else text
    for argv in fuzz_argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv + ["--expr", expr]) in (0, 1), (argv, expr)


# the tower-file grammar's alphabet: keywords, the separator, names, digits,
# operators, a comment mark, newlines, spaces and a byte-order mark
_TOWER_FILE_TOKENS = [
    "var", "gen", ":", "log(", "prim", "x", "t1", "t2", "y",
    *"0123456789", *"+-*/^()", "#", "\n", " ", "\ufeff",
]
_NAMES = ["x", "t1", "t2", "y"]


@st.composite
def tower_file_texts(draw):
    """A header and up to three generator lines of distinct names, each a
    log or a prim of a short expression over the names above, with up to
    four tokens of the alphabet spliced in anywhere; one-digit exponents."""
    token = st.sampled_from(_TOWER_FILE_TOKENS)
    atom = st.sampled_from(_NAMES + ["1", "2", "(x+1)", "(t1-3)"])
    op = st.sampled_from(["+", "-", "*", "/", "^2", ""])
    lines = [draw(st.sampled_from(["var x", "var x", "var x", "var y", "var"]))]
    names = draw(st.permutations(["t1", "t2", "y", "x"]))
    for name in names[: draw(st.integers(0, 3))]:
        body = draw(atom) + "".join(
            draw(op) + draw(atom) for _ in range(draw(st.integers(0, 3)))
        )
        if draw(st.booleans()):
            lines.append(f"gen {name} : log({body})")
        else:
            lines.append(f"gen {name} : prim {body}")
    text = "\n".join(lines)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(token) + text[at:]
    return _one_digit_exponents(text)


@given(text=tower_file_texts())
def test_tower_file_text_ends_with_exit_0_to_3(text, tmp_path_factory):
    """Any short tower-file text over the file grammar's alphabet ends
    ``check`` and ``decomp --expr x`` with an exit code in 0-3 and no
    escaping exception.  Exponents keep one digit, as in the text fuzz
    above."""
    path = tmp_path_factory.getbasetemp() / "fuzz.tower"
    path.write_text(text, encoding="utf-8")
    for argv in (["check"], ["decomp", "--expr", "x"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv + ["--tower", str(path)]) in (0, 1, 2, 3), (argv, text)
