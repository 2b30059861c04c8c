import json
import time

import pytest

from towerdecomp.cli import main
from towerdecomp.exprio import (
    MAX_DEGREE,
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


def test_decomp_command_text(li_file, capsys):
    code = main(
        ["decomp", "--tower", li_file, "--expr", "1/(t1*t2) + (t2 - 2*x*t1)/t1^2 + t3"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "r = 1/(t1*t2)" in out
    assert "integrable: no" in out


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
    assert "UTF-8" in err and "Traceback" not in err


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
        "towerdecomp.decomp._is_remainder_value", lambda T, r: (False, "forced")
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
