"""Text formats: the expression grammar, tower files, and LaTeX rendering.

Expression grammar (integers, names, + - * / ^ with integer exponents,
parentheses, unary minus; * and / bind tighter than + and -, ^ tighter than
both, left associativity for - and /):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ["^" ["-"] integer]
    atom   := integer | name | "(" expr ")"

Parentheses may nest at most ``MAX_DEPTH`` deep, and a power or product
whose degree in some variable could exceed ``MAX_DEGREE`` is rejected before
it is formed.

Tower files are line oriented: a `var <name>` header, then one
`gen <name> : log(<expr>)` or `gen <name> : prim <expr>` per generator,
with `#` comments.  Rendering is canonical; parsing a rendered expression
gives back the identical element.
"""

from __future__ import annotations

import re

from .arith import ground
from .errors import ExprSyntaxError, UnknownName
from .tower import LOG, Tower, TowerBuilder

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^()]))")

# Parentheses nest through five parser frames each; this cap keeps the
# recursion far below the interpreter's limit.
MAX_DEPTH = 100

# Degree bound for powers and products, counted per variable over numerator
# and denominator; far above any expression of the documented examples, and
# low enough that no single power or product takes long to form.
MAX_DEGREE = 1000


def _degrees(value):
    """Per variable, the larger of the numerator's and denominator's degree."""
    return [max(a, b, 0) for a, b in zip(value.numer.degrees(), value.denom.degrees())]


def _check_degree(degrees, off):
    if max(degrees, default=0) > MAX_DEGREE:
        raise ExprSyntaxError(f"degree above {MAX_DEGREE}", offset=off)


class _Parser:
    def __init__(self, src, env, F):
        self.src = src
        self.env = env
        self.F = F
        self.depth = 0
        self.tokens = []
        self._tokenize()
        self.idx = 0

    def _tokenize(self):
        pos = 0
        while pos < len(self.src):
            m = _TOKEN_RE.match(self.src, pos)
            if not m:
                stripped = self.src[pos:].lstrip()
                if not stripped:
                    break
                at = len(self.src) - len(stripped)
                raise ExprSyntaxError(
                    f"unexpected character {stripped[0]!r}", offset=at
                )
            kind = "int" if m.group(1) else ("name" if m.group(2) else "op")
            text = m.group(1) or m.group(2) or m.group(3)
            self.tokens.append((kind, text, m.end() - len(text)))
            pos = m.end()
        self.tokens.append(("end", "", len(self.src)))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", offset=off)
        return self.next()

    def parse(self):
        value = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r}", offset=off)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                rhs = self.factor()
                _check_degree(
                    [a + b for a, b in zip(_degrees(value), _degrees(rhs))], off
                )
                if text == "*":
                    value = value * rhs
                else:
                    if not rhs:
                        raise ExprSyntaxError("division by zero", offset=off)
                    value = value / rhs
            else:
                return value

    def factor(self):
        negate = False
        while self.peek()[:2] == ("op", "-"):
            self.next()
            negate = not negate
        value = self.power()
        return -value if negate else value

    def power(self):
        value = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.next()
            sign = 1
            kind2, text2, off2 = self.peek()
            if kind2 == "op" and text2 == "-":
                self.next()
                sign = -1
                kind2, text2, off2 = self.peek()
            if kind2 != "int":
                raise ExprSyntaxError("expected integer exponent", offset=off2)
            self.next()
            e = sign * int(text2)
            if e <= 0 and not value:
                raise ExprSyntaxError("zero to a non-positive power", offset=off)
            _check_degree([abs(e) * k for k in _degrees(value)], off)
            value = value**e
        return value

    def atom(self):
        kind, text, off = self.next()
        if kind == "int":
            return ground(self.F, int(text))
        if kind == "name":
            if text not in self.env:
                raise UnknownName(f"unknown name {text!r}", offset=off)
            return self.env[text]
        if kind == "op" and text == "(":
            if self.depth == MAX_DEPTH:
                raise ExprSyntaxError(
                    f"parentheses nested deeper than {MAX_DEPTH}", offset=off
                )
            self.depth += 1
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ExprSyntaxError(
            f"unexpected {text!r}" if text else "unexpected end of input",
            offset=off,
        )


def _scope_env(scope: Tower):
    return dict(zip(scope.names, scope.gens))


def parse_expression(src: str, scope: Tower):
    """Parse src against a tower's variables; returns a TowerElement."""
    value = _Parser(src, _scope_env(scope), scope.F).parse()
    return scope.element(value)


# -- rendering ---------------------------------------------------------------


def _render_poly(p, names, latex=False):
    if not p:
        return "0"
    parts = []
    for mono, coeff in sorted(p.terms(), reverse=True):
        factors = []
        for i, e in enumerate(mono):
            if not e:
                continue
            if e == 1:
                factors.append(names[i])
            elif latex:
                factors.append(f"{names[i]}^{{{e}}}")
            else:
                factors.append(f"{names[i]}^{e}")
        num = int(coeff.numerator)
        den = int(coeff.denominator)
        sign = "-" if num < 0 else "+"
        num = abs(num)
        if den != 1 and latex:
            body = "\\cdot ".join(factors)
            text = f"\\frac{{{num}}}{{{den}}}" + (f"\\, {body}" if body else "")
        else:
            if num != 1 or den != 1 or not factors:
                factors = [f"{num}/{den}" if den != 1 else str(num)] + factors
            text = ("\\cdot " if latex else "*").join(factors)
        parts.append((sign, text))
    first_sign, first = parts[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, text in parts[1:]:
        out += f" {sign} {text}"
    return out


def render_expression(value, names) -> str:
    """Canonical text form; parsing it back yields the identical element."""
    num, den = value.numer, value.denom
    if den == value.field.ring.one:
        return _render_poly(num, names)
    num_s = _render_poly(num, names)
    den_s = _render_poly(den, names)
    if len(num.terms()) > 1 or num_s.startswith("-"):
        num_s = f"({num_s})"
    den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


def render_latex(value, names) -> str:
    num, den = value.numer, value.denom
    if den == value.field.ring.one:
        return _render_poly(num, names, latex=True)
    return (
        f"\\frac{{{_render_poly(num, names, latex=True)}}}"
        f"{{{_render_poly(den, names, latex=True)}}}"
    )


def render_matrix_latex(matrix) -> str:
    """The associated matrix in the row/column layout of the tower grid."""
    names = matrix.tower.names
    lines = []
    n = matrix.tower.n
    for i in range(n):
        cells = [
            render_latex(matrix.entry(i, j).value, names) for j in range(1, n + 1)
        ]
        lines.append(" & ".join(cells))
    body = " \\\\\n".join(lines)
    return f"\\begin{{pmatrix}}\n{body}\n\\end{{pmatrix}}"


# -- tower files -------------------------------------------------------------


_GEN_RE = re.compile(
    r"gen\s+([A-Za-z][A-Za-z0-9_]*)\s*:\s*(log|prim)\s*(.*)$"
)
_VAR_RE = re.compile(r"var\s+([A-Za-z][A-Za-z0-9_]*)\s*$")

_RESERVED = {"var", "gen", "log", "prim"}


def _closing_paren(src):
    """Index of the parenthesis closing the one that opens src, or None.

    In ``log(x)*(x+1)`` it closes before the end: the factor (x+1) lies
    outside the logarithm, so the line is rejected, not reread.
    """
    if not src.startswith("("):
        return None
    depth = 0
    for k, ch in enumerate(src):
        depth += (ch == "(") - (ch == ")")
        if not depth:
            return k
    return None


def parse_tower_file(text: str) -> Tower:
    """Build a tower from its file form."""
    decls = []
    base = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if base is None:
            m = _VAR_RE.match(line)
            if not m:
                raise ExprSyntaxError(
                    f"line {lineno}: expected 'var <name>' header"
                )
            base = m.group(1)
            continue
        m = _GEN_RE.match(line)
        if not m:
            raise ExprSyntaxError(
                f"line {lineno}: expected 'gen <name> : log(<expr>)' or "
                "'gen <name> : prim <expr>'"
            )
        name, kind, rest = m.group(1), m.group(2), m.group(3).strip()
        if name in _RESERVED:
            raise ExprSyntaxError(f"line {lineno}: reserved name {name!r}")
        decls.append((lineno, name, kind, rest))
    if base is None:
        raise ExprSyntaxError("empty tower file: missing 'var <name>' header")
    names = [d[1] for d in decls]
    if len(set(names + [base])) != len(names) + 1:
        raise ExprSyntaxError("duplicate variable names in tower file")
    builder = TowerBuilder(names, base_name=base)
    env = {base: builder.x}
    for idx, (lineno, name, kind, rest) in enumerate(decls):
        try:
            if kind == "log":
                if _closing_paren(rest) != len(rest) - 1:
                    raise ExprSyntaxError(
                        "log argument must be one parenthesized expression"
                    )
                value = _Parser(rest[1:-1], env, builder.F).parse()
                if not value:
                    raise ExprSyntaxError("logarithm of zero")
                builder.log(value)
            else:
                value = _Parser(rest, env, builder.F).parse()
                builder.prim(value)
        except ExprSyntaxError as exc:
            raise ExprSyntaxError(
                f"line {lineno}: {exc.args[0]}", offset=exc.offset
            ) from None
        env[name] = builder.gens[idx + 1]
    return builder.build()


def render_tower_file(T: Tower) -> str:
    """File form of a tower; logarithmic generators whose argument collapses
    to a single element keep their log declaration, everything else is
    declared through its derivative."""
    lines = [f"var {T.names[0]}"]
    for gen in T.generators:
        collapsed = gen.argument.collapse() if gen.kind == LOG else None
        if collapsed is not None:
            lines.append(
                f"gen {gen.name} : log({render_expression(collapsed, T.names)})"
            )
        else:
            lines.append(
                f"gen {gen.name} : prim {render_expression(gen.derivative, T.names)}"
            )
    return "\n".join(lines) + "\n"
