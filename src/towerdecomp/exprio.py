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
it is formed.  Integer literals and the integer coefficients of every value
the parser forms are bounded by ``MAX_DIGITS`` digits; a power whose
coefficients could exceed it is rejected before it is formed.

Tower files are line oriented: a `var <name>` header, then one
`gen <name> : log(<expr>)` or `gen <name> : prim <expr>` per generator,
with `#` comments.  Rendering is canonical; parsing a rendered expression
gives back the identical element.
"""

from __future__ import annotations

import math
import re

from .errors import ExprSyntaxError, UnknownName
from .tower import LOG, Tower, TowerBuilder

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^()]))")

# Parentheses nest through five parser frames each; this cap keeps the
# recursion far below the interpreter's limit.
MAX_DEPTH = 100

# Degree bound for powers and products, counted per variable over numerator
# and denominator; far above any expression of the documented examples, and
# low enough that no single power or product takes long to form.
MAX_DEGREE = 1000

# Digit bound for integer literals and for the integer coefficients of every
# value the parser forms, numerators and denominators alike: Python's default
# limit on converting between int and str, so that every accepted constant
# can be read, and printed back, in base 10.
MAX_DIGITS = 4300
_DIGITS_LIMIT = 10**MAX_DIGITS


def _degrees(value):
    """Per variable, the larger of the numerator's and denominator's degree."""
    return [max(a, b, 0) for a, b in zip(value.numer.degrees(), value.denom.degrees())]


def _check_degree(degrees, off):
    if max(degrees, default=0) > MAX_DEGREE:
        raise ExprSyntaxError(f"degree above {MAX_DEGREE}", offset=off)


def _too_many_digits(off):
    return ExprSyntaxError(f"integer above {MAX_DIGITS} digits", offset=off)


def _integer(text, off):
    """The integer a literal token denotes, checked before ``int()`` reads it."""
    if len(text) > MAX_DIGITS:
        raise _too_many_digits(off)
    return int(text)


def _check_digits(value, off):
    for p in (value.numer, value.denom):
        for c in p.values():
            if abs(c) >= _DIGITS_LIMIT:
                raise _too_many_digits(off)


def _check_power_digits(value, e, off):
    """Reject value**e when its coefficients could exceed MAX_DIGITS digits.

    The field keeps integer coefficients, and every coefficient of P**e is
    at most s**e, s the sum of P's coefficients in absolute value.
    """
    norm = max(
        sum(abs(c) for c in p.values()) for p in (value.numer, value.denom)
    )
    if norm > 1 and abs(e) > (MAX_DIGITS + 1) / math.log10(norm):
        raise _too_many_digits(off)


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
            kind, text, off = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
                _check_digits(value, off)
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
                _check_digits(value, off)
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
            e = sign * _integer(text2, off2)
            if e <= 0 and not value:
                raise ExprSyntaxError("zero to a non-positive power", offset=off)
            _check_degree([abs(e) * k for k in _degrees(value)], off)
            _check_power_digits(value, e, off)
            value = value**e
            _check_digits(value, off)
        return value

    def atom(self):
        kind, text, off = self.next()
        if kind == "int":
            return self.F.ground(_integer(text, off))
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


def render_expression(value, names) -> str:
    """Canonical text form; parsing it back yields the identical element."""
    num, den = value.numer, value.denom
    num_s = num.render(names)
    if den.is_one:
        return num_s
    if len(num) > 1 or num_s.startswith("-"):
        num_s = f"({num_s})"
    return f"{num_s}/({den.render(names)})"


def render_latex(value, names) -> str:
    num, den = value.numer, value.denom
    if den.is_one:
        return num.render(names, latex=True)
    return f"\\frac{{{num.render(names, latex=True)}}}{{{den.render(names, latex=True)}}}"


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
