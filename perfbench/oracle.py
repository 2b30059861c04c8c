"""Independent correctness oracle.

Answers reach the oracle as text only.  It reads them into pairs
(numerator, denominator) of sparse polynomials over Q, applies the chain
rule with the tower's generator derivatives, and decides an identity by
checking that the numerator over the common denominator vanishes.  Text in
the benchmark's own canonical form, ``(c*x**e*... + ...)/(...)`` with every
coefficient written n/d, is read term by term; any other text, such as the
CLI's output and the towers' arguments, through sympy's parser into
``Expr``.  Nothing here uses towerdecomp or sympy's
``FracElement``; each generator derivative is reduced once, with sympy's
polynomial gcd, when its tower is read.
"""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from functools import lru_cache

import sympy
from sympy.polys.rings import PolyRing


class Derivation:
    """d/dx on Q(x, t1, ..., tn).  Generator t_k has derivative c_k / L,
    with one common denominator L."""

    def __init__(self, base, names):
        self.names = [base] + list(names)
        self.symbols = {n: sympy.Symbol(n) for n in self.names}
        self.R = PolyRing([self.symbols[n] for n in self.names], sympy.QQ)
        self.L = self.R.one
        self.c = {}  # generator index -> numerator of its derivative over L

    @classmethod
    def from_gens(cls, base, gens):
        """Derivation of a tower given as (name, kind, payload) triples:
        "log" with [(argument text, exponent), ...] or "prim" with the
        derivative's text.  Each generator's derivative is computed with the
        generators below it."""
        return _derivation(base, repr([list(g) for g in gens]))

    def parse(self, text):
        canonical = _CANONICAL.fullmatch(text)
        if canonical:
            return self._canonical_poly(canonical[1]), self._canonical_poly(canonical[2])
        expr = sympy.together(sympy.sympify(text, locals=self.symbols))
        num, den = sympy.fraction(expr)
        return self.R.from_expr(sympy.expand(num)), self.R.from_expr(sympy.expand(den))

    def _canonical_poly(self, text):
        index = {n: i for i, n in enumerate(self.names)}
        terms = {}
        for term in text.split(" + ") if text != "0" else []:
            coeff, *powers = term.replace("**", "^").split("*")
            num, den = coeff.split("/")
            mono = [0] * len(self.names)
            for power in powers:
                name, exp = power.split("^")
                mono[index[name]] += int(exp)
            mono = tuple(mono)
            terms[mono] = terms.get(mono, 0) + sympy.QQ(int(num), int(den))
        return self.R.from_dict(terms)

    def _poly_diff(self, p):
        """Numerator of p' over L."""
        gens = self.R.gens
        out = self.L * p.diff(gens[0])
        for k, c in self.c.items():
            out += c * p.diff(gens[k])
        return out

    def __call__(self, f):
        n, d = f
        return d * self._poly_diff(n) - n * self._poly_diff(d), self.L * d * d

    def _add_generator(self, k, deriv):
        a, b = deriv[0].cancel(deriv[1])
        L = self.L.lcm(b)
        self.c = {j: c * L.exquo(self.L) for j, c in self.c.items()}
        self.c[k] = a * L.exquo(b)
        self.L = L

    def derivative(self, k):
        """t_k' as a fraction."""
        return self.c[k], self.L


# "(terms)/(terms)": terms "n/d" or "n/d*name**e*..." joined by " + ", or "0"
_TERM = r"-?\d+/\d+(?:\*[A-Za-z_]\w*\*\*\d+)*"
_SIDE = rf"0|{_TERM}(?: \+ {_TERM})*"
_CANONICAL = re.compile(rf"\(({_SIDE})\)/\(({_SIDE})\)")


@lru_cache(maxsize=None)
def _derivation(base, gens_repr):
    """Derivations are cached by their tower, which requests share."""
    gens = ast.literal_eval(gens_repr)
    D = Derivation(base, [g[0] for g in gens])
    for k, (_, kind, payload) in enumerate(gens, start=1):
        if kind == "log":
            deriv = (D.R.zero, D.R.one)
            for text, exp in payload:
                deriv = add(deriv, scale(exp, log_derivative(D, D.parse(text))))
        else:
            deriv = D.parse(payload)
        D._add_generator(k, deriv)
    return D


# -- fractions (numerator, denominator) over one ring ---------------------------


def add(f, g):
    if f[1] == g[1]:
        return f[0] + g[0], f[1]
    return f[0] * g[1] + g[0] * f[1], f[1] * g[1]


def neg(f):
    return -f[0], f[1]


def scale(c, f):
    c = Fraction(c)
    return f[0] * sympy.QQ(c.numerator, c.denominator), f[1]


def log_derivative(D, f):
    n, d = f
    return d * D._poly_diff(n) - n * D._poly_diff(d), D.L * n * d


def is_zero(f) -> bool:
    return not f[0]


def total(*fs):
    out = fs[0]
    for f in fs[1:]:
        out = add(out, f)
    return out


def substitute(source, f, target, images):
    """f of the source tower with generator t_j replaced by the fraction
    images[t_j] of the target tower; the base variable maps to itself."""
    values = [(target.R.gens[0], target.R.one)] + [images[n] for n in source.names[1:]]

    def poly(p):
        degs = [max((m[i] for m in p.monoms()), default=0) for i in range(len(values))]
        den = target.R.one
        for (_, q), e in zip(values, degs):
            den *= q**e
        num = target.R.zero
        for mono, c in p.terms():
            term = target.R(c)
            for (vp, vq), e, top in zip(values, mono, degs):
                term *= vp**e * vq ** (top - e)
            num += term
        return num, den

    (pn, pd), (qn, qd) = poly(f[0]), poly(f[1])
    return pn * qd, pd * qn


# -- checks; each returns None or the reason -------------------------------------


def check_decomposition(D, f, g, r):
    """g' + r = f."""
    if not is_zero(total(D(D.parse(g)), D.parse(r), neg(D.parse(f)))):
        return "g' + r != f"
    return None


def check_antiderivative(D, f, F):
    """F' = f."""
    if not is_zero(add(D(D.parse(F)), neg(D.parse(f)))):
        return "integral' != integrand"
    return None


def check_elementary(D, f, ans):
    """Decomposition, witness and certificate of an elementary verdict."""
    why = check_decomposition(D, f, ans["g"], ans["r"])
    if why:
        return why
    if ans["status"] == "yes":
        parts = [neg(D.parse(ans["r"]))]
        for k, c in enumerate(ans["span"], start=1):
            parts.append(scale(c, D.derivative(k)))
        for c, arg in ans["witness"]:
            parts.append(scale(c, log_derivative(D, D.parse(arg))))
        if not is_zero(total(*parts)):
            return "witness does not differentiate to the remainder"
    elif ans["status"] == "no" and ans["certificate"] is not None:
        if is_zero(D(D.parse(ans["certificate"]))):
            return "certificate residue is a constant"
    return None


def check_commutation(source, target, images):
    """phi(t_j)' = phi(t_j') for every generator t_j of the source."""
    parsed = {n: target.parse(text) for n, text in images.items()}
    for k, name in enumerate(source.names[1:], start=1):
        lhs = target(parsed[name])
        rhs = substitute(source, source.derivative(k), target, parsed)
        if not is_zero(add(lhs, neg(rhs))):
            return f"embedding does not commute with d/dx on {name}"
    return None


def check_image(source, f, target, images, image):
    """image = phi(f)."""
    parsed = {n: target.parse(text) for n, text in images.items()}
    if not is_zero(add(substitute(source, source.parse(f), target, parsed), neg(target.parse(image)))):
        return "image != phi(f)"
    return None
