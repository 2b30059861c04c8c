"""Heuristic gcd (GCDHEU) and exact division on integer polynomials held
as plain dicts.

The tower field's polynomials are dicts ``{exponent tuple: int}`` in lex
order.  :func:`heugcd` computes their gcd by the heuristic of Char, Geddes
and Gonnet (J. Symbolic Comput., 1989) in the form of sympy's ``heugcd``
(Liao and Fateman, ISSAC 1995): the same content extraction, evaluation
points, growth rule, symmetric-remainder interpolation and trial
divisions, so it returns the same (h, cff, cfg).  It evaluates the first
variable and recurses on dicts keyed by the shortened exponent tuples.

:func:`_exquo` is the one exact division of the package: the gcd's trial
divisions and :meth:`towerdecomp.polys.Poly.exact_quo` both run it.  Its
monomial arithmetic is :func:`monomial_ops`, generated once per number of
variables and shared with :class:`towerdecomp.polys.PolyRing`.

When none of ``HEU_GCD_MAX`` evaluation points succeeds,
``HeuristicGCDFailed`` propagates, with sympy's bound, so the heuristic
fails on exactly the inputs on which sympy's fails.
"""

from __future__ import annotations

from bisect import insort
from functools import cache
from math import gcd, isqrt

from .errors import HeuristicGCDFailed

# evaluation points tried before giving up, as in sympy.polys.heuristicgcd
HEU_GCD_MAX = 6


@cache
def monomial_ops(n):
    """Monomial product ``mul``, checked quotient ``quo`` (None when not
    divisible) and ``mgcd``, written out for exponent tuples of length n."""
    a = [f"a{i}" for i in range(n)]
    b = [f"b{i}" for i in range(n)]
    head = f"    ({', '.join(a)},) = A\n    ({', '.join(b)},) = B\n"

    def tup(parts):
        return f"({', '.join(parts)},)"

    src = (
        f"def mul(A, B):\n{head}    return {tup(f'{x} + {y}' for x, y in zip(a, b))}\n"
        f"def quo(A, B):\n{head}"
        + "".join(f"    c{i} = {x} - {y}\n" for i, (x, y) in enumerate(zip(a, b)))
        + f"    if {' and '.join(f'c{i} >= 0' for i in range(n))}:\n"
        f"        return {tup(f'c{i}' for i in range(n))}\n"
        f"    return None\n"
        f"def mgcd(A, B):\n{head}    return {tup(f'min({x}, {y})' for x, y in zip(a, b))}\n"
    )
    namespace = {}
    exec(src, namespace)
    return namespace


def heugcd(f, g, n):
    """gcd and cofactors of nonzero dicts f, g in n >= 1 variables; raises
    ``HeuristicGCDFailed`` when no evaluation point succeeds."""
    c = gcd(_content(f), _content(g))
    if c != 1:
        f = {m: a // c for m, a in f.items()}
        g = {m: a // c for m, a in g.items()}

    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    B = 2 * min(f_norm, g_norm) + 29
    x = max(
        min(B, 99 * isqrt(B)),
        2 * min(f_norm // abs(f[max(f)]), g_norm // abs(g[max(g)])) + 4,
    )

    for _ in range(HEU_GCD_MAX):
        ff = _evaluate(f, x, n)
        gg = _evaluate(g, x, n)
        if ff and gg:
            if n == 1:
                h = gcd(ff, gg)
                cff, cfg = ff // h, gg // h
            else:
                h, cff, cfg = heugcd(ff, gg, n - 1)

            h = _primitive(_interpolate(h, x, n))
            cff_ = _exquo(f, h, n)
            if cff_ is not None:
                cfg_ = _exquo(g, h, n)
                if cfg_ is not None:
                    return _scale(h, c), cff_, cfg_

            cff = _interpolate(cff, x, n)
            h = _exquo(f, cff, n)
            if h is not None:
                cfg_ = _exquo(g, h, n)
                if cfg_ is not None:
                    return _scale(h, c), cff, cfg_

            cfg = _interpolate(cfg, x, n)
            h = _exquo(g, cfg, n)
            if h is not None:
                cff_ = _exquo(f, h, n)
                if cff_ is not None:
                    return _scale(h, c), cff_, cfg

        x = 73794 * x * isqrt(isqrt(x)) // 27011

    raise HeuristicGCDFailed(
        f"heuristic gcd found no evaluation point in {HEU_GCD_MAX} tries"
    )


def _content(f):
    c = 0
    for a in f.values():
        c = gcd(c, a)
    return c


def _primitive(f):
    c = _content(f)
    return {m: a // c for m, a in f.items()} if c > 1 else f


def _scale(f, c):
    return {m: a * c for m, a in f.items()} if c != 1 else f


def _evaluate(f, x, n):
    """f at first variable = x: an int for n == 1, else a dict in n - 1
    variables without zero coefficients."""
    powers = [1]
    for _ in range(max(m[0] for m in f)):
        powers.append(powers[-1] * x)
    if n == 1:
        return sum(a * powers[m[0]] for m, a in f.items())
    out = {}
    for m, a in f.items():
        rest = m[1:]
        out[rest] = out.get(rest, 0) + a * powers[m[0]]
    return {m: a for m, a in out.items() if a}


def _interpolate(h, x, n):
    """The polynomial in n variables whose coefficients in the first one are
    the symmetric base-x digits of h (an int for n == 1, else a dict in
    n - 1 variables), made to have a positive leading coefficient."""
    out = {}
    half = x // 2
    for rest, a in (((), h),) if n == 1 else h.items():
        i = 0
        while a:
            r = a % x
            if r > half:
                r -= x
            if r:
                out[(i,) + rest] = r
            a = (a - r) // x
            i += 1
    if out and out[max(out)] < 0:
        return {m: -a for m, a in out.items()}
    return out


def _exquo(f, g, n):
    """f / g for nonzero g in n variables when g divides f exactly over Z,
    else None: the division algorithm, stopped at the first leading term
    that g's does not divide.

    The remainder's monomials are kept in one ascending list and the
    leading one is popped from its end; each monomial a step creates is
    inserted in order, and a popped monomial whose coefficient has since
    cancelled is skipped.  A step only creates monomials below the one it
    removes, so each is popped once with a coefficient.  When g is the
    constant 1, which is most trial divisions of a coprime pair, the
    quotient is a copy of f, returned without the steps."""
    g_lm = max(g)
    g_lc = g[g_lm]
    if g_lc == 1 and len(g) == 1 and not any(g_lm):
        return dict(f)
    ops = monomial_ops(n)
    mquo, mmul = ops["quo"], ops["mul"]
    tail = [(mg, b) for mg, b in g.items() if mg != g_lm]
    p = dict(f)
    order = sorted(p)
    q = {}
    while order:
        m = order.pop()
        a = p.pop(m, 0)
        if not a:
            continue
        d = mquo(m, g_lm)
        if d is None or a % g_lc:
            return None
        a //= g_lc
        q[d] = a
        for mg, b in tail:
            k = mmul(d, mg)
            v = p.get(k)
            if v is None:
                p[k] = -a * b
                insort(order, k)
            else:
                v -= a * b
                if v:
                    p[k] = v
                else:
                    del p[k]
    return q
