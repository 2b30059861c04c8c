"""Heuristic gcd (GCDHEU) and exact division on integer polynomials held
as plain dicts.

The tower field's polynomials are dicts ``{monomial: int}`` whose
monomials are packed exponent vectors: one int per monomial, ``W`` = 16
bits per variable, 15 exponent bits below a guard bit, with the first
variable in the highest field, so that int order is lex order and
``max(f)`` is the leading monomial (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  A monomial product is a sum of ints; ``m - g`` with no guard bit
set means that g divides m, since a field that borrows sets its guard bit.
Every exponent stays below ``2**15``; a product that would reach it sets a
guard bit, which the polynomial ring checks once per result.

:func:`heugcd` computes the gcd by the heuristic of Char, Geddes and
Gonnet (J. Symbolic Comput., 1989) in the form of sympy's ``heugcd`` (Liao
and Fateman, ISSAC 1995): the same content extraction, evaluation points,
growth rule, symmetric-remainder interpolation and trial divisions, so it
returns the same (h, cff, cfg).  It evaluates the first variable, the top
field, and recurses on dicts keyed by the fields below it.  A level whose
variable neither operand holds is skipped: its one call below is the
call the level's first evaluation would make, and the gcd is unique.

:func:`_exquo` is the one exact division of the package: the gcd's trial
divisions, :meth:`towerdecomp.polys.Poly.exact_quo` and the division that
:meth:`towerdecomp.polys.Poly.cofactors` tries ahead of the heuristic all
run it.

When none of ``HEU_GCD_MAX`` evaluation points succeeds,
``HeuristicGCDFailed`` propagates, with sympy's bound, so the heuristic
fails only where sympy's fails.
"""

from __future__ import annotations

from bisect import insort
from functools import cache
from math import gcd, isqrt

from .errors import HeuristicGCDFailed

# evaluation points tried before giving up, as in sympy.polys.heuristicgcd
HEU_GCD_MAX = 6

# bits per variable in a packed monomial, the top one the field's guard bit
W = 16
FIELD = (1 << W) - 1
EMAX = (1 << W - 1) - 1


@cache
def guard_mask(n):
    """The guard bits of a monomial in n variables."""
    return ((1 << W * n) - 1) // FIELD << W - 1


def heugcd(f, g, n):
    """gcd and cofactors of nonzero dicts f, g in n >= 1 variables; raises
    ``HeuristicGCDFailed`` when no evaluation point succeeds."""
    if n > 1 and not (max(f) | max(g)) >> W * (n - 1):
        return heugcd(f, g, n - 1)
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
    variables, the fields below the first, without zero coefficients."""
    s = W * (n - 1)
    powers = [1]
    for _ in range(max(f) >> s):
        powers.append(powers[-1] * x)
    if n == 1:
        return sum(a * powers[m] for m, a in f.items())
    low = (1 << s) - 1
    out = {}
    for m, a in f.items():
        rest = m & low
        out[rest] = out.get(rest, 0) + a * powers[m >> s]
    return {m: a for m, a in out.items() if a}


def _interpolate(h, x, n):
    """The polynomial in n variables whose coefficients in the first one are
    the symmetric base-x digits of h (an int for n == 1, else a dict in
    n - 1 variables), made to have a positive leading coefficient."""
    out = {}
    half = x // 2
    step = 1 << W * (n - 1)
    for m, a in ((0, h),) if n == 1 else h.items():
        while a:
            r = a % x
            if r > half:
                r -= x
            if r:
                out[m] = r
            a = (a - r) // x
            m += step
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
    quotient is a copy of f, returned without the steps.

    A remainder monomial may pass 2**15 in a field, into its guard bit, but
    never carries into the next field, and every quotient monomial has its
    guard bits clear.  Neither happens on the way to an exact quotient q,
    since every monomial of q times one of g stays within f's degrees.  The
    first exponent of a g that the gcd interpolates may pass the field;
    such a g divides nothing."""
    g_lm = max(g)
    g_lc = g[g_lm]
    if g_lc == 1 and len(g) == 1 and not g_lm:
        return dict(f)
    if g_lm >> W * n - 1:
        return None
    guard = guard_mask(n)
    tail = [(mg, b) for mg, b in g.items() if mg != g_lm]
    p = dict(f)
    order = sorted(p)
    q = {}
    while order:
        m = order.pop()
        a = p.pop(m, 0)
        if not a:
            continue
        d = m - g_lm
        if d & guard or a % g_lc:
            return None
        a //= g_lc
        q[d] = a
        for mg, b in tail:
            k = d + mg
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
