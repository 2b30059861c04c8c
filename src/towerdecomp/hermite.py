"""Hermite reduction at a single tower level.

At level i the derivation acts on K_{i-1}(t_i) with t_i primitive, so
Hermite reduction over the squarefree decomposition of the denominator
applies (Bronstein, *Symbolic Integration I*, section 2.2).  It runs Yun's
algorithm once.  For each factor V of multiplicity m >= 2, with D = U*V^m,
one extended gcd gives the inverse of U*V' modulo V, and each of the m - 1
steps j = m-1, ..., 1 strips one power of V with that inverse divided by j.
The work is linear in the multiplicities.  The extended gcd returns the
inverse in lowest terms, reduced once per repeated factor: its loop leaves
the numerator and denominator cross-multiplied, often several times their
reduced size (310/223 terms against 46/43 on a level-3 factor of the
nested tower), and each step multiplies by the inverse and cancels the
product with a gcd, whose cost grows with the operands.  Level 0 is Q(x)
itself; there the polynomial part is integrated directly by the power
rule, so any element of Q(x) is accepted.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import (
    UniPoly,
    frac_to_unipair,
    free_of,
    ground,
    split_proper_poly,
    squarefree_decomposition,
    unipoly_xgcd,
)
from .errors import InternalVerificationError, NotProper
from .matryoshka import NOT_SQUAREFREE, improper_reason, not_simple_reason


def tower_derivative_unipoly(T, p: UniPoly, level) -> UniPoly:
    """Derivation of a univariate view in K_{level-1}[t_level]: the
    coefficients differentiate in the tower, the main variable contributes
    its generator derivative.  Built as one unreduced pair with the
    derivation of K_level, whose denominator is free of t_level."""
    return UniPoly(T.F, level, *T.diff_pair(p.num, p.den, level))


def hermite_reduce_proper_value(T, f, level):
    """Raw-value Hermite reduction: f = diff(g) + h with h simple at level.

    For level >= 1 the input must be proper at that level.  For level 0 any
    element of Q(x) is accepted; its polynomial part is integrated by the
    power rule.
    """
    F = T.F
    if not f:
        return F.zero, F.zero
    if level == 0:
        if not free_of(f, range(1, T.n + 1)):
            raise NotProper(0, "level-0 input must be free of all generators")
        proper, poly = split_proper_poly(f, 0)
        g = F.zero
        x = T.gens[0]
        # f lies in Q(x), so each coefficient c is a rational constant
        for k, c in poly.coeffs.items():
            g += c * x ** (k + 1) / (k + 1)
        gp, h = _hermite_core(T, proper, 0)
        return g + gp, h
    if improper_reason(T, f, level):
        raise NotProper(level)
    return _hermite_core(T, f, level)


def _hermite_core(T, f, level):
    """Reduction of a proper element; denominator multiplicities drop to 1.

    When Yun's first gcd finds the denominator squarefree in t_level, f is
    its own output, (0, f): that gcd is the squarefree half of the output
    check, and ``improper_reason`` is the other half.  Otherwise the
    factors are stripped from the highest multiplicity down, so that the
    highest power leaves D before the other factors' U = D/V^m are formed.
    """
    F = T.F
    if not f:
        return F.zero, F.zero
    A, D = frac_to_unipair(f, level)
    sqf = squarefree_decomposition(D, level)
    if sqf[-1][1] == 1:
        if improper_reason(T, f, level):
            raise InternalVerificationError("Hermite output is not proper")
        return F.zero, f
    prod = UniPoly.constant(F, level, F.one)
    for fac, mult in sqf:
        prod = prod * fac.pow(mult)
    unit, rem = D.divmod(prod)
    if not rem.is_zero() or unit.degree != 0:
        raise InternalVerificationError("squarefree product mismatch")
    A = A // unit
    D = prod
    g = F.zero
    for V, m in reversed(sqf):
        if m == 1:
            break
        # A/(U*V^(j+1)) = (B/V^j)' + A_new/(U*V^j) when j*B*U*V' = -A (mod V),
        # for j = m-1, ..., 1; one inverse of U*V' mod V serves every j
        U = D // V.pow(m)
        Vd = tower_derivative_unipoly(T, V, level)
        UVd = U * Vd
        gg, inv = unipoly_xgcd(UVd % V, V)
        if gg.degree != 0:
            raise InternalVerificationError(
                "repeated factor is not normal at its level"
            )
        for j in range(m - 1, 0, -1):
            B = (inv * (-(A % V))).scale(ground(F, Fraction(1, j))) % V
            g += F.new(B.num * V.den**j, B.den * V.num**j)
            A = (A + (B * UVd).scale(ground(F, j))) // V
            A = A - U * tower_derivative_unipoly(T, B, level)
        D = U * V
    h = F.new(A.num * D.den, A.den * D.num)
    why = not_simple_reason(T, h, level)
    if why == NOT_SQUAREFREE:
        raise InternalVerificationError("Hermite output denominator not squarefree")
    if why:
        raise InternalVerificationError("Hermite output is not proper")
    return g, h

