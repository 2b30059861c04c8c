"""Hermite reduction at a single tower level.

At level i the derivation acts on K_{i-1}(t_i) with t_i primitive, so
Hermite reduction over the squarefree decomposition of the denominator
applies (Bronstein, *Symbolic Integration I*, section 2.2).  It runs Yun's
algorithm once, on the denominator D in Z[x, t_1, ..., t_i], and keeps its
integer factors: D = c * prod V**m with c free of t_i, checked by one exact
division of D by the product.  No factor is made monic and A is never
divided by c, which stays in D.  For each factor V of multiplicity m >= 2,
U = D/V^m is an exact division in the ring, one extended gcd gives the
inverse of U*V' modulo V, and each of the m - 1 steps j = m-1, ..., 1
strips one power of V with that inverse divided by j, so the work is linear
in the multiplicities; D then becomes the product U*V.  The extended gcd
runs on numerators and reduces the inverse once, at its end: unreduced, it
is often several times the reduced size (310/223 terms against 46/43 on a
level-3 factor of the nested tower), and every step multiplies by it.  The
steps add over Henrici's denominators and differentiate over L*D*R, not
L*D^2.  At level 0, Q(x), the polynomial part integrates by the power rule.

No piece is cancelled that a cheap proof shows canonical.  A step's B is
the inverse times -A/j modulo V, whose product is left unreduced and
reduced once, with its remainder (``UniPoly.mulmod``), so B is in lowest
terms; the piece B/V^j is then in lowest terms exactly when gcd(B.num, V)
= 1, a gcd against V's few terms in place of a cancel against
B.den * V^j, and it is handed out as a canonical element; where that
proof fails, the piece is handed out as its unreduced pair, which
``sum_pairs`` cancels as before.  The power rule's P/k, P in Z[x] and k
an integer, shares only an integer with its constant k: once the integer
gcd(content(P), k) is divided out, it is always a canonical element.

Each step checks that it lowers the multiplicity: it divides A +
j*B*U*V' by V and raises "Hermite step does not reconstruct" unless the
remainder is zero, which catches a wrong inverse of U*V' mod V.  The
step's identity A/(U*V^(j+1)) = (B/V^j)' + A_new/(U*V^j), with A_new =
(A + j*B*U*V')/V - U*B', holds for any B, given B' and the step's
arithmetic, and nothing here re-derives it: the chain of steps gives f =
g' + h for g the sum of the pieces.  At level 0 the power
rule's (P/k)' is compared with the polynomial part exactly, and the
output check proves h simple.  A piece recorded wrongly, or a wrong B',
passes these checks; ``decomp`` takes the identity as given too.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import (
    UniPoly,
    coprime_element,
    free_of,
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
    derivation of K_level over L*D*R (``Tower.diff_pair_radical``): a step's
    B has repeated factors in its denominator D, where L*D^2 is far larger
    (763 terms against 290 on nested 1/(t3 + x)^3)."""
    return UniPoly(T.F, level, *T.diff_pair_radical(p.num, p.den, level))


def hermite_reduce_proper_value(T, f, level):
    """Raw-value Hermite reduction: (pieces, h) with f = g' + h, h simple at
    level and g the sum of the pieces, each a canonical element or an
    unreduced (numerator, denominator) pair.

    For level >= 1 the input must be proper at that level.  For level 0 any
    element of Q(x) is accepted: the reduction runs on its proper part, and
    its polynomial part integrates by the power rule to P/k, P in Z[x] and
    k an integer coprime to it, the first piece, a canonical element whose
    derivative must be that part exactly.
    """
    F = T.F
    if not f:
        return [], F.zero
    if level == 0:
        if not free_of(f, range(1, T.n + 1)):
            raise NotProper(0, "level-0 input must be free of all generators")
        proper, poly = split_proper_poly(f, 0)
        pieces, h = _hermite_core(T, proper, 0)
        if poly.is_zero():
            return pieces, h
        P, k = _power_rule(poly)
        # (P/k)' = poly, compared as polynomials over their integers
        if P.diff(0) * poly.den != poly.num * k:
            raise InternalVerificationError("power rule does not reconstruct")
        return [coprime_element(T.F, P, k)] + pieces, h
    if improper_reason(T, f, level):
        raise NotProper(level)
    return _hermite_core(T, f, level)


def _hermite_core(T, f, level):
    """Reduction of a proper element; denominator multiplicities drop to 1.

    When Yun's first gcd finds the denominator squarefree in t_level, f is
    its own output, ([], f): that gcd is the squarefree half of the output
    check, and ``improper_reason`` is the other half.  Otherwise the
    factors are stripped from the highest multiplicity down, so that the
    highest power leaves D before the other factors' U = D/V^m are formed.
    Each step hands out its piece B/V^j (``_piece``).  h is simple at
    level, proven by its own gcd(D, dD/dt_level) in either case; the
    remainder test of ``decomp`` reads that result for an h that it meets
    again as the same element.
    """
    F = T.F
    if not f:
        return [], F.zero
    A, D = UniPoly(F, level, f.numer), f.denom
    sqf = squarefree_decomposition(D, level)
    if sqf[-1][1] == 1:
        if improper_reason(T, f, level):
            raise InternalVerificationError("Hermite output is not proper")
        return [], f
    prod = D.ring.one
    for V, m in sqf:
        prod *= V**m
    c = D.exact_quo(prod)
    if c is None or c.degree(level) > 0:
        raise InternalVerificationError("squarefree product mismatch")
    pieces = []
    for V, m in reversed(sqf):
        if m == 1:
            break
        # A/(U*V^(j+1)) = (B/V^j)' + A_new/(U*V^j) with A_new = (A +
        # j*B*U*V')/V - U*B', a polynomial exactly when V divides A +
        # j*B*U*V'; j*B*U*V' = -A (mod V) makes it so, for j = m-1, ..., 1,
        # and one inverse of U*V' mod V serves every j
        U = UniPoly(F, level, D.exquo(V**m))
        Vu = UniPoly(F, level, V)
        UVd = U * tower_derivative_unipoly(T, Vu, level)
        gg, inv = unipoly_xgcd(UVd % Vu, Vu)
        if gg.degree != 0:
            raise InternalVerificationError(
                "repeated factor is not normal at its level"
            )
        for j in range(m - 1, 0, -1):
            B = inv.mulmod((A % Vu).scale(F.ground(Fraction(-1, j))), Vu)
            pieces.append(_piece(F, B, V, j))
            A = (A + (B * UVd).scale(F.ground(j))).exact_quo(Vu)
            if A is None:
                raise InternalVerificationError("Hermite step does not reconstruct")
            A = A - U * tower_derivative_unipoly(T, B, level)
        D = U.num * V
    h = F.new(A.num, A.den * D)
    why = not_simple_reason(T, h, level)
    if why == NOT_SQUAREFREE:
        raise InternalVerificationError("Hermite output denominator not squarefree")
    if why:
        raise InternalVerificationError("Hermite output is not proper")
    return pieces, h


def _piece(F, B, V, j):
    """The piece B/V^j for B in lowest terms: a canonical element when
    gcd(B.num, V) = 1, a gcd against V's few terms that proves B.num coprime
    to B.den * V^j, and otherwise the unreduced pair, which ``sum_pairs``
    cancels."""
    den = B.den * V**j
    if B.num and B.num.cofactors(V)[0].is_one:
        return coprime_element(F, B.num, den)
    return B.num, den


def _power_rule(poly):
    """(P, k), P in Z[x] and k an integer, coprime over Z, with P/k an
    antiderivative of poly, a polynomial in x over an integer: with K =
    lcm(1, ..., deg + 1), x^(e+1)*K/(e+1) integrates x^e over K.  k is a
    constant, so P and k share only an integer, gcd(content(P), k), which
    is divided out with no polynomial gcd."""
    K = math.lcm(*range(1, poly.degree + 2))
    P = poly.num.ring.zero
    for e, c in poly.num.coeff_polys(0).items():
        P += c.mul_gen(0, e + 1).mul_ground(K // (e + 1))
    k = poly.den.mul_ground(K)
    c = math.gcd(P.content(), k.LC)
    return P.quo_ground(c), k.quo_ground(c)
