"""Additive decomposition f = g' + r with a minimal-order remainder.

The core loop peels off the head monomial M of the current element: its head
coefficient is Hermite-reduced level by level, absorbable pieces (those that
are constant combinations of generator derivatives) move into g via
integration by parts, everything else times M joins the remainder.  The
(denominator degree, head monomial) key strictly decreases each pass, which
is the termination measure and is asserted.  The current element is
never built: the tower is a direct sum of its level pieces (``matryoshka``),
so the loop holds the pieces, read once from f, and each pass deletes its
head entries and merges in the pieces of its update, one polynomial pair
over one denominator, with no cancel.  g and r collect pieces and become
field elements once, each by one ``arith.sum_pairs``, before the
self-checks.  A pass sums its Hermite pieces, all levels, into its
Hermite part B with one ``sum_pairs``.  The span coefficients c_j that a
pass absorbs are rational constants, but the field's polynomials have
integer coefficients: the pass multiplies the absorbed sum(c_j * t_j) and
the term c_m/(d + 1) * t_m through by the lcm k of their denominators and
puts that integer into its one denominator, so g gains one term per pass.

No gcd runs whose answer is already known.  ``sum_pairs`` keeps a
canonical element alone at its primitive denominator, and each term of g
and r is one by a proof in place of a cancel.  A pass's g term is
gnum*M/(B.denom*k) with gnum = B.numer*k + span*B.denom: B is canonical,
so a factor of B.denom that divides gnum divides B.numer*k, and only an
integer can, and B.denom is free of M's generators; so only the integer
gcd of the contents is divided out.  A pass's r term is H*M over H.denom,
with no gcd, as H is canonical and H.denom free of M's generators.
Hermite's pieces come as canonical elements where its own proofs hold,
and a head coefficient whose level piece is an element, f itself where f
lies in one level alone, is taken as it is (``arith.as_element``).  The
remainder test reads Hermite's gcd(D, dD/dt_i) for a projection of r that
is the very h Hermite returned at that level in this call, the same
object, so no element is tested for squarefreeness twice.

Every result is checked exactly before it is returned, and g is never
differentiated whole.  The reconstruction check takes Hermite reduction's
identity hc_i = sum(b') + h_i, for the pieces b of a level's head
coefficient hc_i, as given: Hermite checks that each of its steps lowers
a multiplicity, not that its pieces differentiate to hc_i - h_i
(``hermite``), and differentiating every piece to check that costs what
differentiating g did.  So (b*M)' sums to (hc_i - h_i)*M + sum(b*M'),
with M' from the ``Tower.diff_pair`` of M that the pass makes anyway.  Each
h_i that the span absorbs is checked by the solver: its coefficients must
solve the basis's pivot rows, and the identity sum(c_j * t_j') = h_i over
Z decides that h_i is in the span at all.  The span
terms (sum(c_j * t_j, j < m) + cc*t_m) * M, a polynomial over an integer,
are differentiated here, with no gcd.  The check then makes two
comparisons, each of unreduced pairs against a canonical element
(``_is_sum``): g against its pieces, Hermite's and the span terms', a
path apart from the ``sum_pairs`` that built g; and the pieces'
derivatives plus r against f.  Each sums its pairs over Henrici's lcm and
compares by one exact division and one product, with no cancel.  A pass's
update never enters them, so a wrong update, span term or sum leaves g and
r apart from them; a Hermite piece or h that is wrong together with the
step that made it is not seen.

The remainder test reads pi_n(r) and the head data of r - pi_n(r) from one
level recursion on r.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .arith import (
    ClearedBasis,
    as_element,
    as_pair,
    common_denominators,
    solve_linear_system,
    sum_pairs,
)
from .errors import InternalVerificationError
from .hermite import hermite_reduce_proper_value
from .matryoshka import (
    head_data_value,
    indicator,
    level_pieces,
    not_simple_reason,
    order_key_value,
)
from .tower import Record, Tower, TowerElement, expect


# -- constant-combination solver ------------------------------------------


def solve_constant_combination_values(F, target, basis):
    """Rational constants (c_1, ..., c_k) with target = sum(c_j * basis_j),
    or None.

    ``basis`` is a ClearedBasis (L, polys) with polys[j] = basis_j * L, such
    as ``Tower.derivative_basis(m)``, or a sequence of field elements, which
    is cleared here with the lcm of their denominators.  A target in the
    span has a denominator dividing L over Q, which by Gauss's lemma is the
    primitive part of target.denom dividing L over Z: one exact division
    rejects every other target without a gcd.  With lhs = numer * (L /
    primitive part), the system sum(c'_j * polys_j) = lhs has one integer
    row per monomial, and c = c' / content, the content of target.denom.

    The basis finds its pivot monomials once, on its first solve
    (``ClearedBasis.span``): the first r rows, in monomial order, that
    reach its rank r <= k.  Each call then makes one set test, that lhs
    has no monomial outside the basis's, and solves the r pivot rows
    alone; the solution must satisfy them, so a mismatch there is an
    internal error.  The identity sum(c'_j * polys_j) = lhs over Z, both
    sides multiplied through by the lcm of the denominators of the c'_j,
    then decides: every other row is a combination of the pivot rows, so
    once any solution exists every solution of the pivot rows is one, and
    a failed identity means the target is not in the span.  The solution
    is the one full elimination gives, with the free variables of a
    dependent basis zero.
    """
    if not isinstance(basis, ClearedBasis):
        den = F.ring.one
        for e in basis:
            # the lcm over Z is a multiple of each denominator in Z[x, t]
            den = den.lcm(e.denom)
        basis = ClearedBasis(den, (e.numer * den.exquo(e.denom) for e in basis))
    den, polys = basis
    if not target:
        return [Fraction(0)] * len(polys)
    if not polys:
        return None
    content, prim = target.denom.primitive()
    scale = den.exact_quo(prim)
    if scale is None:
        return None
    lhs = target.numer * scale
    monos, pivots, rows = basis.span()
    if not monos.issuperset(lhs):
        return None
    rhs = [lhs.get(m, 0) for m in pivots]
    sol = solve_linear_system(rows, rhs)
    if sol is None or any(sum(map(mul, row, sol)) != b for row, b in zip(rows, rhs)):
        raise InternalVerificationError("combination solver self-check failed")
    common = math.lcm(*(c.denominator for c in sol))
    nums = [c.numerator * (common // c.denominator) for c in sol]
    acc = lhs.ring.zero
    for c, p in zip(nums, polys):
        if c:
            acc += p.mul_ground(c)
    if acc != lhs.mul_ground(common):
        return None
    return [c / content for c in sol]


# -- the decomposition ------------------------------------------------------


class Decomposition(Record):
    """``input`` = differentiate(``g``) + ``r``, all three TowerElements."""

    __slots__ = ("g", "r", "input")

    @property
    def tower(self) -> Tower:
        return self.input.tower


def add_decomp_in_field(f: TowerElement) -> Decomposition:
    """Decompose f as differentiate(g) + r where r is a remainder: no element
    congruent to f modulo derivatives has lower order."""
    T = expect(f, TowerElement).tower
    T.ensure_s_primitive()
    F = T.F
    R = F.ring
    n = T.n
    pieces = level_pieces(T, f.value)
    g_terms = []  # pairs and canonical elements, g's and r's, for sum_pairs
    r_terms = []
    g_parts = []  # g as its checked pieces, and g' piece by piece
    dg_parts = []
    simple = []  # (level, h): Hermite's outputs, each proven simple at its level
    prev_key = None
    while any(pieces):
        key = order_key_value(T, pieces)
        if prev_key is not None and not key < prev_key:
            raise InternalVerificationError("order key failed to decrease")
        prev_key = key
        hd = key.head
        M = hd.hm
        m = indicator(M, n)
        d = M[m - 1] if n else 0
        unit = not any(M)
        Mpoly = R.term_new((0,) + M, 1)
        Mp, L = T.diff_pair(Mpoly)
        head_mono = R.pack((0,) + M)

        def times_M(p):
            return p if unit else p.mul_monom(head_mono)

        span_basis = T.derivative_basis(m)
        steps = []  # the pass's Hermite pieces, all levels
        absorbed = [Fraction(0)] * m  # span coefficients of t_1', ..., t_m'
        H = F.zero
        unabsorbed = []

        def absorb(coeffs):
            for j, c in enumerate(coeffs):
                absorbed[j] += c

        for i in sorted(hd.index_set):
            hc_i = hd.hc_i[i]
            b_i, h_i = hermite_reduce_proper_value(T, hc_i, i)
            steps += b_i
            if h_i:
                simple.append((i, h_i))
            if b_i:
                # Hermite reduction gives hc_i = sum(b') + h_i, so the
                # derivatives (b*M)' sum to (hc_i - h_i)*M + sum(b*M')
                dg_parts.append((times_M(hc_i.numer), hc_i.denom))
                if h_i:
                    dg_parts.append((-times_M(h_i.numer), h_i.denom))
            for num, den in map(as_pair, b_i):
                g_parts.append((times_M(num), den))
                if Mp:
                    dg_parts.append((num * Mp, den * L))
            if not h_i:
                continue
            coeffs = solve_constant_combination_values(F, h_i, span_basis)
            if coeffs is not None:
                absorb(coeffs)
            elif i == n and unit:
                # head monomial 1: t_j' lies in K_{j-1}, so a nonzero level-n
                # part never joins the span, and the remainder test reads
                # the levels below n apart from it
                H = h_i
            else:
                unabsorbed.append(h_i)
        if unabsorbed:
            total = F.zero
            for h_i in unabsorbed:
                total += h_i
            if total:
                coeffs = solve_constant_combination_values(F, total, span_basis)
                if coeffs is not None:
                    absorb(coeffs)
                else:
                    H += total

        # the update -(B*M' + cc*t_m^(d+1)*N') over one denominator, with M
        # and N = M/t_m^d ring monomials and M', N' over the tower's L; it
        # vanishes on most passes, and L with it.  B is the Hermite part
        # plus sum(c_j * t_j, j < m), and cc = c_m/(d + 1); the rational
        # constants share the integer denominator k, so B = Bnum/Bden with
        # Bden = B.denom * k and k*cc an integer
        B = sum_pairs(F, steps)
        cc = absorbed[m - 1] / (d + 1) if m else Fraction(0)
        k = math.lcm(cc.denominator, *(c.denominator for c in absorbed[: m - 1]))
        B_poly = R.zero
        for j, c in enumerate(absorbed[: m - 1], start=1):
            if c:
                B_poly += R.gens[j].mul_ground(c.numerator * (k // c.denominator))
        Bnum, Bden = B.numer * k + B_poly * B.denom, B.denom * k
        rest = Bnum * Mp  # (B*M' + cc*t_m^(d+1)*N') * Bden * L
        span = B_poly  # (sum(c_j * t_j, j < m) + cc*t_m) * k
        if cc:
            tm = R.gens[m]
            cck = cc.numerator * (k // cc.denominator)
            Np, _ = T.diff_pair(Mpoly.exquo(tm**d))
            rest += B.denom.mul_ground(cck) * tm ** (d + 1) * Np
            span += tm.mul_ground(cck)
        gnum = B.numer * k + span * B.denom  # (B + span/k) * Bden
        if gnum:
            # gnum*M and Bden share only an integer, B being canonical
            c = math.gcd(gnum.content(), Bden.content())
            g_terms.append(
                F.raw_new(gnum.mul_monom(head_mono).quo_ground(c), Bden.quo_ground(c))
            )
        if span:
            # the span terms are differentiated here, a polynomial over k
            kpoly = R.ground_new(k)
            span = span.mul_monom(head_mono)
            g_parts.append((span, kpoly))
            dg_parts.append((T.diff_pair(span)[0], L * kpoly))
        # the head entries a*M leave, and the update's own pieces merge in:
        # pairs at one monomial add unreduced, and a zero sum is dropped
        for i in hd.index_set:
            del pieces[i][M]
        if rest:
            for level, update in zip(pieces, level_pieces(T, (-rest, Bden * L))):
                for mono, (un, ud) in update.items():
                    old = level.pop(mono, None)
                    if old is None:
                        level[mono] = (un, ud)
                        continue
                    on, od = as_pair(old)
                    if num := on * ud + un * od:
                        level[mono] = (num, od * ud)
        if H:
            # canonical, as H is and H.denom is free of M's generators
            r_terms.append(H if unit else F.raw_new(times_M(H.numer), H.denom))
    g = sum_pairs(F, g_terms)
    r = sum_pairs(F, r_terms)
    # g is the sum of the pieces that Hermite's steps and the span terms
    # checked, and their derivatives and r sum to f
    dg_parts.append((r.numer, r.denom))
    if not (_is_sum(g_parts, g) and _is_sum(dg_parts, f.value)):
        raise InternalVerificationError("decomposition does not reconstruct input")
    ok, why = _is_remainder_value(T, r, simple)
    if not ok:
        raise InternalVerificationError(f"output fails the remainder test: {why}")
    return Decomposition(TowerElement(g, T), TowerElement(r, T), f)


def _is_sum(pairs, value):
    """Whether the unreduced (numerator, denominator) pairs sum to the
    canonical value.  The ``common_denominators`` of the pairs add to one
    pair P/Q over Henrici's lcm of their denominators, with no cancel, and a
    zero numerator drops out; where either denominator is one term, an
    integer or a monomial, the two are multiplied, with no gcd.
    value = A/B is coprime over Z, content included, so P/Q = A/B exactly
    when B divides Q and P = A * (Q/B): one exact division and one product,
    far smaller than P * B = A * Q."""
    P = Q = None
    for num, den in common_denominators(pairs):
        if not num:
            continue
        if Q is None:
            P, Q = num, den
        elif len(Q) == 1 or len(den) == 1:
            P, Q = P * den + num * Q, Q * den
        else:
            _, q1, d1 = Q.cofactors(den)
            P, Q = P * d1 + num * q1, Q * d1
    if Q is None:
        return not value
    scale = Q.exact_quo(value.denom)
    return scale is not None and P == value.numer * scale


def _is_remainder_value(T, r, simple=()):
    """(ok, reason): whether r is already minimal modulo derivatives.

    One level recursion serves both reads: pi_n(r) is the single level-n
    piece, and the levels below n are the pieces of r - pi_n(r).  ``simple``
    holds (level, h) pairs of elements already proven simple at their level,
    Hermite's outputs in the decomposition that made r: a projection that is
    one of them, the same object, is not tested for squarefreeness again.
    """

    def reason(c, i):
        for level, h in simple:
            if level == i and c is h:
                return ""
        return not_simple_reason(T, c, i)

    if not r:
        return True, ""
    n = T.n
    pieces = level_pieces(T, r)
    top = pieces[n].get((0,) * n)
    pi_n = T.F.zero if top is None else as_element(T.F, top)
    # pi_n(r) is its own only projection, and the head coefficient's
    # projections are its per-level parts hc_i
    why = reason(pi_n, n)
    if why:
        return False, f"top projection not simple: projection {n} {why}"
    # pi_n(r) holds only the unit monomial, the lowest, so hm(r - pi_n(r))
    # is read from the levels below n alone
    head = head_data_value(T, pieces[:n])
    if head.hm is None:
        return True, ""
    for i, c in sorted(head.hc_i.items()):
        why = reason(c, i)
        if why:
            return False, f"head coefficient not simple: projection {i} {why}"
    hc = T.F.zero
    for c in head.hc_i.values():
        hc += c
    m = indicator(head.hm, n)
    coeffs = solve_constant_combination_values(T.F, hc, T.derivative_basis(m))
    if coeffs is not None and any(coeffs):
        return False, "head coefficient lies in the span of generator derivatives"
    return True, ""


# -- in-field integration ---------------------------------------------------


class InFieldIntegral(Record):
    """The ``antiderivative``, or None, and the remainder as
    ``certificate``, zero exactly when integrable."""

    __slots__ = ("antiderivative", "certificate")

    @property
    def integrable(self) -> bool:
        return self.antiderivative is not None


def integrate_in_field(f: TowerElement) -> InFieldIntegral:
    """Antiderivative of f inside its own tower, or the nonzero remainder as
    a certificate that none exists."""
    dec = add_decomp_in_field(f)
    if dec.r:
        return InFieldIntegral(None, dec.r)
    return InFieldIntegral(dec.g, dec.r)
