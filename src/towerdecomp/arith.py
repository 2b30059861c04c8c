"""Exact arithmetic foundation.

Elements live in a fixed multivariate rational function field Q(x, t1, ...,
tn), the package's own fraction field over Z (:mod:`towerdecomp.polys`):
every numerator and denominator is a polynomial in Z[x, t1, ..., tn], read
only through its methods, and no coefficient is ever a rational number.
Field elements are immutable, automatically cancelled and kept in a
canonical form, so equality is structural: numerator and denominator are
coprime in Z[x, t1, ..., tn], integer content included, and the
denominator's leading coefficient is positive.  That is the form sympy's
field over QQ keeps too.  Rational constants enter through ``F.ground``,
as a numerator over a positive integer denominator.  Most field operations
run a multivariate gcd, the ``cancel``, whose integer gcd is the heuristic
gcd of :mod:`towerdecomp.gcdheu`.  The two kernels that every layer calls
build their numerator and denominator as plain polynomials:
:func:`substitute` here cancels once, in ``F.new``, and ``Tower.diff``
cancels its numerator only against L*gcd(D, L*D'), the one factor that
the derivative of N/D can share with its numerator.

Divisibility over Q is decided over Z on primitive parts: by Gauss's lemma
an integer polynomial divides another in Q[x, t1, ..., tn] exactly when its
primitive part divides the other in Z[x, t1, ..., tn].  A constant divides
exactly only when it is +1 or -1; every other constant leading coefficient
or denominator goes through pseudo-division or a gcd, and no ground
coefficient is ever divided in Q.

The univariate layer works the same way.  A :class:`UniPoly` is a
polynomial in one designated variable v over the fraction field of the
others, held as one fraction: a ring polynomial ``num`` over a ring polynomial
``den`` free of v.  Division is pseudo-division of the numerators, with the
power of the divisor's leading coefficient folded into the denominator.  One
``gcd`` reduces each pair that a division, ``monic`` or product returns,
never per coefficient; ``%`` and ``exact_quo`` reduce only the part they
return, ``exact_quo`` returns None for a nonzero remainder, and ``mulmod``
reduces a product modulo a divisor once, after the division.
Every gcd is the ring's heuristic gcd (``Poly.gcd`` and ``cofactors``), with
exact divisions: the monic gcd over the coefficient field is the gcd of the
numerators made monic, Yun's squarefree decomposition runs on a ring
polynomial and returns ring factors, whose product divides it exactly, and
the squarefree part and root multiplicities of
:func:`rational_roots` are taken in Z[z].  The resultant is the
fraction-free subresultant PRS on two ring polynomials, itself a ring
polynomial: ``elem``'s residue polynomial, and the discriminant whose
smallest non-dividing prime is the root finder's Hensel prime.  The
extended gcd is the one exception to the heuristic gcd: Euclid's loop
on the numerators by pseudo-division, which carries only the cofactor of
its first argument and reduces it with one gcd at the end.  Canonical
field elements are built only for outputs, one ``F.new`` each:
``to_frac`` and the proper part of ``split_proper_poly``, which is f
itself, with no cancel, when f is proper already.  A value in flight, a
piece, is either a canonical field element, used as it is, or an
unreduced (numerator, denominator) pair; ``as_element`` is the one place
a piece becomes an element, cancelling a pair once, and ``as_pair`` the
way back.  ``sum_pairs`` cancels only what it must: an element that a
producer has proven canonical (``coprime_element``) is kept.

The span solver's linear algebra lives here: ``solve_linear_system`` is
Gauss-Jordan elimination over Q, row by row up to full rank.  A
:class:`ClearedBasis`, elements over one common denominator such as
``Tower.derivative_basis(m)``, finds its pivot rows by that same
elimination once, on the first solve against it, and keeps them on the
object, so that every later solve reads only those rows
(``decomp.solve_constant_combination_values``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .polys import FracField, PolyRing

_fields = {}

# the ring Z[z] of rational_roots
_ZRING = PolyRing(["z"])


def make_field(names):
    """The rational function field Q(names[0], names[1], ...), held as
    fractions of integer polynomials (:class:`towerdecomp.polys.FracField`).
    One field per tuple of names, so that equal fields are the same object.

    Returns (field, list of generator elements).
    """
    names = tuple(names)
    F = _fields.get(names)
    if F is None:
        F = _fields[names] = FracField(names)
    return F, list(F.gens)


def is_ground(f) -> bool:
    """True iff the field element is a rational constant."""
    return f.numer.is_ground and f.denom.is_ground


def free_of(f, indices) -> bool:
    """True iff the field element involves none of the given variable indices."""
    return f.numer.free_of(indices) and f.denom.free_of(indices)


def _lc(p, v):
    """Leading coefficient of p in v, a polynomial free of v."""
    return p.coeff_wrt(v, p.degree(v))


def pseudo_divmod(N, D, v):
    """Pseudo-division in v: (Q, R, L) with L*N = Q*D + R and deg_v R < deg_v D.

    L is lc_v(D)**s for the number s of elimination steps, or 1 when lc_v(D)
    is a unit, +1 or -1, the only constants that divide every integer
    polynomial exactly; any other constant leading coefficient takes the
    pseudo-division steps, with L a power of it.  Each step updates the
    reductums alone, R <- red(R)*lc - red(D)*lc(R)*v**j, as ``Poly.prem``
    does: the leading terms, which cancel, are never multiplied.
    """
    dd, lc, red = D.lead_wrt(v)
    unit = lc.LC if lc.is_ground and abs(lc.LC) == 1 else 0
    Q, R, L = N.ring.zero, N, N.ring.one
    dr, lr, rest = R.lead_wrt(v)
    while dr >= dd:
        j = dr - dd
        if unit:
            # lr*v**j/lc = lr*lc*v**j, since lc*lc = 1
            lr = lr.mul_ground(unit)
            Q += lr.mul_gen(v, j)
            R = rest - (red * lr).mul_gen(v, j)
        else:
            Q = Q * lc + lr.mul_gen(v, j)
            R = rest * lc - (red * lr).mul_gen(v, j)
            L *= lc
        dr, lr, rest = R.lead_wrt(v)
    return Q, R, L


def _reduce(num, den):
    """num/den in lowest terms, up to sign: one gcd, skipped when den is +1
    or -1.  A denominator with one term, a constant among them, takes
    the ring's monomial gcd, which runs no polynomial gcd."""
    if not num:
        return num, den.ring.one
    if den.is_ground and abs(den.LC) == 1:
        return num.mul_ground(den.LC), den.ring.one
    _, num, den = num.cofactors(den)
    return num, den


class UniPoly:
    """Polynomial in one field variable, held as one fraction num/den.

    ``num`` is a polynomial of the field's ring and ``den`` a nonzero ring
    polynomial free of the main variable ``v``; the UniPoly is num/den read as
    a polynomial in v over the fraction field of the other variables.  The
    pair need not be in lowest terms: a sum over denominators b != d is over
    b*(d/gcd(b, d)), one ``cofactors``, its numerator uncancelled; scalings
    cross-multiply; division, ``monic`` and products reduce with one
    ``gcd``.  ``to_frac`` builds the canonical field element, with one
    ``F.new``.  Instances are treated as immutable.
    """

    __slots__ = ("F", "v", "num", "den")

    def __init__(self, F, v, num, den=None):
        self.F = F
        self.v = v
        self.num = num
        self.den = F.ring.one if den is None else den

    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return self.num.degree(self.v) if self.num else -1

    def _new(self, num, den):
        return UniPoly(self.F, self.v, num, den)

    def __add__(self, other):
        if self.den == other.den:
            return self._new(self.num + other.num, self.den)
        # Henrici: a/b + c/d = (a*(d/e) + c*(b/e))/(b*(d/e)), e = gcd(b, d)
        _, b1, d1 = self.den.cofactors(other.den)
        return self._new(self.num * d1 + other.num * b1, self.den * d1)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new(-self.num, self.den)

    def __mul__(self, other):
        return self._new(*_reduce(self.num * other.num, self.den * other.den))

    def scale(self, c):
        """Multiply by a field element free of the main variable."""
        return self._new(self.num * c.numer, self.den * c.denom)

    def _divide(self, other):
        """Unreduced quotient and remainder pairs, ((qnum, qden), (rnum,
        rden)): one pseudo-division of the numerators, L*num = Q*other.num +
        R, gives quotient Q*other.den/(L*den) and remainder R/(L*den).
        Every divisor is nonzero: Hermite's squarefree factors."""
        Q, R, L = pseudo_divmod(self.num, other.num, self.v)
        den = L * self.den
        return (Q * other.den, den), (R, den)

    def exact_quo(self, other):
        """self/other reduced, or None when the remainder is not zero."""
        (qnum, qden), (rnum, _) = self._divide(other)
        return None if rnum else self._new(*_reduce(qnum, qden))

    def __mod__(self, other):
        if self.degree < other.degree:
            return self
        return self._new(*_reduce(*self._divide(other)[1]))

    def mulmod(self, other, mod):
        """self*other modulo mod, in lowest terms: the product is left
        unreduced, and one gcd reduces the remainder, or the product when
        its degree is already below mod's."""
        prod = self._new(self.num * other.num, self.den * other.den)
        if prod.degree < mod.degree:
            return self._new(*_reduce(prod.num, prod.den))
        return self._new(*_reduce(*prod._divide(mod)[1]))

    def monic(self):
        if self.is_zero():
            return self
        return self._new(*_reduce(self.num, _lc(self.num, self.v)))

    def to_frac(self):
        """Collapse back into a single field element."""
        return self.F.new(self.num, self.den)


def sum_pairs(F, pieces):
    """The sum of pieces, unreduced (numerator, denominator) polynomial
    pairs or canonical elements of F, as one element of F.  Each sum of
    ``common_denominators`` becomes an element through ``as_element``: one
    that is more than one piece costs one ``F.new``, and so does a lone
    pair; a canonical element alone at its primitive denominator is
    returned as it is, the same object, with no cancel.  Producers hand in
    an element where a cheap proof makes it canonical
    (``coprime_element``): ``hermite``'s pieces B/V^j, once gcd(B.num, V) =
    1, and the power rule's P/k, after the integer gcd(content(P), k) is
    divided out, since k is a constant; ``decomp``'s
    r terms H*M, whose denominator is free of M's generators; and its g
    terms, once the integer gcd of their contents is divided out.
    ``matryoshka.level_pieces`` hands on an element f itself where f lies
    in one level alone."""
    total = F.zero
    for piece in common_denominators(pieces):
        total += as_element(F, piece)
    return total


def coprime_element(F, num, den):
    """num/den as an element of F with no gcd, for num and den that the
    caller has proven coprime over Z: only the sign is fixed, so that the
    denominator's leading coefficient is positive."""
    return F.raw_new(-num, -den) if den.LC < 0 else F.raw_new(num, den)


def as_element(F, piece):
    """The element of a piece, the inverse of ``as_pair``: a field element
    as it is, with no cancel, or a pair cancelled by one ``F.new``."""
    return F.new(*piece) if isinstance(piece, tuple) else piece


def as_pair(piece):
    """(numerator, denominator) of a piece: a pair as it is, or the pair of
    a field element."""
    return piece if isinstance(piece, tuple) else (piece.numer, piece.denom)


def common_denominators(pieces):
    """Pieces with the same sum, one per distinct primitive part of the
    denominators: numerators over the lcm of their integer contents add as
    polynomials, with no gcd, into one (numerator, denominator) pair.  A
    piece alone at its primitive part, a pair or a field element, is passed
    on as it is."""
    groups = {}
    for piece in pieces:
        num, den = as_pair(piece)
        content, prim = den.primitive()
        groups.setdefault(prim, []).append((num, content, piece))
    for prim, terms in groups.items():
        if len(terms) == 1:
            yield terms[0][2]
            continue
        k = math.lcm(*(c for _, c, _ in terms))
        num = prim.ring.zero
        for n, c, _ in terms:
            num += n if c == k else n.mul_ground(k // c)
        yield num, prim.mul_ground(k)


def split_proper_poly(f, v):
    """Write f = proper + poly with respect to variable index v.

    ``proper`` is a field element whose numerator degree in v is below its
    denominator degree; ``poly`` is a UniPoly in v over the remaining
    variables.  One pseudo-division L*N = Q*D + R of f = N/D gives
    proper = R/(L*D) and poly = Q/L; when D is free of v, poly = N/D, and
    when f is proper already, proper is f itself, with no cancel.
    """
    F = f.field
    N, D = f.numer, f.denom
    if D.degree(v) <= 0:
        return F.zero, UniPoly(F, v, N, D)
    if N.degree(v) < D.degree(v):
        return f, UniPoly(F, v, N.ring.zero)
    Q, R, L = pseudo_divmod(N, D, v)
    proper = F.new(R, L * D) if R else F.zero
    return proper, UniPoly(F, v, Q, L)


def unipoly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over the coefficient field.  The gcd of the numerators in
    Z[x, t] is the gcd over the field times a factor free of v, and
    ``monic`` divides that factor out with the leading coefficient."""
    return UniPoly(a.F, a.v, a.num.gcd(b.num)).monic()


def unipoly_xgcd(a: UniPoly, b: UniPoly):
    """Half-extended gcd: (g, s) with s*a = g (mod b) and g monic, for a
    nonzero b.  Euclid runs on the numerators A and B by pseudo-division:
    each remainder R = L*r0 - Q*r1 is S_R*A mod B, with a's cofactor
    carried as S_R = L*S0 - Q*S1 and b's never formed, up to the first zero
    remainder.  For the last nonzero r = S*A (mod B), g = r/lc(r) needs no
    gcd, and s = S*a.den/lc(r) is reduced once, for the caller multiplies
    by it once per power it strips (``hermite``)."""
    v, r0, r1 = a.v, a.num, b.num
    s0, s1 = r0.ring.one, r0.ring.zero
    while r1:
        if r0.degree(v) < r1.degree(v):
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        Q, R, L = pseudo_divmod(r0, r1, v)
        if not R:
            r0, s0 = r1, s1
            break
        r0, r1, s0, s1 = r1, R, s1, s0 * L - Q * s1
    lc = _lc(r0, v)
    return a._new(r0, lc), a._new(*_reduce(s0 * a.den, lc))


def squarefree_decomposition(P, v):
    """Yun's algorithm in characteristic zero, for a ring polynomial P in v.

    Returns a list of (factor, multiplicity) pairs, each factor a ring
    polynomial of positive degree in v, with strictly increasing
    multiplicities, such that P is c times the product of
    factor**multiplicity for a c free of v, for P of degree at least 1 in
    v.  Runs with multivariate gcds and exact divisions: these agree with
    the gcds over the coefficient field up to factors free of v, so the
    factors are the squarefree factors over the field, each with its
    content in v removed.  Each ``exquo`` divides by a gcd over Z of its
    argument, so it is exact in Z[x, t].
    """
    dP = P.diff(v)
    g = P.gcd(dP)
    w = P.exquo(g)
    if g.degree(v) == 0:
        return [(w, 1)]
    out = []
    z = dP.exquo(g) - w.diff(v)
    mult = 1
    while z:
        fac = w.gcd(z)
        if fac.degree(v) > 0:
            out.append((fac, mult))
        w = w.exquo(fac)
        z = z.exquo(fac) - w.diff(v)
        mult += 1
    if w.degree(v) > 0:
        out.append((w, mult))
    return out


def unipoly_resultant(A, B, v):
    """res_v(A, B) of two nonzero ring polynomials, as a ring polynomial,
    by the subresultant PRS (Cohen, *A Course in Computational Algebraic
    Number Theory*, Alg. 3.3.7, without content removal); every division is
    exact in Z[x, t], since the PRS runs over any integral domain."""
    da, db = A.degree(v), B.degree(v)
    s = 1
    if da < db:
        A, B, da, db = B, A, db, da
        if da % 2 and db % 2:
            s = -1
    if db == 0:
        return B**da * s
    one = A.ring.one
    g = h = one
    while True:
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        R = A.prem(B, v)
        A, B = B, R.exquo(g * h**delta)
        if not B:
            return A.ring.zero
        g = _lc(A, v)
        if delta == 1:
            h = g
        elif delta > 1:
            h = (g**delta).exquo(h ** (delta - 1))
        da, db = db, B.degree(v)
        if db == 0:
            break
    # here deg B = 0 and da = deg A: h <- h^(1 - da) * lc(B)^da
    res = B**da if da == 1 else (B**da).exquo(h ** (da - 1))
    return res * s


def rational_roots(coeffs) -> dict:
    """{root: multiplicity} of the rational roots of sum(coeffs[k] * z**k),
    for rational coeffs (ints or Fractions) whose last entry is nonzero.

    Exact, with no floats and no factoring.  The root 0 counts the vanishing
    low coefficients.  The others are the roots of the squarefree part S =
    P/gcd(P, P') of what is left, P, taken with integer coefficients and a
    = lc(S) > 0: a rational root z of S makes y = a*z an integer root of a
    monic integer polynomial, found by Hensel lifting
    (:func:`_scaled_integer_roots`).  The multiplicity of a root p/q is the
    number of times q*z - p divides P, exactly in Z[z] by Gauss's lemma.
    """
    P = [Fraction(c) for c in coeffs]
    zeros = 0
    while not P[zeros]:
        zeros += 1
    roots = {Fraction(0): zeros} if zeros else {}
    den = math.lcm(*(c.denominator for c in P))
    P = _ZRING.from_dict(
        {(k,): c.numerator * (den // c.denominator) for k, c in enumerate(P[zeros:])}
    )
    if not P.degree():
        return roots
    S = P.cofactors(P.diff(0))[1]
    if S.LC < 0:
        S = -S
    Sk = {k: c for (k,), c in S.terms()}
    for y in _scaled_integer_roots([Sk.get(k, 0) for k in range(S.degree() + 1)]):
        z = Fraction(y, S.LC)
        linear = _ZRING.from_dict({(1,): z.denominator, (0,): -z.numerator})
        m = 0
        while (Q := P.exact_quo(linear)) is not None:
            P, m = Q, m + 1
        roots[z] = m
    return roots


def _eval_mod(poly, y, m):
    """poly(y) mod m for integer coefficients, z^0 first."""
    h = 0
    for c in reversed(poly):
        h = (h * y + c) % m
    return h


def _scaled_integer_roots(S):
    """The integers y with S(y/a) = 0, a = lc(S) > 0, for a squarefree
    integer polynomial S (z^0 first) of degree >= 1.

    They are the integer roots of the monic Q(y) = a**(n-1) * S(y/a), each
    within Fujiwara's bound 2 * max |q_k|**(1/(n-k)), taken as a power of
    two.  Q stays squarefree modulo a prime p exactly when p does not divide
    res(Q, Q'), which is +-disc(Q) as Q is monic.  For the smallest such
    p, each root of Q mod p lifts by Newton's iteration (Hensel's lemma) to
    one root modulo some p**e above twice the bound; an integer root of Q is
    the symmetric residue of one of these lifts, and each is tested exactly.
    """
    n = len(S) - 1
    a = S[-1]
    Q = [c * a ** (n - 1 - k) for k, c in enumerate(S[:-1])] + [1]
    dQ = [k * c for k, c in enumerate(Q)][1:]
    bound = 2 * max(
        1 << -(-abs(c).bit_length() // (n - k)) for k, c in enumerate(Q[:-1])
    )
    ZQ = _ZRING.from_dict({(k,): c for k, c in enumerate(Q)})
    disc = unipoly_resultant(ZQ, ZQ.diff(0), 0).LC
    p = 2
    while not disc % p:
        p += 1
        while any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            p += 1
    roots = []
    for r in range(p):
        if _eval_mod(Q, r, p):
            continue
        m = p
        while m <= 2 * bound:
            m *= m
            r = (r - _eval_mod(Q, r, m) * pow(_eval_mod(dQ, r, m), -1, m)) % m
        y = r - m if r > m // 2 else r
        value = 0
        for c in reversed(Q):
            value = value * y + c
        if not value:
            roots.append(y)
    return roots


class ClearedBasis:
    """Field elements b_1, ..., b_k over one common denominator: ``den`` is
    a polynomial and ``polys[j]`` the polynomial b_{j+1} * den.  It unpacks
    as ``den, polys = basis``, and keeps its span data (``span``) once
    built."""

    __slots__ = ("den", "polys", "_span")

    def __init__(self, den, polys):
        self.den = den
        self.polys = tuple(polys)
        self._span = None

    def __iter__(self):
        return iter((self.den, self.polys))

    def span(self):
        """(monomials, pivot monomials, pivot rows), built on the first call.
        A monomial's row holds the k polynomials' coefficients there, in
        ascending monomial order, the solver's; the pivot rows are the
        first that reach the basis's rank, the rows that
        ``solve_linear_system``'s elimination makes pivot rows, and every
        other row is a combination of theirs."""
        if self._span is None:
            monos = set().union(*(p.keys() for p in self.polys))
            order = sorted(monos)
            rows = [[p.get(m, 0) for p in self.polys] for m in order]
            used = _pivot_rows(rows)
            self._span = monos, [order[i] for i in used], [rows[i] for i in used]
        return self._span


def _eliminate(rows, rhs):
    """Gauss-Jordan elimination of the equations in order, up to full rank.

    Each row is reduced by the pivot rows found so far; a row that reduces
    to 0 = b returns None at once when b is nonzero and is dropped
    otherwise, and any other row becomes a pivot row, clearing its pivot
    column from the others.  Returns (pivots, used, done): pivots maps each
    pivot column to its reduced row, 1 at that column and the right-hand
    side last, used lists the indices of the rows that became pivot rows,
    and done is the number of rows read, which stops once every column has
    a pivot.
    """
    ncols = len(rows[0]) if rows else 0
    pivots = {}
    used = []
    done = 0
    for row, b in zip(rows, rhs):
        if len(pivots) == ncols:
            break
        done += 1
        r = list(map(Fraction, row))
        r.append(Fraction(b))
        for col, p in pivots.items():
            f = r[col]
            if f:
                r = [a - f * c for a, c in zip(r, p)]
        lead = next((col for col in range(ncols) if r[col]), None)
        if lead is None:
            if r[ncols]:
                return None
            continue
        pv = r[lead]
        r = [a / pv for a in r]
        for col, p in pivots.items():
            f = p[lead]
            if f:
                pivots[col] = [a - f * c for a, c in zip(p, r)]
        pivots[lead] = r
        used.append(done - 1)
    return pivots, used, done


def _pivot_rows(rows):
    """The indices of the first rows, in order, whose rows reach the rank of
    the matrix: the rows that ``solve_linear_system`` makes pivot rows, by
    the same elimination."""
    return _eliminate(rows, [0] * len(rows))[1]


def solve_linear_system(rows, rhs):
    """Solve A c = rhs exactly over Q by Gauss-Jordan elimination.

    ``rows`` is a list of lists of Fractions or ints (one list per
    equation), ``rhs`` a list of the same.  Returns a solution as a list of
    Fractions (free variables set to zero) or None when the system is
    inconsistent.

    The rows are eliminated one at a time, in order (``_eliminate``).  Once
    every column has a pivot, the rows read span the row space, so their
    reduced form is the reduced row echelon form of the whole matrix and
    the solution is fixed: each remaining row is only checked by
    substitution, over the integers when its entries are integers, with no
    row operation.
    """
    reduced = _eliminate(rows, rhs)
    if reduced is None:
        return None
    pivots, _, done = reduced
    ncols = len(rows[0]) if rows else 0
    sol = [Fraction(0)] * ncols
    for col, p in pivots.items():
        sol[col] = p[ncols]
    # sol = nums / common over one integer denominator
    common = math.lcm(*(c.denominator for c in sol))
    nums = [c.numerator * (common // c.denominator) for c in sol]
    for row, b in zip(rows[done:], rhs[done:]):
        if sum(map(mul, row, nums)) != b * common:
            return None
    return sol


def substitute(f, target_field, values):
    """Map a field element into target_field, sending generator i to values[i].

    ``values`` must contain one element of target_field per generator of the
    source field.  Raises ZeroDivisionError if the denominator vanishes.
    The CLI never meets that error, since every map it applies is injective:
    each normalization step of ``tower.change_generators``, the shift t_i ->
    u_i + g_i, the elimination t_j -> t_j + sum(c_k t_k) or a swap, is an
    automorphism, and so is ``normalization_images``, their composite; phi
    sends t_j to u_{l_j} plus earlier u_k with l strictly increasing.

    With values[i] = p_i/q_i and top_i the highest exponent of variable i in
    f, each term c*prod(x_i^e_i) of f's numerator and of its denominator
    becomes the polynomial c*prod(p_i^e_i * q_i^(top_i - e_i)).  Both sums
    carry the same factor prod(q_i^top_i), so their quotient is the image,
    reduced to lowest terms by one cancel.
    """
    ring = target_field.ring
    top = [max(a, b) for a, b in zip(f.numer.degrees(), f.denom.degrees())]
    powers = {}

    def power(i, part, k):
        key = (i, part, k)
        if key not in powers:
            powers[key] = getattr(values[i], part) ** k
        return powers[key]

    def eval_poly(p):
        out = ring.zero
        for mono, c in p.terms():
            term = ring.ground_new(c)
            for i, e in enumerate(mono):
                if e:
                    term *= power(i, "numer", e)
                if top[i] > e and not values[i].denom.is_one:
                    term *= power(i, "denom", top[i] - e)
            out += term
        return out

    den = eval_poly(f.denom)
    if not den:
        raise ZeroDivisionError("substitution maps denominator to zero")
    return target_field.new(eval_poly(f.numer), den)
