"""Exact arithmetic foundation.

Elements live in a fixed multivariate rational function field Q(x, t1, ...,
tn), the package's own fraction field over Z (:mod:`towerdecomp.polys`):
every numerator and denominator is a polynomial in Z[x, t1, ..., tn], read
only through its methods, and no coefficient is ever a rational number.
Field elements are immutable, automatically cancelled and kept in a
canonical form, so equality is structural: numerator and denominator are
coprime in Z[x, t1, ..., tn], integer content included, and the
denominator's leading coefficient is positive.  That is the form sympy's
field over QQ keeps too.  Rational constants enter through :func:`ground`,
as a numerator over a positive integer denominator.  Most field operations
run a multivariate gcd, the ``cancel``, whose integer gcd is the heuristic
gcd of :mod:`towerdecomp.gcdheu`.  The two kernels that every layer calls,
:func:`substitute` here and ``Tower.diff``, build their numerator and
denominator as plain polynomials and cancel exactly once, in ``F.new``.

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
never per coefficient; ``%`` and ``//`` reduce only the part they return.
Every gcd is the ring's heuristic gcd (``Poly.gcd`` and ``cofactors``), with
exact divisions: the monic gcd over the coefficient field is the gcd of the
numerators made monic, Yun's squarefree decomposition runs on the
numerator, and the squarefree part and root multiplicities of
:func:`rational_roots` are taken in Z[z].  The resultant is the
fraction-free subresultant PRS on the numerators, divided by the
denominators once.  The extended gcd is the one Euclidean loop over the
field, beside the squarefree test modulo a prime of the root finder; it
carries only the cofactor of its first argument, (g, s) with s*a = g (mod
b), stops at the first zero remainder, and makes both monic without a gcd.
Canonical field elements are built only for outputs, one ``F.new`` each:
``UniPoly.coeffs`` and ``to_frac``, the proper part of
``split_proper_poly`` and the resultant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

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


def ground(F, value):
    """Embed a rational constant (int or Fraction) into the field F, with no
    cancel (:meth:`towerdecomp.polys.FracField.ground`)."""
    return F.ground(Fraction(value))


def is_ground(f) -> bool:
    """True iff the field element is a rational constant."""
    return f.numer.is_ground and f.denom.is_ground


def free_of(f, indices) -> bool:
    """True iff the field element involves none of the given variable indices."""
    return f.numer.free_of(indices) and f.denom.free_of(indices)


def _degree(p, v) -> int:
    """Degree of the polynomial p in variable index v; -1 for zero."""
    return p.degree(v) if p else -1


def _lc(p, v):
    """Leading coefficient of p in v, a polynomial free of v."""
    return p.coeff_wrt(v, p.degree(v))


def pseudo_divmod(N, D, v):
    """Pseudo-division in v: (Q, R, L) with L*N = Q*D + R and deg_v R < deg_v D.

    L is lc_v(D)**s for the number s of elimination steps, or 1 when lc_v(D)
    is a unit, +1 or -1, the only constants that divide every integer
    polynomial exactly; any other constant leading coefficient takes the
    pseudo-division steps, with L a power of it.
    """
    ring = N.ring
    dd = D.degree(v)
    lc = _lc(D, v)
    unit_lc = lc.is_ground and abs(lc.LC) == 1
    Q, R, L = ring.zero, N, ring.one
    dr = _degree(R, v)
    while dr >= dd:
        lr = R.coeff_wrt(v, dr)
        if unit_lc:
            term = lr.mul_ground(lc.LC).mul_gen(v, dr - dd)
            Q += term
            R -= term * D
        else:
            term = lr.mul_gen(v, dr - dd)
            Q = Q * lc + term
            R = R * lc - term * D
            L *= lc
        dr = _degree(R, v)
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
    pair need not be in lowest terms: sums and scalings keep the plain
    cross-multiplied pair, while division, ``monic`` and products reduce it
    with one ``gcd``.  ``coeffs`` and ``to_frac`` build canonical field
    elements, one ``F.new`` each.  Instances are treated as
    immutable.
    """

    __slots__ = ("F", "v", "num", "den")

    def __init__(self, F, v, num, den=None):
        self.F = F
        self.v = v
        self.num = num
        self.den = F.ring.one if den is None else den

    @classmethod
    def zero(cls, F, v):
        return cls(F, v, F.ring.zero)

    @classmethod
    def constant(cls, F, v, c):
        """The constant polynomial c, a field element free of v."""
        return cls(F, v, c.numer, c.denom)

    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return _degree(self.num, self.v)

    @property
    def coeffs(self) -> dict:
        """{k: coefficient of v**k}, as canonical field elements."""
        return {
            k: self.F.new(c, self.den)
            for k, c in self.num.coeff_polys(self.v).items()
        }

    def _new(self, num, den):
        return UniPoly(self.F, self.v, num, den)

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.v == other.v
            and self.num * other.den == other.num * self.den
        )

    def __add__(self, other):
        if self.den == other.den:
            return self._new(self.num + other.num, self.den)
        return self._new(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new(-self.num, self.den)

    def __mul__(self, other):
        return self._new(*_reduce(self.num * other.num, self.den * other.den))

    def scale(self, c):
        """Multiply by a field element free of the main variable."""
        return self._new(self.num * c.numer, self.den * c.denom)

    def pow(self, e: int):
        return self._new(self.num**e, self.den**e)

    def _divide(self, other):
        """Unreduced quotient and remainder pairs, ((qnum, qden), (rnum,
        rden)): one pseudo-division of the numerators, L*num = Q*other.num +
        R, gives quotient Q*other.den/(L*den) and remainder R/(L*den).
        Every divisor is nonzero: a squarefree factor, their product or a
        unit."""
        ring = self.num.ring
        if other.degree == 0:
            return (self.num * other.den, self.den * other.num), (ring.zero, ring.one)
        Q, R, L = pseudo_divmod(self.num, other.num, self.v)
        den = L * self.den
        return (Q * other.den, den), (R, den)

    def divmod(self, other):
        """Euclidean division over the coefficient field, each part reduced
        with one gcd."""
        q, r = self._divide(other)
        return self._new(*_reduce(*q)), self._new(*_reduce(*r))

    def __floordiv__(self, other):
        return self._new(*_reduce(*self._divide(other)[0]))

    def __mod__(self, other):
        if self.degree < other.degree:
            return self
        return self._new(*_reduce(*self._divide(other)[1]))

    def monic(self):
        if self.is_zero():
            return self
        return self._new(*_reduce(self.num, _lc(self.num, self.v)))

    def to_frac(self):
        """Collapse back into a single field element."""
        return self.F.new(self.num, self.den)


def sum_pairs(F, pairs):
    """The sum of unreduced (numerator, denominator) polynomial pairs as one
    field element: denominators with the same primitive part share the lcm
    of their integer contents, numerators over it add as polynomials, and
    each distinct primitive part costs one ``F.new``."""
    groups = {}
    for num, den in pairs:
        content, prim = den.primitive()
        groups.setdefault(prim, []).append((num, content))
    total = F.zero
    for prim, terms in groups.items():
        k = math.lcm(*(c for _, c in terms))
        num = prim.ring.zero
        for n, c in terms:
            num += n.mul_ground(k // c)
        total += F.new(num, prim.mul_ground(k))
    return total


def frac_to_unipair(f, v):
    """Split a field element into (numerator, denominator) UniPolys in v."""
    F = f.field
    return UniPoly(F, v, f.numer), UniPoly(F, v, f.denom)


def split_proper_poly(f, v):
    """Write f = proper + poly with respect to variable index v.

    ``proper`` is a field element whose numerator degree in v is below its
    denominator degree; ``poly`` is a UniPoly in v over the remaining
    variables.  One pseudo-division L*N = Q*D + R of f = N/D gives
    proper = R/(L*D) and poly = Q/L; when D is free of v, poly = N/D.
    """
    F = f.field
    N, D = f.numer, f.denom
    if D.degree(v) <= 0:
        return F.zero, UniPoly(F, v, N, D)
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
    nonzero b.  The cofactor of b is never formed, and the loop
    stops at the first zero remainder, before the quotient that would only
    build the cofactor s with s*a = 0 (mod b).  g is made monic by folding
    lc(g) into its denominator, without a gcd.  s is returned in lowest
    terms, with one gcd: the loop's sums leave it cross-multiplied, several
    times the size of its reduced pair, and a caller multiplies by s once
    per power it strips (``hermite``), each product with a gcd of its own."""
    r0, r1 = a, b
    s0, s1 = UniPoly.constant(a.F, a.v, a.F.one), UniPoly.zero(a.F, a.v)
    while not r1.is_zero():
        if r0.degree < r1.degree:
            r0, r1 = r1, r0
            s0, s1 = s1, s0
            continue
        (qnum, qden), (rnum, rden) = r0._divide(r1)
        if not rnum:
            r0, s0 = r1, s1
            break
        q = r0._new(*_reduce(qnum, qden))
        r0, r1 = r1, r0._new(*_reduce(rnum, rden))
        s0, s1 = s1, s0 - q * s1
    # r0 = r0.num/r0.den with lc_v(r0) = lc/r0.den: dividing by it leaves
    # r0.num/lc and s0 * r0.den/lc
    lc = _lc(r0.num, r0.v)
    return r0._new(r0.num, lc), s0._new(*_reduce(s0.num * r0.den, s0.den * lc))


def squarefree_decomposition(p, v):
    """Yun's algorithm in characteristic zero, for a UniPoly p in v.

    Returns a list of (monic factor, multiplicity) pairs with strictly
    increasing multiplicities such that p equals a unit times the product of
    factor**multiplicity, for p of degree at least 1 in v.  Runs on the
    numerator polynomial with multivariate gcds and exact divisions: these
    agree with the gcds over the coefficient field up to factors free of v,
    so each factor is the same once made monic, at the end.  Each ``exquo``
    divides by a gcd over Z of its argument, so it is exact in Z[x, t].
    """
    P = p.num
    dP = P.diff(v)
    g = P.gcd(dP)
    w = P.exquo(g)
    if g.degree(v) == 0:
        out = [(w, 1)]
    else:
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
    return [(UniPoly(p.F, v, fac, _lc(fac, v)), m) for fac, m in out]


def _subresultant(A, B, v):
    """res_v(A, B) of two nonzero ring polynomials, by the subresultant
    PRS (Cohen, *A Course in Computational Algebraic Number Theory*,
    Alg. 3.3.7, without content removal); every division is exact in
    Z[x, t], since the PRS runs over any integral domain."""
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


def unipoly_resultant(a: UniPoly, b: UniPoly):
    """Resultant of two nonzero UniPolys, as a field element.

    Fraction-free: the subresultant PRS runs on the numerators, and the
    denominators come out once, res(a, b) = res(a.num, b.num) /
    (a.den**deg b * b.den**deg a), with one cancel.
    """
    F = a.F
    da, db = a.degree, b.degree
    res = _subresultant(a.num, b.num, a.v)
    if not res:
        return F.zero
    return F.new(res, a.den**db * b.den**da)


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


def _gf_squarefree(a, b, p):
    """Whether gcd(a, b) is a constant over GF(p), for a monic a."""
    a = [c % p for c in a]
    b = [c % p for c in b]
    while b and not b[-1]:
        b.pop()
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            k = len(a) - len(b)
            for i, x in enumerate(b):
                a[k + i] = (a[k + i] - c * x) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _scaled_integer_roots(S):
    """The integers y with S(y/a) = 0, a = lc(S) > 0, for a squarefree
    integer polynomial S (z^0 first) of degree >= 1.

    They are the integer roots of the monic Q(y) = a**(n-1) * S(y/a), each
    within Fujiwara's bound 2 * max |q_k|**(1/(n-k)), taken as a power of
    two.  For the smallest prime p modulo which Q stays squarefree, each
    root of Q mod p lifts by Newton's iteration (Hensel's lemma) to one root
    modulo some p**e above twice the bound; an integer root of Q is the
    symmetric residue of one of these lifts, and each is tested exactly.
    """
    n = len(S) - 1
    a = S[-1]
    Q = [c * a ** (n - 1 - k) for k, c in enumerate(S[:-1])] + [1]
    dQ = [k * c for k, c in enumerate(Q)][1:]
    bound = 2 * max(
        1 << -(-abs(c).bit_length() // (n - k)) for k, c in enumerate(Q[:-1])
    )
    p = 2
    while not _gf_squarefree(Q, dQ, p):
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


class ClearedBasis(NamedTuple):
    """Field elements b_1, ..., b_k over one common denominator: ``den`` is
    a polynomial and ``polys[j]`` the polynomial b_{j+1} * den."""

    den: object
    polys: tuple


def solve_linear_system(rows, rhs):
    """Solve A c = rhs exactly over Q by Gauss-Jordan elimination.

    ``rows`` is a list of lists of Fractions or ints (one list per
    equation), ``rhs`` a list of the same.  Returns a solution as a list of
    Fractions (free variables set to zero) or None when the system is
    inconsistent.

    The rows are eliminated one at a time, in order: each is reduced by the
    pivot rows found so far; a row that reduces to 0 = b returns None at once
    when b is nonzero and is dropped otherwise, and any other row becomes a
    pivot row, clearing its pivot column from the others.  Once every column
    has a pivot, the rows read span the row space, so their reduced form is
    the reduced row echelon form of the whole matrix and the solution is
    fixed: each remaining row is only checked by substitution, over the
    integers when its entries are integers, with no row operation.
    """
    ncols = len(rows[0]) if rows else 0
    pivots = {}  # pivot column -> reduced row, 1 at its column, rhs last
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
    the ``--normalize`` shift is a triangular automorphism,
    ``normalization_images`` an invertible rational linear change of
    generators, and phi sends t_j to u_{l_j} plus earlier u_k with l strictly
    increasing, so no nonzero denominator maps to zero.

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
