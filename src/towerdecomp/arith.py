"""Exact arithmetic foundation.

Elements live in a fixed multivariate rational function field Q(x, t1, ..., tn)
backed by :mod:`sympy.polys.fields`.  Field elements (``FracElement``) are
immutable, automatically cancelled and kept in a canonical form, so equality is
structural.  Most field operations therefore run a multivariate gcd, the
``cancel``.  The two kernels that every layer calls, :func:`substitute` here
and ``Tower.diff``, build their numerator and denominator as plain
polynomials (``PolyElement``) and cancel exactly once, in ``F.new``.

The univariate layer works the same way.  A :class:`UniPoly` is a
polynomial in one designated variable v over the fraction field of the
others, held as one fraction: a ring polynomial ``num`` over a ring polynomial
``den`` free of v.  Division is pseudo-division of the numerators, with the
power of the divisor's leading coefficient folded into the denominator.  One
``gcd`` reduces each pair that a division, ``monic`` or product returns,
never per coefficient; ``%`` and ``//`` reduce only the part they return.
Yun's squarefree decomposition runs on the numerator with
multivariate gcds and exact divisions, and the resultant is the
fraction-free subresultant PRS on the numerators, divided by the
denominators once.  The extended gcd carries only the cofactor of its first
argument, (g, s) with s*a = g (mod b), stops at the first zero remainder, and
makes both monic without a gcd.
Canonical field elements are built only for outputs, one ``F.new`` each:
``UniPoly.coeffs`` and ``to_frac``, the proper part of
``split_proper_poly`` and the resultant.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from sympy import QQ
from sympy.polys.fields import field as _field


def make_field(names):
    """Create the rational function field Q(names[0], names[1], ...).

    Returns (field, list of generator elements).
    """
    created = _field(list(names), QQ)
    return created[0], list(created[1:])


def ground(F, value):
    """Embed a rational constant into the field F."""
    if isinstance(value, Fraction):
        return F.ground_new(QQ(value.numerator, value.denominator))
    return F.ground_new(QQ(value))


def to_fraction(coeff) -> Fraction:
    """Convert a ground coefficient (mpq / PythonRational) to Fraction."""
    return Fraction(int(coeff.numerator), int(coeff.denominator))


def is_ground(f) -> bool:
    """True iff the field element is a rational constant."""
    return f.numer.is_ground and f.denom.is_ground


def free_of(f, indices) -> bool:
    """True iff the field element involves none of the given variable indices."""
    for mono in list(f.numer.monoms()) + list(f.denom.monoms()):
        if any(mono[i] for i in indices):
            return False
    return True


def _degree(p, v) -> int:
    """Degree of the polynomial p in variable index v; -1 for zero."""
    return p.degree(v) if p else -1


def _coeff(p, v, k):
    """Coefficient of v**k in p, a polynomial free of v."""
    return p.new({m[:v] + (0,) + m[v + 1:]: c for m, c in p.items() if m[v] == k})


def _lc(p, v):
    """Leading coefficient of p in v, a polynomial free of v."""
    return _coeff(p, v, p.degree(v))


def coeff_polys(p, v) -> dict:
    """{k: coefficient of v**k in p}, each a polynomial free of v."""
    buckets = {}
    for mono, c in p.items():
        buckets.setdefault(mono[v], {})[mono[:v] + (0,) + mono[v + 1:]] = c
    return {k: p.new(d) for k, d in buckets.items()}


def pseudo_divmod(N, D, v):
    """Pseudo-division in v: (Q, R, L) with L*N = Q*D + R and deg_v R < deg_v D.

    L is lc_v(D)**s for the number s of elimination steps, or 1 when lc_v(D)
    is a rational constant, which divides exactly.  sympy's
    ``PolyElement.pdiv`` and ``pquo`` return a wrong quotient for
    multivariate input (for N = x*t2**3 + t1*t2 + 1, D = t1*t2**2 + x in t2
    they give x*t1*t2 + 2*t1**2 where the quotient scaled by t1**2 =
    lc_v(D)**(deg N - deg D + 1) is x*t1*t2), so the loop is written out
    here; ``prem`` is correct.
    """
    ring = N.ring
    dd = D.degree(v)
    lc = _lc(D, v)
    ground_lc = lc.is_ground
    xv = ring.gens[v]
    Q, R, L = ring.zero, N, ring.one
    dr = _degree(R, v)
    while dr >= dd:
        lr = _coeff(R, v, dr)
        if ground_lc:
            term = lr.quo_ground(lc.LC) * xv ** (dr - dd)
            Q += term
            R -= term * D
        else:
            term = lr * xv ** (dr - dd)
            Q = Q * lc + term
            R = R * lc - term * D
            L *= lc
        dr = _degree(R, v)
    return Q, R, L


def _reduce(num, den):
    """num/den in lowest terms, up to a rational constant: one gcd, skipped
    when den is a constant."""
    if not num:
        return num, den.ring.one
    if den.is_ground:
        return num.quo_ground(den.LC), den.ring.one
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
            for k, c in coeff_polys(self.num, self.v).items()
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
        if not isinstance(other, UniPoly):
            return self.scale(other)
        return self._new(*_reduce(self.num * other.num, self.den * other.den))

    def scale(self, c):
        """Multiply by a field element free of the main variable."""
        return self._new(self.num * c.numer, self.den * c.denom)

    def pow(self, e: int):
        return self._new(self.num**e, self.den**e)

    def _divide(self, other):
        """Unreduced quotient and remainder pairs, ((qnum, qden), (rnum,
        rden)): one pseudo-division of the numerators, L*num = Q*other.num +
        R, gives quotient Q*other.den/(L*den) and remainder R/(L*den)."""
        if other.is_zero():
            raise ZeroDivisionError("UniPoly division by zero")
        ring = self.num.ring
        if other.degree == 0:
            return (self.num * other.den, self.den * other.num), (ring.zero, ring.one)
        Q, R, L = pseudo_divmod(self.num, other.num, self.v)
        den = L * self.den
        return (Q * other.den, den), (R, den)

    def divmod(self, other):
        """Euclidean division over the coefficient field, each part reduced
        with one gcd."""
        if self.degree < other.degree:
            return UniPoly.zero(self.F, self.v), self
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

    def __repr__(self):
        name = self.F.symbols[self.v]
        if self.is_zero():
            return "0"
        parts = [
            f"({c})*{name}^{k}" for k, c in sorted(self.coeffs.items(), reverse=True)
        ]
        return " + ".join(parts)


def sum_pairs(F, pairs):
    """The sum of unreduced (numerator, denominator) polynomial pairs as one
    field element: numerators over the same denominator add as polynomials,
    and each distinct denominator costs one ``F.new``."""
    sums = {}
    for num, den in pairs:
        sums[den] = sums[den] + num if den in sums else num
    total = F.zero
    for den, num in sums.items():
        total += F.new(num, den)
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


def _as_unipoly(a, v) -> UniPoly:
    if isinstance(a, UniPoly):
        return a
    if a.denom.degree(v) > 0:
        raise ValueError("denominator must be free of the main variable")
    return UniPoly(a.field, v, a.numer, a.denom)


def unipoly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Euclidean gcd over field coefficients, normalized monic."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def unipoly_xgcd(a: UniPoly, b: UniPoly):
    """Half-extended gcd: (g, s) with s*a = g (mod b) and g monic, or g
    zero when a and b are.  The cofactor of b is never formed, and the loop
    stops at the first zero remainder, before the quotient that would only
    build the cofactor s with s*a = 0 (mod b); g and s are made monic
    together by folding lc(g) into their denominators, without a gcd."""
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
    if r0.is_zero():
        return r0, s0
    # r0 = r0.num/r0.den with lc_v(r0) = lc/r0.den: dividing by it leaves
    # r0.num/lc and s0 * r0.den/lc
    lc = _lc(r0.num, r0.v)
    return r0._new(r0.num, lc), s0._new(s0.num * r0.den, s0.den * lc)


def squarefree_decomposition(p, v):
    """Yun's algorithm in characteristic zero.

    Returns a list of (monic factor, multiplicity) pairs with strictly
    increasing multiplicities such that p equals a unit times the product of
    factor**multiplicity.  Rejects the zero polynomial.  Runs on the
    numerator polynomial with multivariate gcds and exact divisions: these
    agree with the gcds over the coefficient field up to factors free of v,
    so each factor is the same once made monic, at the end.
    """
    u = _as_unipoly(p, v)
    P = u.num
    if not P:
        raise ValueError("squarefree decomposition of the zero polynomial")
    if P.degree(v) == 0:
        return []
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
    return [(UniPoly(u.F, v, fac, _lc(fac, v)), m) for fac, m in out]


def _subresultant(A, B, v):
    """res_v(A, B) of two nonzero ring polynomials, by the subresultant
    PRS (Cohen, *A Course in Computational Algebraic Number Theory*,
    Alg. 3.3.7, without content removal); every division is exact.  sympy's
    own top-level ``resultant(z - 1, z**3, z)`` gives -1 where the Sylvester
    determinant gives 1, so it is not used."""
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
    """Resultant of two UniPolys, as a field element.

    Fraction-free: the subresultant PRS runs on the numerators, and the
    denominators come out once, res(a, b) = res(a.num, b.num) /
    (a.den**deg b * b.den**deg a), with one cancel.
    """
    F = a.F
    da, db = a.degree, b.degree
    if da < 0 or db < 0:
        return F.zero
    res = _subresultant(a.num, b.num, a.v)
    if not res:
        return F.zero
    return F.new(res, a.den**db * b.den**da)


class ClearedBasis(NamedTuple):
    """Field elements b_1, ..., b_k over one common denominator: ``den`` is
    a polynomial and ``polys[j]`` the polynomial b_{j+1} * den."""

    den: object
    polys: tuple


def solve_linear_system(rows, rhs):
    """Solve A c = rhs exactly over Q by Gaussian elimination.

    ``rows`` is a list of lists of Fractions (one list per equation), ``rhs``
    a list of Fractions.  Returns a solution as a list of Fractions (free
    variables set to zero) or None when the system is inconsistent.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    aug = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = []
    prow = 0
    for col in range(ncols):
        pivot = None
        for r in range(prow, m):
            if aug[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        aug[prow], aug[pivot] = aug[pivot], aug[prow]
        pv = aug[prow][col]
        aug[prow] = [a / pv for a in aug[prow]]
        for r in range(m):
            if r != prow and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[prow])]
        pivots.append(col)
        prow += 1
        if prow == m:
            break
    for r in range(prow, m):
        if aug[r][ncols]:
            return None
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][ncols]
    return sol


def substitute(f, target_field, values):
    """Map a field element into target_field, sending generator i to values[i].

    ``values`` must contain one element of target_field per generator of the
    source field.  Raises ZeroDivisionError if the denominator vanishes.

    With values[i] = p_i/q_i and top_i the highest exponent of variable i in
    f, each term c*prod(x_i^e_i) of f's numerator and of its denominator
    becomes the polynomial c*prod(p_i^e_i * q_i^(top_i - e_i)).  Both sums
    carry the same factor prod(q_i^top_i), so their quotient is the image,
    reduced to lowest terms by one cancel.
    """
    ring = target_field.ring
    monos = f.numer.monoms() + f.denom.monoms()
    top = [max(m[i] for m in monos) for i in range(len(values))]
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
