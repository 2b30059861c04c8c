"""Exact arithmetic foundation.

Elements live in a fixed multivariate rational function field Q(x, t1, ..., tn)
backed by :mod:`sympy.polys.fields`.  Field elements (``FracElement``) are
immutable, automatically cancelled and kept in a canonical form, so equality is
structural.  Most field operations therefore run a multivariate gcd, the
``cancel``.  The two kernels that every layer calls, :func:`substitute` here
and ``Tower.diff``, build their numerator and denominator as plain
polynomials (``PolyElement``) and cancel exactly once, in ``F.new``.

On top of that this module provides recursive univariate views:
a :class:`UniPoly` is a polynomial in one designated variable whose
coefficients are field elements free of that variable.  All the classical
univariate machinery (division, gcd, Yun squarefree decomposition, resultants)
runs on these views with exact coefficient arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

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


class UniPoly:
    """Polynomial in one field variable with field-element coefficients.

    The coefficients must be free of the main variable; this is asserted at
    construction.  Instances are treated as immutable.
    """

    __slots__ = ("F", "v", "coeffs")

    def __init__(self, F, v, coeffs=None):
        self.F = F
        self.v = v
        cleaned = {}
        if coeffs:
            for k, c in coeffs.items():
                if c:
                    cleaned[k] = c
        self.coeffs = cleaned

    @classmethod
    def zero(cls, F, v):
        return cls(F, v)

    @classmethod
    def constant(cls, F, v, c):
        return cls(F, v, {0: c})

    @classmethod
    def gen(cls, F, v):
        return cls(F, v, {1: F.one})

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return max(self.coeffs) if self.coeffs else -1

    def lc(self):
        return self.coeffs[self.degree] if self.coeffs else self.F.zero

    def coeff(self, k):
        return self.coeffs.get(k, self.F.zero)

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.v == other.v
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, self.F.zero) + c
        return UniPoly(self.F, self.v, out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, self.F.zero) - c
        return UniPoly(self.F, self.v, out)

    def __neg__(self):
        return UniPoly(self.F, self.v, {k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return self.scale(other)
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                prod = c1 * c2
                out[k] = out.get(k, self.F.zero) + prod
        return UniPoly(self.F, self.v, out)

    def scale(self, c):
        """Multiply by a field element free of the main variable."""
        return UniPoly(self.F, self.v, {k: a * c for k, a in self.coeffs.items()})

    def pow(self, e: int):
        out = UniPoly.constant(self.F, self.v, self.F.one)
        for _ in range(e):
            out = out * self
        return out

    def divmod(self, other):
        """Exact euclidean division; coefficients live in a field."""
        if other.is_zero():
            raise ZeroDivisionError("UniPoly division by zero")
        q = {}
        rem = dict(self.coeffs)

        def deg(d):
            return max(d) if d else -1

        dlc = other.lc()
        dd = other.degree
        while deg(rem) >= dd:
            k = deg(rem)
            c = rem[k] / dlc
            q[k - dd] = c
            for j, b in other.coeffs.items():
                key = k - dd + j
                val = rem.get(key, self.F.zero) - c * b
                if val:
                    rem[key] = val
                elif key in rem:
                    del rem[key]
        return UniPoly(self.F, self.v, q), UniPoly(self.F, self.v, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero():
            return self
        inv = self.F.one / self.lc()
        return self.scale(inv)

    def formal_derivative(self):
        """d/dv, ignoring any dependence of the coefficients on other variables."""
        return UniPoly(
            self.F, self.v, {k - 1: c * k for k, c in self.coeffs.items() if k}
        )

    def map_coeffs(self, fn):
        return UniPoly(self.F, self.v, {k: fn(c) for k, c in self.coeffs.items()})

    def to_frac(self):
        """Collapse back into a single field element."""
        gen = self.F.gens[self.v]
        out = self.F.zero
        for k, c in self.coeffs.items():
            out += c * gen**k
        return out

    def __repr__(self):
        name = self.F.symbols[self.v]
        if self.is_zero():
            return "0"
        parts = [
            f"({c})*{name}^{k}" for k, c in sorted(self.coeffs.items(), reverse=True)
        ]
        return " + ".join(parts)


def poly_to_unipoly(F, p, v) -> UniPoly:
    """View a sympy PolyElement as a UniPoly in variable index v."""
    out = {}
    for mono, c in p.terms():
        k = mono[v]
        rest = list(mono)
        rest[v] = 0
        coeff = F.ring.term_new(tuple(rest), c)
        cur = out.get(k)
        out[k] = (cur + coeff) if cur is not None else coeff
    return UniPoly(F, v, {k: F.raw_new(c, F.ring.one) for k, c in out.items()})


def frac_to_unipair(f, v):
    """Split a field element into (numerator, denominator) UniPolys in v."""
    F = f.field
    return poly_to_unipoly(F, f.numer, v), poly_to_unipoly(F, f.denom, v)


def split_proper_poly(f, v):
    """Write f = proper + poly with respect to variable index v.

    ``proper`` is a field element whose numerator degree in v is below its
    denominator degree; ``poly`` is a UniPoly in v over the remaining
    variables.  This is plain polynomial division of the univariate view.
    """
    F = f.field
    num, den = frac_to_unipair(f, v)
    if den.degree == 0:
        return F.zero, num.scale(F.one / den.lc())
    q, r = num.divmod(den)
    proper = f - q.to_frac()
    return proper, q


def poly_gcd(a, b, v):
    """Monic gcd in variable v over the fraction field of the other variables.

    Accepts field elements whose denominators are free of v (denominators in
    the remaining variables are units here).  gcd(0, 0) = 0.
    """
    pa = _as_unipoly(a, v)
    pb = _as_unipoly(b, v)
    return unipoly_gcd(pa, pb).to_frac()


def _as_unipoly(a, v) -> UniPoly:
    if isinstance(a, UniPoly):
        return a
    num, den = frac_to_unipair(a, v)
    if den.degree > 0:
        raise ValueError("denominator must be free of the gcd variable")
    return num.scale(a.field.one / den.lc())


def unipoly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Euclidean gcd over field coefficients, normalized monic."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def unipoly_xgcd(a: UniPoly, b: UniPoly):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g monic."""
    F, v = a.F, a.v
    one = UniPoly.constant(F, v, F.one)
    zero = UniPoly.zero(F, v)
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = F.one / r0.lc()
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


def squarefree_decomposition(p, v):
    """Yun's algorithm in characteristic zero.

    Returns a list of (monic factor, multiplicity) pairs with strictly
    increasing multiplicities such that p equals a unit times the product of
    factor**multiplicity.  Rejects the zero polynomial.
    """
    poly = _as_unipoly(p, v)
    if poly.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    poly = poly.monic()
    if poly.degree == 0:
        return []
    dp = poly.formal_derivative()
    g = unipoly_gcd(poly, dp)
    out = []
    if g.degree == 0:
        return [(poly, 1)]
    w = poly // g
    y = dp // g
    z = y - w.formal_derivative()
    mult = 1
    while not z.is_zero():
        fac = unipoly_gcd(w, z)
        if fac.degree > 0:
            out.append((fac, mult))
        w = w // fac
        y = z // fac
        z = y - w.formal_derivative()
        mult += 1
    if w.degree > 0:
        out.append((w, mult))
    return out


def unipoly_resultant(a: UniPoly, b: UniPoly):
    """Resultant of two UniPolys via the euclidean recurrence.

    Coefficients live in a field, so plain remainder sequences are exact.
    Returns a field element.
    """
    F = a.F
    da, db = a.degree, b.degree
    if da < 0 or db < 0:
        return F.zero
    if da == 0 and db == 0:
        return F.one
    if da < db:
        sign = F.one if (da * db) % 2 == 0 else -F.one
        return sign * unipoly_resultant(b, a)
    if db == 0:
        return b.lc() ** da
    r = a % b
    dr = r.degree
    if dr < 0:
        return F.zero
    sign = F.one if (da * db) % 2 == 0 else -F.one
    return sign * b.lc() ** (da - dr) * unipoly_resultant(b, r)


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
