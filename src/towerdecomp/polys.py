"""Sparse integer polynomials and their fractions: the tower field's types.

A :class:`Poly` is a dict ``{monomial: int}`` without zero values, in the
variables of its :class:`PolyRing`.  A monomial is one int, a packed
exponent vector (:mod:`towerdecomp.gcdheu`): ``W`` = 16 bits per variable,
15 exponent bits below a guard bit, with the first variable in the highest
field.  Int order is then lex order with the first variable most
significant, so the leading monomial is ``max(p)``; a product of monomials
is their sum, and a degree is a shift and a mask.  An exponent that would
reach 2**15 raises ``ExponentOverflow``: every product and power checks
its result's guard bits once.  The layout is private to this module and
:mod:`towerdecomp.gcdheu`; other modules use the methods, and exponent
tuples at the boundary: ``terms()`` yields them, and ``from_dict``,
``term_new``, ``pack`` and calling the ring with a dict take them.
``set_ring`` goes by position when one ring's names begin with the
other's, as the residue ring's Q(x, t1, ..., tn, _z) do even for a
generator named ``_z``, and by name otherwise.  A :class:`Frac` of a
:class:`FracField` is a numerator over a denominator, two polynomials of
the field's ring.  Every field ``+ - * /`` returns it in canonical form:
numerator and denominator coprime in Z[x, t1, ..., tn], integer content
included, and the denominator's leading coefficient positive.  Equality is
then structural, and a constant compares and hashes as its int or
Fraction.  ``* /`` and a sum over one denominator take one ``cancel``; a
sum over two denominators b and d adds as Henrici does (Knuth, TAOCP
vol. 2, 4.5.1): with e = gcd(b, d) from one ``cofactors``, a/b + c/d =
(a*(d/e) + c*(b/e))/(b*(d/e)), whose numerator shares no factor with
b/e or d/e, so it is cancelled only against e, and not at all when e = 1.

The arithmetic only has to be exact and canonical.  The gcd is unique once
its leading coefficient is positive, and ``cofactors`` returns it so: a
zero check, a one-term shortcut, then one exact division, whether the
primitive part of the operand with fewer terms (either, at equal counts)
divides the other, and only then the heuristic gcd of
:mod:`towerdecomp.gcdheu`, with h and both cofactors negated where the
heuristic, as sympy 1.14's ``PolyElement`` does, finds -h as f/cff or
g/cfg.  The division runs only when the divisor's leading and trailing
monomials divide the other's and its value at (1, ..., 1) divides the
other's, and a hit is the gcd that the heuristic would return; the
Henrici sum and ``Tower.diff`` take a denominator cofactor from it
unchecked.  Every canonical form is sympy's.  The one division is exact:
``exact_quo`` and ``cofactors`` run the gcd's own trial division,
:func:`towerdecomp.gcdheu._exquo`.  A negative power of a fraction is
made canonical, where sympy's keeps the sign of the swapped denominator.
A ring's polynomials are a subclass that holds the ring as a class
attribute.  Nothing here imports sympy, except :meth:`FracField.from_expr`
and :attr:`FracField.symbols`, for callers that hold sympy expressions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add, mul, or_

from .errors import ExponentOverflow
from .gcdheu import EMAX, FIELD, W, _exquo, guard_mask, heugcd

_NINF = float("-inf")


class ExactQuotientFailed(ArithmeticError):
    """A polynomial does not divide another exactly over Z."""


def _overflow():
    return ExponentOverflow(f"an exponent would pass {EMAX}")


def _monomial_min(a, b, guard):
    """The field-wise minimum of two packed monomials: (a | guard) - b keeps
    a field's guard bit exactly where a's exponent is at least b's, and
    those fields take b's."""
    ge = ((a | guard) - b) & guard
    return a ^ ((a ^ b) & (ge - (ge >> W - 1)))


class PolyRing:
    """Z[names], sparse and lex-ordered; its elements are of ``self.dtype``,
    a :class:`Poly` subclass bound to the ring."""

    def __init__(self, names):
        self.names = tuple(names)
        self.ngens = n = len(self.names)
        # the bit offset of each variable's field, the first one highest
        self.shifts = tuple(W * (n - 1 - i) for i in range(n))
        self.guard = guard_mask(n)
        self.dtype = type("Poly", (Poly,), {"__slots__": (), "ring": self})
        self.gens = tuple(self.dtype({1 << s: 1}) for s in self.shifts)

    def __repr__(self):
        return f"PolyRing({list(self.names)})"

    @property
    def zero(self):
        return self.dtype()

    @property
    def one(self):
        return self.dtype({0: 1})

    def __call__(self, element):
        """The polynomial of a dict of terms keyed by exponent tuples or of
        an integer."""
        if isinstance(element, dict):
            return self.from_dict(element)
        return self.ground_new(element)

    def pack(self, monom):
        """The packed monomial of an exponent tuple."""
        if len(monom) != self.ngens:
            raise ValueError(f"{self.ngens} exponents expected, got {monom!r}")
        m = 0
        for e in monom:
            if e < 0:
                raise ValueError(f"negative exponent in {monom!r}")
            if e > EMAX:
                raise _overflow()
            m = m << W | e
        return m

    def unpack(self, m):
        """The exponent tuple of a packed monomial."""
        return tuple(m >> s & FIELD for s in self.shifts)

    def from_dict(self, terms):
        """The polynomial of ``{exponent tuple: int}``."""
        pack = self.pack
        return self.dtype({pack(m): c for m, c in terms.items() if c})

    def ground_new(self, coeff):
        return self._term(0, coeff)

    def term_new(self, monom, coeff):
        """The term ``coeff * x**monom`` of an exponent tuple."""
        return self._term(self.pack(monom), coeff)

    def _term(self, m, coeff):
        if not isinstance(coeff, int):
            raise TypeError(f"integer coefficient expected, got {coeff!r}")
        return self.dtype({m: coeff} if coeff else ())


class Poly(dict):
    """A polynomial of a :class:`PolyRing`: ``{packed monomial: nonzero int}``.

    Treated as immutable once built; every operation returns a new one.
    """

    __slots__ = ()
    ring: PolyRing = None

    def copy(self):
        return self.ring.dtype(self)

    def __hash__(self):
        # the ring takes no part, as in ``==``; a constant hashes as its int
        if self.is_ground:
            return hash(self.get(0, 0))
        return hash(frozenset(self.items()))

    def __repr__(self):
        return self.render(self.ring.names)

    __str__ = __repr__

    def render(self, names, latex=False):
        """The text of the polynomial in the variable names ``names``,
        leading term first: ``2*x^2*t1 - 1``, or LaTeX with ``latex``."""
        if not self:
            return "0"
        out = ""
        for mono, c in self.terms():
            factors = [
                name if e == 1 else f"{name}^{{{e}}}" if latex else f"{name}^{e}"
                for name, e in zip(names, mono)
                if e
            ]
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            term = ("\\cdot " if latex else "*").join(factors)
            if not out:
                out = f"-{term}" if c < 0 else term
            else:
                out += f" - {term}" if c < 0 else f" + {term}"
        return out

    # -- comparison ---------------------------------------------------------

    def __eq__(p1, p2):
        if isinstance(p2, Poly):
            return dict.__eq__(p1, p2)
        if isinstance(p2, dict):
            # else Python falls back to dict.__eq__, and {} == zero
            return False
        if not isinstance(p2, (int, Fraction)):
            return NotImplemented
        return p1.is_ground and p1.get(0, 0) == p2

    def __ne__(p1, p2):
        return not p1 == p2

    # -- structure ----------------------------------------------------------

    @property
    def is_ground(self):
        return not self or (len(self) == 1 and 0 in self)

    @property
    def is_one(self):
        return len(self) == 1 and self.get(0) == 1

    @property
    def LC(self):
        return self[max(self)] if self else 0

    def degree(self, i=0):
        """Degree in variable index i; -inf for zero."""
        if not self:
            return _NINF
        s = self.ring.shifts[i]
        if not i:
            return max(self) >> s
        return max(m >> s & FIELD for m in self)

    def degrees(self):
        if not self:
            return (_NINF,) * self.ring.ngens
        return tuple(max(m >> s & FIELD for m in self) for s in self.ring.shifts)

    def terms(self):
        """(exponent tuple, coefficient) pairs, leading term first."""
        unpack = self.ring.unpack
        return [(unpack(m), c) for m, c in sorted(self.items(), reverse=True)]

    def coeff_wrt(self, i, deg):
        """The coefficient of x_i**deg, a polynomial free of x_i."""
        s = self.ring.shifts[i]
        mask, target = FIELD << s, deg << s
        return self.ring.dtype(
            {m - target: c for m, c in self.items() if m & mask == target}
        )

    def lead_wrt(self, i):
        """(d, lc, red): the degree d in x_i, the coefficient lc of x_i**d,
        free of x_i, and the reductum red = self - lc*x_i**d, split in one
        pass; d is -inf for zero."""
        d = self.degree(i)
        dtype = self.ring.dtype
        if not self:
            return d, dtype(), dtype()
        s = self.ring.shifts[i]
        mask, top = FIELD << s, d << s
        lc, red = {}, {}
        for m, c in self.items():
            if m & mask == top:
                lc[m - top] = c
            else:
                red[m] = c
        return d, dtype(lc), dtype(red)

    def coeff_polys(self, i):
        """{k: coefficient of x_i**k}, each a polynomial free of x_i."""
        s = self.ring.shifts[i]
        clear = ~(FIELD << s)
        buckets = {}
        for m, c in self.items():
            buckets.setdefault(m >> s & FIELD, {})[m & clear] = c
        return {k: self.ring.dtype(d) for k, d in buckets.items()}

    def free_of(self, indices):
        """True iff none of the variables of the given indices occurs."""
        shifts = self.ring.shifts
        mask = sum(FIELD << shifts[i] for i in indices)
        return not any(m & mask for m in self)

    # -- ring operations ----------------------------------------------------

    def __neg__(self):
        return self.ring.dtype({m: -c for m, c in self.items()})

    def __add__(p1, p2):
        if not isinstance(p2, Poly):
            return NotImplemented
        p = p1.copy()
        get = p.get
        for k, v in p2.items():
            v = get(k, 0) + v
            if v:
                p[k] = v
            else:
                del p[k]
        return p

    def __sub__(p1, p2):
        if not isinstance(p2, Poly):
            return NotImplemented
        p = p1.copy()
        get = p.get
        for k, v in p2.items():
            v = get(k, 0) - v
            if v:
                p[k] = v
            else:
                del p[k]
        return p

    def __mul__(p1, p2):
        ring = p1.ring
        if isinstance(p2, Poly):
            p = ring.dtype()
            if not p1 or not p2:
                return p
            get = p.get
            p2it = list(p2.items())
            for exp1, v1 in p1.items():
                for exp2, v2 in p2it:
                    exp = exp1 + exp2
                    p[exp] = get(exp, 0) + v1 * v2
            return p._strip_zero()._checked()
        if isinstance(p2, int):
            return p1.mul_ground(p2)
        return NotImplemented

    def _checked(p):
        """p, whose monomials are sums of two valid ones, so that no field
        has carried into the next; raises if one has reached its guard
        bit."""
        if reduce(or_, p, 0) & p.ring.guard:
            raise _overflow()
        return p

    def _strip_zero(p):
        for k in [k for k, v in p.items() if not v]:
            del p[k]
        return p

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError(f"exponent must be an integer, got {n}")
        if n < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {n}")
        ring = self.ring
        if not n:
            if self:
                return ring.one
            raise ValueError("0**0")
        if len(self) == 1:
            (monom, coeff), = self.items()
            # monom * n carries from a field that passes 2**16, so the
            # exponents are checked before the product
            if monom and max(ring.unpack(monom)) * n > EMAX:
                raise _overflow()
            return ring.dtype({monom * n: coeff if coeff == 1 else coeff**n})
        if n == 1:
            return self.copy()
        # square-and-multiply from the leading bit, starting at the base
        p = self
        for bit in bin(n)[3:]:
            p = p.square()
            if bit == "1":
                p = p * self
        return p

    def square(self):
        ring = self.ring
        p = ring.dtype()
        get = p.get
        keys = list(self.keys())
        for i in range(len(keys)):
            k1 = keys[i]
            pk = self[k1]
            for j in range(i):
                k2 = keys[j]
                exp = k1 + k2
                p[exp] = get(exp, 0) + pk * self[k2]
        for k in p:
            p[k] *= 2
        for k, v in self.items():
            k2 = k + k
            p[k2] = get(k2, 0) + v**2
        return p._strip_zero()._checked()

    def mul_ground(self, x):
        if not x:
            return self.ring.dtype()
        return self.ring.dtype({m: c * x for m, c in self.items()})

    def mul_monom(self, monom):
        """self times the packed monomial monom (``ring.pack``)."""
        return self.ring.dtype({m + monom: c for m, c in self.items()})._checked()

    def mul_gen(self, i, k):
        """self times x_i**k."""
        return self.mul_monom(k << self.ring.shifts[i])

    def content(self):
        """gcd of the coefficients, nonnegative."""
        cont = 0
        for c in self.values():
            cont = gcd(cont, c)
        return cont

    def primitive(self):
        """(content, primitive part); the part keeps the sign of f."""
        cont = self.content()
        return cont, self.quo_ground(cont)

    def quo_ground(self, x):
        """self divided by a positive integer x that divides every
        coefficient; self itself when x is 0 or 1."""
        if x < 2:
            return self
        return self.ring.dtype({m: c // x for m, c in self.items()})

    def diff(self, i):
        """Partial derivative in variable index i."""
        s = self.ring.shifts[i]
        one = 1 << s
        g = self.ring.dtype()
        for m, coeff in self.items():
            e = m >> s & FIELD
            if e:
                g[m - one] = coeff * e
        return g

    def derivation(self, multipliers):
        """sum(m_i * d(self)/dx_i) over the (i, m_i) pairs, each m_i a
        polynomial, accumulated into one dict: no partial derivative,
        product or partial sum is built on its own."""
        ring = self.ring
        out = ring.dtype()
        get = out.get
        for i, mult in multipliers:
            s = ring.shifts[i]
            one = 1 << s
            mult = list(mult.items())
            for m, c in self.items():
                e = m >> s & FIELD
                if e:
                    m -= one
                    c *= e
                    for mm, cm in mult:
                        k = m + mm
                        out[k] = get(k, 0) + c * cm
        return out._strip_zero()._checked()

    # -- division -----------------------------------------------------------

    def exact_quo(self, g):
        """self / g when g divides self exactly in Z[x, t], else None."""
        if not g:
            raise ZeroDivisionError("polynomial division")
        q = _exquo(self, g, self.ring.ngens)
        return None if q is None else self.ring.dtype(q)

    def exquo(self, g):
        q = self.exact_quo(g)
        if q is None:
            raise ExactQuotientFailed(f"{g} does not divide {self}")
        return q

    def prem(self, g, i=0):
        """Pseudo-remainder in variable index i:
        lc_i(g)**(deg_i f - deg_i g + 1) * f reduced modulo g, for
        deg_i f >= deg_i g >= 1, as the subresultant PRS orders them.
        Each step forms r <- red(r)*lc(g) - red(g)*lc(r)*x_i**j on the
        reductums (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R): the leading
        terms, which cancel, are never multiplied."""
        dg, lc_g, red_g = g.lead_wrt(i)
        dr, lc_r, red_r = self.lead_wrt(i)
        N = dr - dg + 1
        while dr >= dg:
            r = red_r * lc_g - (red_g * lc_r).mul_gen(i, dr - dg)
            N -= 1
            dr, lc_r, red_r = r.lead_wrt(i)
        return r * lc_g**N

    # -- gcd ----------------------------------------------------------------

    def gcd(self, g):
        return self.cofactors(g)[0]

    def lcm(self, g):
        """lcm over Z: the lcm of the primitive parts times the lcm of the
        integer contents.  The lcm of the parts is f*(g/gcd), which equals
        sympy's f*g/gcd, with g/gcd the cofactor ``cofactors`` returns."""
        if not self and not g:
            raise ZeroDivisionError("lcm(0, 0)")
        fc, f = self.primitive()
        gc, g = g.primitive()
        c = lcm(fc, gc)
        return (f * f.cofactors(g)[2]).mul_ground(c)

    def cofactors(f, g):
        """(h, cff, cfg) with h = gcd(f, g), f = h*cff and g = h*cfg."""
        if not f and not g:
            zero = f.ring.zero
            return zero, zero, zero
        if not f:
            return f._gcd_zero(g)
        if not g:
            h, cfg, cff = g._gcd_zero(f)
            return h, cff, cfg
        if len(f) == 1:
            return f._gcd_monom(g)
        if len(g) == 1:
            h, cfg, cff = g._gcd_monom(f)
            return h, cff, cfg
        if len(f) <= len(g) and (out := f._gcd_divisor(g)):
            return out
        if len(g) <= len(f) and (out := g._gcd_divisor(f)):
            h, cfg, cff = out
            return h, cff, cfg
        dtype = f.ring.dtype
        h, cff, cfg = heugcd(f, g, f.ring.ngens)
        h, cff, cfg = dtype(h), dtype(cff), dtype(cfg)
        # the heuristic finds h as f/cff or g/cfg, of their sign
        return (-h, -cff, -cfg) if h.LC < 0 else (h, cff, cfg)

    def _gcd_divisor(f, g):
        """(h, cff, cfg) when the primitive part pf of f divides g, else
        None.  A divisor's leading and trailing monomials divide g's, and
        pf(1, ..., 1) divides g(1, ..., 1), which must be 0 when pf(1, ...,
        1) is: three integer tests ahead of the one exact division.  On a
        hit the gcd is gcd(content(f), content(g)) * pf, its leading
        coefficient made positive, where content(g) is the quotient's, as
        pf is primitive (Gauss's lemma)."""
        lm = max(f)
        guard = f.ring.guard
        if (max(g) - lm) & guard or (min(g) - min(f)) & guard:
            return None
        cf = f.content()
        f1, g1 = sum(f.values()) // cf, sum(g.values())
        if g1 % f1 if f1 else g1:
            return None
        pf = f.quo_ground(cf)
        q = _exquo(g, pf, f.ring.ngens)
        if q is None:
            return None
        c = gcd(cf, *q.values())
        if f[lm] < 0:
            c = -c
        dtype = f.ring.dtype
        return pf.mul_ground(c), dtype({0: cf // c}), dtype({m: a // c for m, a in q.items()})

    def _gcd_zero(f, g):
        one, zero = f.ring.one, f.ring.zero
        if g.LC >= 0:
            return g, zero, one
        return -g, zero, -one

    def _gcd_monom(f, g):
        ring = f.ring
        guard = ring.guard
        (mf, cf), = f.items()
        _mgcd, _cgcd = mf, cf
        for mg, cg in g.items():
            _mgcd = _monomial_min(_mgcd, mg, guard)
            _cgcd = gcd(_cgcd, cg)
        h = ring.dtype({_mgcd: _cgcd})
        cff = ring.dtype({mf - _mgcd: cf // _cgcd})
        cfg = ring.dtype({mg - _mgcd: cg // _cgcd for mg, cg in g.items()})
        return h, cff, cfg

    def cancel(self, g):
        """(p, q) with p/q = self/g in lowest terms over Z and lc(q) > 0."""
        f = self
        if not f:
            return f, f.ring.one
        if g.is_one:
            return f, g
        _, p, q = f.cofactors(g)
        if q.LC < 0:
            p, q = -p, -q
        return p, q

    def set_ring(self, ring):
        """The same polynomial in a ring whose variables include every
        variable that occurs in it: matched by position when one ring's
        names begin with the other's, so that each monomial moves by one
        shift, and otherwise by name."""
        a, b = self.ring.names, ring.names
        if a == b[: len(a)] or b == a[: len(b)]:
            k = W * (len(b) - len(a))
            if k >= 0:
                return ring.dtype({m << k: c for m, c in self.items()})
            if any(m & ((1 << -k) - 1) for m in self):
                raise ValueError(f"{self} involves a variable beyond {ring}")
            return ring.dtype({m >> -k: c for m, c in self.items()})
        index = {name: i for i, name in enumerate(ring.names)}
        moves = []
        for s, name in zip(self.ring.shifts, self.ring.names):
            if name in index:
                moves.append((s, ring.shifts[index[name]]))
            elif any(m >> s & FIELD for m in self):
                raise ValueError(f"{name} is not a variable of {ring}")
        return ring.dtype(
            {sum((m >> a & FIELD) << b for a, b in moves): c for m, c in self.items()}
        )


class FracField:
    """Q(names) as fractions of Z[names]; its elements are of ``self.dtype``,
    a :class:`Frac` subclass bound to the field."""

    def __init__(self, names):
        self.names = tuple(names)
        self.ring = ring = PolyRing(self.names)
        self.ngens = ring.ngens
        self.dtype = type("Frac", (Frac,), {"__slots__": (), "field": self})
        one = ring.one
        self.zero = self.dtype(ring.zero, one)
        self.one = self.dtype(ring.one, one)
        self.gens = tuple(self.dtype(g, one) for g in ring.gens)

    def __repr__(self):
        return f"FracField({list(self.names)})"

    @property
    def symbols(self):
        """The variables as sympy Symbols; imports sympy."""
        from sympy import Symbol

        return tuple(Symbol(name) for name in self.names)

    def raw_new(self, numer, denom):
        """numer/denom as given, with no cancel."""
        return self.dtype(numer, denom)

    def ground(self, c):
        """The element of an int or a Fraction c, its numerator over its
        denominator, which is canonical with no cancel; None for any other
        c."""
        if isinstance(c, (int, Fraction)):
            ring = self.ring
            return self.dtype(ring.ground_new(c.numerator), ring.ground_new(c.denominator))
        return None

    def new(self, numer, denom):
        """numer/denom in canonical form, with one cancel."""
        return self.dtype(*numer.cancel(denom))

    def from_expr(self, expr):
        """The element of a sympy expression in ``self.symbols``, built by
        the field's own operations; imports sympy."""
        from sympy import S, sympify

        mapping = dict(zip(self.symbols, self.gens))

        def rebuild(e):
            g = mapping.get(e)
            if g is not None:
                return g
            if e.is_Add:
                return reduce(add, map(rebuild, e.args))
            if e.is_Mul:
                return reduce(mul, map(rebuild, e.args))
            if e.is_Pow:
                b, k = e.as_base_exp()
                if k.is_Integer and k is not S.One:
                    return rebuild(b) ** int(k)
            if e.is_Rational:
                return Fraction(int(e.p), int(e.q))
            raise ValueError(
                f"expected a rational function in {', '.join(self.names)}, got {e}"
            )

        value = rebuild(sympify(expr))
        return value if isinstance(value, Frac) else self.one * value


class Frac:
    """An element of a :class:`FracField`: ``numer/denom``.

    An int or a Fraction operand of ``== + - * /`` acts as its element
    ``field.ground(c)``; any other operand that is not of the same field's
    class, an element of another field included, is NotImplemented.  An
    element is built by its field: ``field.new`` cancels, ``field.raw_new``
    takes the pair as given.
    """

    __slots__ = ("numer", "denom")
    field: FracField = None

    def __init__(self, numer, denom):
        if not denom:
            raise ZeroDivisionError("zero denominator")
        self.numer = numer
        self.denom = denom

    def set_field(self, field):
        """The same element in a field whose variables include its own,
        matched by name, with one cancel."""
        if field is self.field:
            return self
        return field.new(self.numer.set_ring(field.ring), self.denom.set_ring(field.ring))

    def __hash__(self):
        # a constant hashes as its Fraction, as it compares
        numer, denom = self.numer, self.denom
        if numer.is_ground and denom.is_ground:
            return hash(Fraction(numer.LC, denom.LC))
        return hash((numer, denom))

    def __repr__(self):
        if self.denom.is_one:
            return str(self.numer)
        return f"({self.numer})/({self.denom})"

    __str__ = __repr__

    def __eq__(f, g):
        if g.__class__ is not f.__class__ and (g := f.field.ground(g)) is None:
            return NotImplemented
        return f.numer == g.numer and f.denom == g.denom

    def __bool__(f):
        return bool(f.numer)

    def __neg__(f):
        return f.__class__(-f.numer, f.denom)

    def __add__(f, g):
        if g.__class__ is not f.__class__ and (g := f.field.ground(g)) is None:
            return NotImplemented
        if not g:
            return f
        if not f:
            return g
        if f.denom == g.denom:
            return f.__class__(*(f.numer + g.numer).cancel(f.denom))
        # Henrici: with e = gcd(b, d), a/b + c/d = (a*(d/e) + c*(b/e))/(b*(d/e)),
        # and that numerator can share a factor only with e
        e, b1, d1 = f.denom.cofactors(g.denom)
        numer = f.numer * d1 + g.numer * b1
        if e.is_one:
            return f.__class__(numer, f.denom * d1)
        _, numer, e1 = numer.cofactors(e)
        return f.__class__(numer, b1 * d1 * e1)

    __radd__ = __add__

    def __sub__(f, g):
        if g.__class__ is not f.__class__ and (g := f.field.ground(g)) is None:
            return NotImplemented
        return f + -g

    def __rsub__(f, c):
        if (c := f.field.ground(c)) is None:
            return NotImplemented
        return c - f

    def __mul__(f, g):
        if g.__class__ is not f.__class__ and (g := f.field.ground(g)) is None:
            return NotImplemented
        if not f or not g:
            return f.field.zero
        return f.__class__(*(f.numer * g.numer).cancel(f.denom * g.denom))

    __rmul__ = __mul__

    def __truediv__(f, g):
        if g.__class__ is not f.__class__ and (g := f.field.ground(g)) is None:
            return NotImplemented
        if not g:
            raise ZeroDivisionError
        return f.__class__(*(f.numer * g.denom).cancel(f.denom * g.numer))

    def __rtruediv__(f, c):
        if (c := f.field.ground(c)) is None:
            return NotImplemented
        return c / f

    def __pow__(f, n):
        """f**n with no cancel.  A negative power swaps numerator and
        denominator and negates both when the new denominator's leading
        coefficient is negative, so a canonical f gives a canonical power;
        sympy's ``FracElement`` keeps ``1/(-x)``."""
        if n >= 0:
            return f.__class__(f.numer**n, f.denom**n)
        if not f:
            raise ZeroDivisionError
        numer, denom = f.denom**-n, f.numer**-n
        if denom.LC < 0:
            numer, denom = -numer, -denom
        return f.__class__(numer, denom)
