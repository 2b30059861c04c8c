"""Differential towers over Q(x).

A :class:`Tower` is an ordered list of generators t1, ..., tn over the base
field Q(x) with x' = 1.  Each generator is either logarithmic (its derivative
is argument'/argument) or an explicit primitive (its derivative is given
directly); either way the derivative must involve only earlier variables.
Towers are immutable once built; validation results are cached.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import ClearedBasis, free_of, make_field, substitute, sum_pairs
from .errors import (
    HeadMonomialNotOne,
    TowerDecompError,
    TowerNotSPrimitive,
    ZeroArgument,
)
from .polys import FracField

LOG = "log"
PRIM = "prim"

S_PRIMITIVE = "s-primitive"
REJECTED = "rejected"


class FormalProduct:
    """A formal power product of field elements with rational exponents.

    Used as the argument of a logarithmic generator.  log of the product is
    understood as the corresponding combination of logarithms, so its
    derivative is sum(exp * base'/base).
    """

    __slots__ = ("factors",)

    def __init__(self, factors):
        cleaned = []
        for base, exp in factors:
            exp = Fraction(exp)
            if not base:
                raise ZeroArgument("zero base in logarithm argument")
            if exp:
                cleaned.append((base, exp))
        self.factors = tuple(cleaned)

    @classmethod
    def single(cls, base):
        return cls([(base, Fraction(1))])

    def combine(self, other, coeff):
        """self * other**coeff, merging equal bases."""
        merged = list(self.factors)
        for base, exp in other.factors:
            for k, (b, e) in enumerate(merged):
                if b == base:
                    merged[k] = (b, e + exp * coeff)
                    break
            else:
                merged.append((base, exp * coeff))
        return FormalProduct(merged)

    def substitute(self, F, values):
        """The product with each base mapped into F by ``arith.substitute``."""
        return FormalProduct([(substitute(b, F, values), e) for b, e in self.factors])

    def collapse(self):
        """The product as a single field element, or None for fractional
        exponents or for no factor, whose field is unknown."""
        if not self.factors:
            return None
        F = self.factors[0][0].field
        out = F.one
        for base, exp in self.factors:
            if exp.denominator != 1:
                return None
            out *= base ** int(exp)
        return out

    def __eq__(self, other):
        return isinstance(other, FormalProduct) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return " * ".join(f"({b})^{e}" for b, e in self.factors) or "1"


class Record:
    """Base of the package's immutable records.

    A record names its fields in ``__slots__`` and the defaults of trailing
    fields in ``_defaults``.  It is built from its fields by position or by
    keyword, and a missing, extra or unknown field raises TypeError;
    afterwards no field can be assigned or deleted.  Two records are equal
    when they have the same class and equal fields, and hash and repr read
    the fields in slot order.
    """

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        kind = type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{kind} has {len(names)} fields, got {len(args)} values")
        fields = dict(self._defaults)
        fields.update(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in names[: len(args)]:
                raise TypeError(f"{kind} got an unknown or repeated field {name!r}")
            fields[name] = value
        for name in names:
            if name not in fields:
                raise TypeError(f"{kind} is missing the field {name!r}")
            object.__setattr__(self, name, fields[name])

    def _key(self):
        """The fields that equality, hash and order compare."""
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Generator(Record):
    """A generator of a tower: its ``name``, its ``kind`` (LOG or PRIM), its
    ``derivative``, an element of the tower field, and for LOG its
    ``argument``, a FormalProduct."""

    __slots__ = ("name", "kind", "derivative", "argument")
    _defaults = {"argument": None}


class ValidationResult(Record):
    """The ``status`` of a tower's validation, S_PRIMITIVE or REJECTED; for
    REJECTED the ``reason``, the index of the ``generator`` at fault and,
    when its derivative depends on earlier ones, the dependence coefficients
    as ``certificate``."""

    __slots__ = ("status", "reason", "generator", "certificate")
    _defaults = {"reason": "", "generator": None, "certificate": None}

    @property
    def ok(self):
        return self.status == S_PRIMITIVE


class TowerElement(Record):
    """A ``value``, an element of the tower field, with its ``tower``."""

    __slots__ = ("value", "tower")

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        if isinstance(other, TowerElement):
            return self.tower is other.tower and self.value == other.value
        return self.value == other

    def __hash__(self):
        # as ``==``, which compares a raw value or an int with the value
        return hash(self.value)

    def __repr__(self):
        return f"TowerElement({self.value})"


def expect(value, cls):
    """value when it is a cls, else a TypeError naming cls: the one gate of
    the public functions' tower and element arguments."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"expected {article} {cls.__name__}, got {type(value).__name__}")
    return value


def _in_field(F, value):
    """value as an element of the field F: an int or a Fraction through
    ``F.ground``, an element of F as it is, anything else a TypeError."""
    if isinstance(value, (int, Fraction)):
        return F.ground(value)
    if not isinstance(value, F.dtype):
        raise TypeError(f"expected an element of {F!r}, got {value!r}")
    return value


class TowerBuilder:
    """Incremental construction: the field exists up front so that generator
    arguments can be written in terms of earlier generators.  ``build``
    hands the declarations to ``Tower``, which checks them."""

    def __init__(self, gen_names, base_name="x"):
        names = [base_name] + list(gen_names)
        if len(set(names)) != len(names):
            raise TowerDecompError("duplicate variable names in tower")
        self.F, self.gens = make_field(names)
        self._specs = []

    @property
    def x(self):
        return self.gens[0]

    def log(self, argument):
        """Declare the next generator as log(argument)."""
        self._specs.append((LOG, argument))
        return self

    def prim(self, derivative):
        """Declare the next generator with an explicit derivative."""
        self._specs.append((PRIM, derivative))
        return self

    def build(self) -> "Tower":
        return Tower(self.F, self._specs)


class Tower:
    """An ordered primitive tower on the field F = Q(x, t_1, ..., t_n), with
    F's names.  F that is not a FracField is a TypeError.  ``specs`` holds
    one (kind, payload) per generator of F: (LOG, an argument) or (PRIM, a
    derivative).  An argument is a FormalProduct or a lone base; every base
    and derivative is read by ``_in_field``, so a value of another field is
    a TypeError.  Another kind, or a list of another length, is a
    TowerDecompError.
    :class:`TowerBuilder` builds the field and the specs together."""

    def __init__(self, F, specs):
        self.n = n = expect(F, FracField).ngens - 1
        if len(specs) != n:
            raise TowerDecompError(f"expected {n} generator declarations, got {len(specs)}")
        self.F = F
        self.names = names = list(F.names)
        self.gens = list(F.gens)
        self.generators: list[Generator] = []
        self.derivs = []  # derivative of generator i at index i-1
        self._validation = None
        self._derivative_projections = None
        # L = lcm of the denominators b_i of t_i' = a_i/b_i, and one
        # (i, a_i*L/b_i) per nonzero t_i'; L*p' is then a polynomial for
        # every polynomial p.  Extended per generator, since the derivative
        # of a logarithmic generator needs the derivation of those below it;
        # _levels[i] keeps the pair for t_1..t_i, free of t_i and above.
        L, multipliers = F.ring.one, ()
        self._levels = [(L, multipliers)]
        for idx, (kind, payload) in enumerate(specs, start=1):
            if kind == LOG:
                if not isinstance(payload, FormalProduct):
                    payload = FormalProduct.single(payload)
                argument = FormalProduct([(_in_field(F, b), e) for b, e in payload.factors])
                for base, _ in argument.factors:
                    self._check_level(base, idx, f"argument of {names[idx]}")
                deriv = self.diff_log_combination(argument.factors)
            elif kind == PRIM:
                argument = None
                deriv = _in_field(F, payload)
                self._check_level(deriv, idx, f"derivative of {names[idx]}")
            else:
                raise TowerDecompError(f"unknown generator kind {kind!r} for {names[idx]}")
            self.generators.append(
                Generator(name=names[idx], kind=kind, derivative=deriv, argument=argument)
            )
            self.derivs.append(deriv)
            if deriv:
                # the ring's lcm over Z carries the lcm of the integer contents,
                # so L and the denominator divide it exactly in Z[x, t]
                lcm = L.lcm(deriv.denom)
                scale = lcm.exquo(L)
                multipliers = tuple((i, m * scale) for i, m in multipliers) + (
                    (idx, deriv.numer * lcm.exquo(deriv.denom)),
                )
                L = lcm
            self._levels.append((L, multipliers))

    def _check_level(self, value, idx, what):
        if not free_of(value, range(idx, self.n + 1)):
            raise TowerDecompError(
                f"{what} may only involve x and generators below {self.names[idx]}"
            )

    # -- basic differential structure -------------------------------------

    def __repr__(self):
        derivs = ", ".join(f"{g.name}' = {g.derivative}" for g in self.generators)
        return f"Tower({self.names[0]}; {derivs})"

    def element(self, value) -> TowerElement:
        """value as an element of the tower: a TowerElement of this tower as
        it is, an int, a Fraction or an element of the tower's field ``F``.
        A TowerElement of another tower is a TypeError, even when the two
        share a field: its value would be read with this tower's
        derivation."""
        if isinstance(value, TowerElement):
            if value.tower is not self:
                raise TypeError(f"expected an element of {self!r}, got one of {value.tower!r}")
            return value
        return TowerElement(_in_field(self.F, value), self)

    def diff(self, f):
        """The tower derivation ' = d/dx + sum(t_i' * d/dt_i), canonical.

        f' = P/(L*h*R^2) by ``_quotient_rule``.  Every prime factor of R
        divides D, so it divides neither N, coprime to D, nor E, coprime to
        R; P = -N*E modulo it, so P is coprime to R and its gcd with
        L*h*R^2 is its gcd with the small L*h (Bronstein, *Symbolic
        Integration I*, ch. 2).  Two gcds, of D with L*D' and of P with
        L*h, make the pair canonical, with no cancel against L*D^2; a
        ground D takes the second alone.  L, h, R and every gcd have
        positive leading coefficients, so the new denominator has one too.
        """
        P, L, h, R = self._quotient_rule(f.numer, f.denom, None)
        if not P:
            return self.F.zero
        _, P, den = P.cofactors(L * h)
        return self.F.raw_new(P, den * R**2)

    def diff_pair(self, p, level=None):
        """(L*p', L): the derivative of the polynomial p over the tower's L,
        a polynomial pair with no gcd, in one ``Poly.derivation`` pass,
        L*dp/dx + sum(t_i'*L * dp/dt_i).  With ``level`` = i the derivation
        of K_i is used, whose L is free of t_i and above; p must then lie in
        K_i."""
        L, multipliers = self._levels[-1 if level is None else level]
        return p.derivation(((0, L),) + multipliers), L

    def diff_pair_radical(self, N, D, level=None):
        """(N/D)' as an unreduced pair (num, den) over L*D*R, not L*D^2.

        With ``_quotient_rule``'s P and R, the pair is (P, L*D*R), equal to
        (L*N'*D - N*L*D')/(L*D^2) as a fraction; its caller, Hermite's
        steps, sees D with repeated factors, where R is about D's radical
        and L*D^2 far larger.  A
        ground D gives (L*N', L*D).  ``level`` is as for ``diff_pair``.
        """
        P, L, _, R = self._quotient_rule(N, D, level)
        return P, L * D * R

    def _quotient_rule(self, N, D, level):
        """(P, L, h, R) with (N/D)' = P/(L*h*R^2) and D = h*R: one
        ``cofactors`` gives (h, R, E) with h = gcd(D, L*D'), R = D/h and E =
        L*D'/h, and P = L*N'*R - N*E.  A ground D gives h = D and R = 1."""
        dN, L = self.diff_pair(N, level)
        if D.is_ground:
            return dN, L, D, D.ring.one
        h, R, E = D.cofactors(self.diff_pair(D, level)[0])
        return dN * R - N * E, L, h, R

    def is_constant_pair(self, N, D):
        """True iff (N/D)' = 0, for N/D in lowest terms.  As N and D are
        coprime, L*N'*D = N*L*D' holds exactly when D divides L*D' and L*N'
        = N*(L*D'/D): one exact division and one product, and no gcd."""
        E = self.diff_pair(D)[0].exact_quo(D)
        return E is not None and self.diff_pair(N)[0] == N * E

    def derivative_basis(self, m):
        """t_1', ..., t_m' over their common denominator L_m, the lcm of
        their denominators: ClearedBasis(L_m, (t_1' * L_m, ..., t_m' * L_m))."""
        L, multipliers = self._levels[m]
        cleared = dict(multipliers)
        zero = self.F.ring.zero
        return ClearedBasis(L, tuple(cleared.get(j, zero) for j in range(1, m + 1)))

    def diff_log_combination(self, pairs):
        """The derivative sum(c * b'/b) of sum(c * log b), for (b, c) pairs."""
        out = self.F.zero
        for base, exp in pairs:
            out += self.F.ground(exp) * self.diff(base) / base
        return out

    # -- validation --------------------------------------------------------

    def validate_s_primitive(self) -> ValidationResult:
        if self._validation is None:
            self._validation = self._validate()
        return self._validation

    def _validate(self) -> ValidationResult:
        from .decomp import solve_constant_combination_values
        from .matryoshka import is_simple_value

        for i, d in enumerate(self.derivs, start=1):
            if not d:
                return ValidationResult(
                    REJECTED, f"derivative of {self.names[i]} is zero", i
                )
            ok, why = is_simple_value(self, d)
            if not ok:
                return ValidationResult(
                    REJECTED,
                    f"derivative of {self.names[i]} is not simple: {why}",
                    i,
                )
        for i in range(2, self.n + 1):
            coeffs = solve_constant_combination_values(
                self.F, self.derivs[i - 1], self.derivative_basis(i - 1)
            )
            if coeffs is not None:
                return ValidationResult(
                    REJECTED,
                    f"derivative of {self.names[i]} depends on earlier derivatives",
                    i,
                    certificate=tuple(coeffs),
                )
        return ValidationResult(S_PRIMITIVE)

    def ensure_s_primitive(self):
        result = self.validate_s_primitive()
        if not result.ok:
            raise TowerNotSPrimitive(f"not S-primitive: {result.reason}")

    @property
    def is_logarithmic(self) -> bool:
        return all(g.kind == LOG for g in self.generators)


def differentiate(f: TowerElement) -> TowerElement:
    T = expect(f, TowerElement).tower
    return TowerElement(T.diff(f.value), T)


def change_generators(specs, F, values):
    """The tower on the field F of ``specs``, (kind, payload) pairs over
    another field, mapped by ``values``, the image in F of each of its
    generators: a LOG argument by ``FormalProduct.substitute``, an explicit
    derivative by ``arith.substitute``.  Each normalization step is one such
    change of generators, the rewritten generator's spec replaced, so every
    later spec reads the new generators."""
    return Tower(F, [
        (kind, payload.substitute(F, values) if kind == LOG else substitute(payload, F, values))
        for kind, payload in specs
    ])


def normalize_generators(T: Tower):
    """Shift each generator so that its derivative becomes simple.

    Replaces t_i by u_i = t_i - g_i where t_i' = g_i' + h_i with h_i simple
    (level-by-level Hermite reduction).  Requires hm(t_i') = 1 for every
    generator, that is, no projection pi_j(t_i') involving a generator above
    t_j.  Returns the new tower and the list of (index, shift) pairs,
    the shifts expressed in the new coordinates.

    Each nonzero shift is one ``change_generators`` step, so a simple tower
    comes back as it is.  A logarithm that needs no shift stays a
    logarithm, its argument rewritten through the shifts below it; every
    other generator becomes an explicit primitive with derivative h_i.
    """
    from .hermite import hermite_reduce_proper_value
    from .matryoshka import project_value

    F = T.F
    shifts = []
    for i in range(1, T.n + 1):
        proj = project_value(T, T.derivs[i - 1])
        # a generator above level lvl in pi_lvl is a head monomial above 1
        if not all(free_of(p, range(lvl + 1, T.n + 1)) for lvl, p in enumerate(proj)):
            raise HeadMonomialNotOne(i)
        steps, h_total = [], F.zero
        for lvl, piece in enumerate(proj):
            if piece:
                b, h = hermite_reduce_proper_value(T, piece, lvl)
                steps += b
                h_total += h
        g_total = sum_pairs(F, steps)
        shifts.append((i, g_total))
        if g_total:
            specs = [(g.kind, g.argument if g.kind == LOG else g.derivative) for g in T.generators]
            specs[i - 1] = (PRIM, h_total)
            values = list(F.gens)
            values[i] += g_total
            T = change_generators(specs, F, values)
    return T, shifts
