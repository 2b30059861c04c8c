"""Differential towers over Q(x).

A :class:`Tower` is an ordered list of generators t1, ..., tn over the base
field Q(x) with x' = 1.  Each generator is either logarithmic (its derivative
is argument'/argument) or an explicit primitive (its derivative is given
directly); either way the derivative must involve only earlier variables.
Towers are immutable once built; validation results are cached.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import ClearedBasis, free_of, ground, make_field, substitute
from .errors import (
    HeadMonomialNotOne,
    TowerDecompError,
    TowerNotSPrimitive,
    ZeroArgument,
)

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
        exponents.  A generator's argument has at least one factor."""
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


class TowerBuilder:
    """Incremental construction: the field exists up front so that generator
    arguments can be written in terms of earlier generators."""

    def __init__(self, gen_names, base_name="x"):
        names = [base_name] + list(gen_names)
        if len(set(names)) != len(names):
            raise TowerDecompError("duplicate variable names in tower")
        self.F, self.gens = make_field(names)
        self.names = names
        self._specs = []

    @property
    def x(self):
        return self.gens[0]

    def log(self, argument):
        """Declare the next generator as log(argument)."""
        if not isinstance(argument, FormalProduct):
            argument = FormalProduct.single(argument)
        self._specs.append((LOG, argument))
        return self

    def prim(self, derivative):
        """Declare the next generator with an explicit derivative."""
        self._specs.append((PRIM, derivative))
        return self

    def build(self) -> "Tower":
        if len(self._specs) != len(self.names) - 1:
            raise TowerDecompError(
                f"expected {len(self.names) - 1} generator declarations, "
                f"got {len(self._specs)}"
            )
        return Tower(self.F, self.names, self._specs)


class Tower:
    """An ordered primitive tower.  Use :class:`TowerBuilder` to construct."""

    def __init__(self, F, names, specs):
        self.F = F
        self.names = names
        self.gens = list(F.gens)
        self.n = len(names) - 1
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
                argument = payload
                for base, _ in argument.factors:
                    self._check_level(base, idx, f"argument of {names[idx]}")
                deriv = self.diff_log_combination(argument.factors)
            else:
                argument = None
                deriv = payload
                self._check_level(deriv, idx, f"derivative of {names[idx]}")
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

    def element(self, value) -> TowerElement:
        """value as an element of the tower: a TowerElement as it is, an int,
        a Fraction or an element of the tower's field ``F``."""
        if isinstance(value, TowerElement):
            return value
        if isinstance(value, (int, Fraction)):
            value = ground(self.F, value)
        elif not isinstance(value, self.F.dtype):
            raise TypeError(f"expected an element of {self.F!r}, got {value!r}")
        return TowerElement(value, self)

    def diff(self, f):
        """The tower derivation ' = d/dx + sum(t_i' * d/dt_i), with one cancel."""
        return self.F.new(*self.diff_pair(f.numer, f.denom))

    def diff_pair(self, N, D, level=None):
        """(N/D)' as an unreduced pair of polynomials (num, den).

        The numerator L*N'*D - N*L*D' and the denominator L*D^2 (L*N' and
        L*D when D is a constant) are plain polynomials.  With ``level`` = i
        the derivation of K_i is used, whose L is free of t_i and above; N/D
        must then lie in K_i.
        """
        scaled, L = self._scaled_derivation(level)
        if D.is_ground:
            return scaled(N), L * D
        return scaled(N) * D - N * scaled(D), L * D**2

    def diff_pair_radical(self, N, D, level=None):
        """(N/D)' as an unreduced pair (num, den) over L*D*R, not L*D^2.

        With Dm = gcd(D, L*D'), R = D/Dm and E = L*D'/Dm, one ``cofactors``
        call gives (Dm, R, E), and (N/D)' = (L*N'*R - N*E)/(L*D*R).  Both
        divisions are exact, so the pair equals ``diff_pair``'s as a
        fraction.  When D has repeated factors, as a denominator left by
        Hermite reduction does, R is about the size of D's radical and the
        pair is far smaller than L*D^2; the gcd is the price.  A ground D
        gives ``diff_pair``'s pair, and ``level`` means the same.
        """
        scaled, L = self._scaled_derivation(level)
        if D.is_ground:
            return scaled(N), L * D
        _, R, E = D.cofactors(scaled(D))
        return scaled(N) * R - N * E, L * D * R

    def _scaled_derivation(self, level):
        """(p -> L*p', L) for polynomials p, with the L of K_level, or of the
        whole tower when ``level`` is None."""
        L, multipliers = self._levels[-1 if level is None else level]

        def scaled(p):
            out = p.diff(0) * L
            for i, m in multipliers:
                out += p.diff(i) * m
            return out

        return scaled, L

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
            out += ground(self.F, exp) * self.diff(base) / base
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
    return TowerElement(f.tower.diff(f.value), f.tower)


def normalize_generators(T: Tower):
    """Shift each generator so that its derivative becomes simple.

    Replaces t_i by u_i = t_i - g_i where t_i' = g_i' + h_i with h_i simple
    (level-by-level Hermite reduction).  Requires hm(t_i') = 1 for every
    generator, that is, no projection pi_j(t_i') involving a generator above
    t_j.  Returns the new tower and the list of (index, shift) pairs,
    the shifts expressed in the new coordinates.

    A logarithm that needs no shift stays a logarithm, its argument
    rewritten through the shifts below it; every other generator becomes
    an explicit primitive with derivative h_i.
    """
    from .hermite import hermite_reduce_proper_value
    from .matryoshka import project_value

    builder = TowerBuilder(T.names[1:], base_name=T.names[0])
    shifts = []
    new_specs = []
    # incrementally rebuilt tower prefix used for Hermite at each level
    for i in range(1, T.n + 1):
        prefix = _prefix_tower(T.names, new_specs, builder.F)
        d_old = T.derivs[i - 1]
        values = [builder.gens[0]] + [
            builder.gens[j] + shifts[j - 1][1] for j in range(1, i)
        ]
        values += list(builder.gens[i:])  # higher gens never occur in d_old
        d_new = substitute(d_old, builder.F, values)
        proj = project_value(prefix, d_new)
        # a generator above level lvl in pi_lvl is a head monomial above 1
        if not all(free_of(p, range(lvl + 1, T.n + 1)) for lvl, p in enumerate(proj)):
            raise HeadMonomialNotOne(i)
        g_total = builder.F.zero
        h_total = builder.F.zero
        for lvl, piece in enumerate(proj):
            if not piece:
                continue
            b, h = hermite_reduce_proper_value(prefix, piece, lvl)
            g_total += b
            h_total += h
        shifts.append((i, g_total))
        argument = T.generators[i - 1].argument
        if argument is not None and not g_total:
            new_specs.append((LOG, argument.substitute(builder.F, values)))
        else:
            new_specs.append((PRIM, h_total))
    T2 = Tower(builder.F, T.names, new_specs)
    return T2, shifts


def _prefix_tower(names, specs, F) -> Tower:
    """Tower over the full field but with only the first len(specs) generators
    carrying derivatives; enough for differentiation of prefix elements."""
    padded = list(specs) + [(PRIM, F.zero)] * (len(names) - 1 - len(specs))
    return Tower(F, names, padded)
