"""Differential towers over Q(x).

A :class:`Tower` is an ordered list of generators t1, ..., tn over the base
field Q(x) with x' = 1.  Each generator is either logarithmic (its derivative
is argument'/argument) or an explicit primitive (its derivative is given
directly); either way the derivative must involve only earlier variables.
Towers are immutable once built; validation results are cached.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def collapse(self):
        """The product as a single field element, or None for fractional exponents."""
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

    def __repr__(self):
        return " * ".join(f"({b})^{e}" for b, e in self.factors) or "1"


@dataclass(frozen=True)
class Generator:
    name: str
    kind: str  # LOG or PRIM
    derivative: object  # FracElement of the tower field
    argument: FormalProduct | None = None


@dataclass(frozen=True)
class ValidationResult:
    status: str  # S_PRIMITIVE or REJECTED
    reason: str = ""
    generator: int | None = None
    certificate: tuple | None = None  # dependence coefficients, when applicable

    @property
    def ok(self):
        return self.status == S_PRIMITIVE


@dataclass(frozen=True)
class TowerElement:
    value: object  # FracElement
    tower: "Tower"

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        if isinstance(other, TowerElement):
            return self.tower is other.tower and self.value == other.value
        return self.value == other

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
        if isinstance(value, TowerElement):
            return value
        if isinstance(value, (int, Fraction)):
            value = ground(self.F, value)
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
        L, multipliers = self._levels[-1 if level is None else level]

        def scaled(p):
            out = p.diff(0) * L
            for i, m in multipliers:
                out += p.diff(i) * m
            return out

        if D.is_ground:
            return scaled(N), L * D
        return scaled(N) * D - N * scaled(D), L * D**2

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
        new_specs.append((PRIM, h_total))
    T2 = Tower(builder.F, T.names, new_specs)
    return T2, shifts


def _prefix_tower(names, specs, F) -> Tower:
    """Tower over the full field but with only the first len(specs) generators
    carrying derivatives; enough for differentiation of prefix elements."""
    padded = list(specs) + [(PRIM, F.zero)] * (len(names) - 1 - len(specs))
    return Tower(F, names, padded)
