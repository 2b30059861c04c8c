"""Additive decomposition f = g' + r with a minimal-order remainder.

The core loop peels off the head monomial M of the current element: its head
coefficient is Hermite-reduced level by level, absorbable pieces (those that
are constant combinations of generator derivatives) move into g via
integration by parts, everything else times M joins the remainder.  The
(denominator degree, head monomial) key strictly decreases each pass, which
is the termination measure and is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import ground, solve_linear_system, to_fraction
from .errors import InternalVerificationError
from .hermite import hermite_reduce_proper_value
from .matryoshka import (
    head_data_value,
    indicator,
    is_simple_value,
    order_key_value,
    project_value,
)
from .tower import Tower, TowerElement


# -- constant-combination solver ------------------------------------------


def _coeff_dict(e, den):
    """Coefficients of the polynomial e*den, as {monomial: Fraction}; den
    must be a multiple of e's denominator."""
    p = e.numer * den.exquo(e.denom)
    return {mono: to_fraction(c) for mono, c in p.terms()}


def solve_constant_combination_values(F, target, basis):
    """Rational constants (c_1, ..., c_k) with target = sum(c_j * basis_j),
    or None.  Clears denominators with their lcm and compares coefficients
    exactly."""
    basis = list(basis)
    if not target:
        return [Fraction(0)] * len(basis)
    if not basis:
        return None
    den = F.ring.one
    for e in [target] + basis:
        den = den.lcm(e.denom)
    t_dict = _coeff_dict(target, den)
    b_dicts = [_coeff_dict(b, den) for b in basis]
    monos = set(t_dict)
    for d in b_dicts:
        monos.update(d)
    monos = sorted(monos)
    rows = [[d.get(m, Fraction(0)) for d in b_dicts] for m in monos]
    rhs = [t_dict.get(m, Fraction(0)) for m in monos]
    sol = solve_linear_system(rows, rhs)
    if sol is None:
        return None
    acc = F.zero
    for c, b in zip(sol, basis):
        acc += ground(F, c) * b
    if acc != target:
        raise InternalVerificationError("combination solver self-check failed")
    return [Fraction(c) for c in sol]


# -- the decomposition ------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    g: TowerElement
    r: TowerElement
    input: TowerElement

    @property
    def tower(self) -> Tower:
        return self.input.tower


def add_decomp_in_field(f: TowerElement) -> Decomposition:
    """Decompose f as differentiate(g) + r where r is a remainder: no element
    congruent to f modulo derivatives has lower order."""
    T = f.tower
    T.ensure_s_primitive()
    F = T.F
    n = T.n
    cur = f.value
    g = F.zero
    r = F.zero
    prev_key = None
    while cur:
        key = order_key_value(T, cur)
        if prev_key is not None and not key < prev_key:
            raise InternalVerificationError("order key failed to decrease")
        prev_key = key
        hd = key.head
        M = hd.hm
        a = hd.hc
        m = indicator(M, n)
        d = M[m - 1] if n else 0
        span_basis = T.derivs[:m]
        B = F.zero
        H = F.zero
        ctilde = Fraction(0)
        unabsorbed = []

        def absorb(coeffs):
            nonlocal B, ctilde
            for j in range(m - 1):
                B += ground(F, coeffs[j]) * T.gens[j + 1]
            ctilde += coeffs[m - 1]

        for i in sorted(hd.index_set):
            b_i, h_i = hermite_reduce_proper_value(T, hd.hc_i[i], i)
            B += b_i
            if not h_i:
                continue
            coeffs = solve_constant_combination_values(F, h_i, span_basis)
            if coeffs is not None:
                absorb(coeffs)
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
                    H = total

        Mval = T.monomial_value(M)
        Nexp = list(M)
        if d:
            Nexp[m - 1] = 0
        Nval = T.monomial_value(Nexp)
        cc = Fraction(ctilde, d + 1)
        g += B * Mval
        r += H * Mval
        cur = cur - a * Mval - B * T.diff(Mval)
        if cc:
            tm = T.gens[m]
            g += ground(F, cc) * tm * Mval
            cur = cur - ground(F, cc) * tm ** (d + 1) * T.diff(Nval)
    if T.diff(g) + r != f.value:
        raise InternalVerificationError("decomposition does not reconstruct input")
    ok, why = _is_remainder_value(T, r)
    if not ok:
        raise InternalVerificationError(f"output fails the remainder test: {why}")
    return Decomposition(TowerElement(g, T), TowerElement(r, T), f)


def _is_remainder_value(T, r):
    """(ok, reason): whether r is already minimal modulo derivatives."""
    if not r:
        return True, ""
    proj = project_value(T, r)
    pi_n = proj[T.n]
    if pi_n:
        ok, why = is_simple_value(T, pi_n)
        if not ok:
            return False, f"top projection not simple: {why}"
    rest = r - pi_n
    if not rest:
        return True, ""
    # pi_n(r) holds only the unit monomial, the lowest, so hm(rest) = hm(r)
    head = head_data_value(T, rest)
    a = head.hc
    ok, why = is_simple_value(T, a)
    if not ok:
        return False, f"head coefficient not simple: {why}"
    m = indicator(head.hm, T.n)
    coeffs = solve_constant_combination_values(T.F, a, T.derivs[:m])
    if coeffs is not None and any(coeffs):
        return False, "head coefficient lies in the span of generator derivatives"
    return True, ""


# -- in-field integration ---------------------------------------------------


@dataclass(frozen=True)
class InFieldIntegral:
    antiderivative: TowerElement | None
    certificate: TowerElement  # the remainder; zero exactly when integrable

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
