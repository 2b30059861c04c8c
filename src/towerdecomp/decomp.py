"""Additive decomposition f = g' + r with a minimal-order remainder.

The core loop peels off the head monomial M of the current element: its head
coefficient is Hermite-reduced level by level, absorbable pieces (those that
are constant combinations of generator derivatives) move into g via
integration by parts, everything else times M joins the remainder.  The
(denominator degree, head monomial) key strictly decreases each pass, which
is the termination measure and is asserted.  Each pass builds its update of
the current element as one polynomial pair over one denominator, with one
``F.new``; g and r collect (numerator, denominator) terms and become field
elements once, before the reconstruction check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from sympy import QQ

from .arith import ClearedBasis, ground, solve_linear_system, sum_pairs, to_fraction
from .errors import InternalVerificationError
from .hermite import hermite_reduce_proper_value
from .matryoshka import (
    head_data_value,
    indicator,
    not_simple_reason,
    order_key_value,
    project_value,
)
from .tower import Tower, TowerElement


# -- constant-combination solver ------------------------------------------


def solve_constant_combination_values(F, target, basis):
    """Rational constants (c_1, ..., c_k) with target = sum(c_j * basis_j),
    or None.

    ``basis`` is a ClearedBasis (L, polys) with polys[j] = basis_j * L, such
    as ``Tower.derivative_basis(m)``, or a sequence of field elements, which
    is cleared here with the lcm of their denominators.  A target in the
    span has a denominator dividing L, so one exact division rejects every
    other target without a gcd.  Otherwise the coefficients of numer *
    (L / denom) are compared with those of the polys exactly, and the
    solution is checked as that polynomial identity.
    """
    if not isinstance(basis, ClearedBasis):
        den = F.ring.one
        for e in basis:
            den = den.lcm(e.denom)
        basis = ClearedBasis(den, tuple(e.numer * den.exquo(e.denom) for e in basis))
    den, polys = basis
    if not target:
        return [Fraction(0)] * len(polys)
    if not polys:
        return None
    scale, rem = den.div(target.denom)
    if rem:
        return None
    lhs = target.numer * scale
    dicts = [{m: to_fraction(c) for m, c in p.terms()} for p in polys]
    t_dict = {m: to_fraction(c) for m, c in lhs.terms()}
    monos = set(t_dict)
    for d in dicts:
        monos.update(d)
    monos = sorted(monos)
    rows = [[d.get(m, Fraction(0)) for d in dicts] for m in monos]
    rhs = [t_dict.get(m, Fraction(0)) for m in monos]
    sol = solve_linear_system(rows, rhs)
    if sol is None:
        return None
    acc = lhs.ring.zero
    for c, p in zip(sol, polys):
        if c:
            acc += p * QQ(c.numerator, c.denominator)
    if acc != lhs:
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
    R = F.ring
    n = T.n
    cur = f.value
    g_terms = []  # (numerator, denominator) pairs of g, and of r
    r_terms = []
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
        span_basis = T.derivative_basis(m)
        B = F.zero
        B_poly = R.zero  # the c_j * t_j absorbed into B, kept apart
        H = F.zero
        ctilde = Fraction(0)
        unabsorbed = []

        def absorb(coeffs):
            nonlocal B_poly, ctilde
            for j in range(m - 1):
                if coeffs[j]:
                    B_poly += R.gens[j + 1] * ground(R, coeffs[j])
            ctilde += coeffs[m - 1]

        for i in sorted(hd.index_set):
            b_i, h_i = hermite_reduce_proper_value(T, hd.hc_i[i], i)
            B += b_i
            if not h_i:
                continue
            coeffs = solve_constant_combination_values(F, h_i, span_basis)
            if coeffs is not None:
                absorb(coeffs)
            elif i == n and not any(M):
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

        # cur - a*M - B*M' - cc*t_m^(d+1)*N' over one denominator, with M and
        # N = M/t_m^d ring monomials and M', N' over the tower's L; the last
        # two terms vanish on most passes, and L with them
        Mpoly = R.one.mul_monom((0,) + M)
        Mp, L = T.diff_pair(Mpoly, R.one)
        Bnum, Bden = B.numer + B_poly * B.denom, B.denom
        if Bnum:
            g_terms.append((Bnum * Mpoly, Bden))
        rest = Bnum * Mp  # (B*M' + cc*t_m^(d+1)*N') * Bden * L
        cc = Fraction(ctilde, d + 1)
        if cc:
            tm = R.gens[m]
            Np, _ = T.diff_pair(Mpoly.exquo(tm**d), R.one)
            rest += ground(R, cc) * tm ** (d + 1) * Np * Bden
            g_terms.append((ground(R, cc) * tm * Mpoly, R.one))
        num = cur.numer * a.denom - a.numer * Mpoly * cur.denom
        den = cur.denom * a.denom
        if rest:
            num, den = num * Bden * L - rest * den, den * Bden * L
        cur = F.new(num, den)
        if H:
            r_terms.append((H.numer * Mpoly, H.denom))
    g = sum_pairs(F, g_terms)
    r = sum_pairs(F, r_terms)
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
    n = T.n
    pi_n = project_value(T, r)[n]
    # pi_n(r) is its own only projection, and the head coefficient's
    # projections are its per-level parts hc_i
    why = not_simple_reason(T, pi_n, n)
    if why:
        return False, f"top projection not simple: projection {n} {why}"
    rest = r - pi_n
    if not rest:
        return True, ""
    # pi_n(r) holds only the unit monomial, the lowest, so hm(rest) = hm(r)
    head = head_data_value(T, rest)
    for i, c in sorted(head.hc_i.items()):
        why = not_simple_reason(T, c, i)
        if why:
            return False, f"head coefficient not simple: projection {i} {why}"
    m = indicator(head.hm, n)
    coeffs = solve_constant_combination_values(T.F, head.hc, T.derivative_basis(m))
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
