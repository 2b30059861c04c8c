"""Elementary integrability over a tower.

A function integrates in elementary terms exactly when its remainder is a
constant combination of generator derivatives plus a constant combination of
logarithmic derivatives.  The recognizer for the logarithmic part is a
residue computation: for h = p/q simple at level i, the roots of
res_{t_i}(p - z*q', q) in z are the residues of h at its level-i poles,
computed in ``make_field``'s Q(x, t_1, ..., t_n, _z), which operands enter
and a certificate leaves by ``Poly.set_ring``, by position.
Constant rational roots yield an exact witness; a non-constant root is a
proof that no elementary integral exists; irrational constant residues fall
outside exact rational arithmetic and give a three-valued Undecided.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import (
    UniPoly,
    frac_to_unipair,
    ground,
    is_ground,
    make_field,
    rational_roots,
    unipoly_gcd,
    unipoly_resultant,
)
from .decomp import add_decomp_in_field, solve_constant_combination_values
from .errors import InternalVerificationError
from .hermite import tower_derivative_unipoly
from .matryoshka import (
    derivative_projections,
    head_monomials,
    level_pieces,
    project_value,
)
from .tower import Record, TowerElement

YES = "yes"
NO = "no"
UNDECIDED = "undecided"


class ElementaryVerdict(Record):
    """The ``status``, YES, NO or UNDECIDED.  ``witness`` holds (rational
    coefficient, argument TowerElement) pairs, ``span_coeffs`` the rational
    coefficients over t_1', ..., t_n', and ``certificate``, when NO, a
    non-constant residue as a TowerElement."""

    __slots__ = ("status", "witness", "span_coeffs", "reason", "certificate", "decomposition")
    _defaults = {
        "witness": (),
        "span_coeffs": (),
        "reason": "",
        "certificate": None,
        "decomposition": None,
    }

    @property
    def remainder(self):
        return self.decomposition.r if self.decomposition else None


def _residue_analysis(T, value, i):
    """Root structure of the residue resultant of a nonzero t_i-simple value.

    Returns ("nonconstant", certificate) when some residue is provably not a
    constant, or ("constant", roots, full) where roots are the nonzero
    rational roots and full says whether they account for the whole degree.
    """
    F = T.F
    # Q(x, t_1, ..., t_n, _z), the root variable last; the ring change goes
    # by position, so a generator may itself be named _z
    Fz = make_field(T.names + ["_z"])[0]
    ring = Fz.ring
    # value = p/q and p - _z*q' with q' = dn/dd, moved into the ring of Fz
    dn, dd = T.diff_pair(value.denom, F.ring.one, i)
    dd = dd.set_ring(ring)
    P = value.numer.set_ring(ring) * dd - dn.set_ring(ring).mul_gen(T.n + 1, 1)
    R = unipoly_resultant(UniPoly(Fz, i, P, dd), UniPoly(Fz, i, value.denom.set_ring(ring)))
    if not R:
        raise InternalVerificationError("residue resultant vanished")
    if R.denom.degree(T.n + 1) > 0:
        raise InternalVerificationError("resultant denominator involves the root variable")
    Rz = R.numer.coeff_polys(T.n + 1)
    lc = Rz[max(Rz)]
    monic = []  # the monic residue polynomial's coefficients, z^0 first
    for k in range(max(Rz) + 1):
        if k not in Rz:
            monic.append(0)
            continue
        c = Fz.new(Rz[k], lc)
        if not is_ground(c):
            # c is canonical and free of _z, and so is its image in F
            cert = F.raw_new(c.numer.set_ring(F.ring), c.denom.set_ring(F.ring))
            # the numerator of cert' vanishes exactly when cert' does
            if not T.diff_pair(cert.numer, cert.denom)[0]:
                raise InternalVerificationError("non-ground coefficient is constant")
            return ("nonconstant", cert)
        monic.append(Fraction(c.numer.LC, c.denom.LC))
    found = rational_roots(monic)
    roots = sorted(root for root in found if root)
    return ("constant", roots, sum(found.values()) == len(monic) - 1)


def _witness_from_roots(T, value, i, roots):
    """Candidate combination of logarithmic derivatives for the given residues.
    Returns (items, combined value); items are (residue, argument) pairs of
    raw field elements."""
    F = T.F
    p, q = frac_to_unipair(value, i)
    qd = tower_derivative_unipoly(T, q, i)
    items = []
    for c in roots:
        gk = unipoly_gcd(p - qd.scale(ground(F, c)), q)
        if gk.degree > 0:
            items.append((c, gk.to_frac()))
    return items, T.diff_log_combination((arg, c) for c, arg in items)


def elementary_integrability(f: TowerElement) -> ElementaryVerdict:
    """Decide whether f has an elementary integral over its tower."""
    T = f.tower
    T.ensure_s_primitive()
    F = T.F
    dec = add_decomp_in_field(f)
    r = dec.r.value
    if not r:
        return ElementaryVerdict(YES, decomposition=dec)
    hm = head_monomials(level_pieces(T, r))[1]
    if hm is not None and any(hm):
        return ElementaryVerdict(
            NO,
            reason="remainder has a generator monomial above 1; no combination "
            "of generator derivatives and logarithmic derivatives reaches it",
            decomposition=dec,
        )
    cols, sig = derivative_projections(T)
    span = [Fraction(0)] * T.n
    witness = []
    leftover = r
    proj = None  # the projections of leftover; None once leftover changes
    for i in range(T.n, -1, -1):
        if proj is None:
            proj = project_value(T, leftover)
        h = proj[i]
        if not h:
            continue
        basis_idx = [j for j in range(T.n) if sig[j] == i]
        basis_proj = [cols[j][i] for j in basis_idx]

        def try_span(target):
            nonlocal leftover, proj
            coeffs = solve_constant_combination_values(F, target, basis_proj)
            if coeffs is None:
                return False
            for j, c in zip(basis_idx, coeffs):
                span[j] += c
                leftover = leftover - ground(F, c) * T.derivs[j]
            proj = None
            return True

        if try_span(h):
            continue
        analysis = _residue_analysis(T, h, i)
        if analysis[0] == "nonconstant":
            return ElementaryVerdict(
                NO,
                reason=f"projection at level {i} has a non-constant residue",
                certificate=TowerElement(analysis[1], T),
                decomposition=dec,
            )
        _, roots, full = analysis
        items, combined = _witness_from_roots(T, h, i, roots)
        witness.extend(items)
        leftover = leftover - combined
        proj = project_value(T, leftover)
        rest = proj[i]
        if rest and not try_span(rest):
            if not full:
                return ElementaryVerdict(
                    UNDECIDED,
                    reason=f"projection at level {i} has irrational constant "
                    "residues beyond exact rational arithmetic",
                    decomposition=dec,
                )
            return ElementaryVerdict(
                NO,
                reason=f"projection at level {i} is not reachable by generator "
                "derivatives and logarithmic derivatives with rational residues",
                decomposition=dec,
            )
    if leftover:
        raise InternalVerificationError("elementary residual did not vanish")
    check = T.diff_log_combination((arg, c) for c, arg in witness)
    for j, c in enumerate(span):
        check += ground(F, c) * T.derivs[j]
    if check != r:
        raise InternalVerificationError("elementary witness failed verification")
    return ElementaryVerdict(
        YES,
        witness=tuple((c, TowerElement(arg, T)) for c, arg in witness),
        span_coeffs=tuple(span),
        decomposition=dec,
    )
