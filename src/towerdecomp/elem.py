"""Elementary integrability over a tower.

A function integrates in elementary terms exactly when its remainder is a
constant combination of generator derivatives plus a constant combination of
logarithmic derivatives.  The recognizer for the logarithmic part is a
residue computation: for h = p/q simple at level i, the roots of
res_{t_i}(p - z*q', q) in z are the residues of h at its level-i poles.
Only the monic residue polynomial matters, and it is read from the
primitive part q0 = q/c of q in t_i: the resultant runs on q0 with the
root variable scaled by the content c, so c never rides through the
subresultant steps, and each coefficient is divided by the matching power
of c in ``F``, with no gcd when it is a rational constant.  The resultant
is a polynomial of the ring Z[x, t_1, ..., t_n, _z] of ``make_field``'s
Q(x, t_1, ..., t_n, _z), with no denominator, which operands enter and
coefficients leave by ``Poly.set_ring``, by position.
Constant rational roots yield an exact witness; a non-constant coefficient
is a proof that no elementary integral exists, and that it is not constant
is checked by one exact division (``Tower.is_constant_pair``); irrational
constant residues fall outside exact rational arithmetic and give a
three-valued Undecided.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import (
    UniPoly,
    free_of,
    is_ground,
    make_field,
    rational_roots,
    unipoly_gcd,
    unipoly_resultant,
)
from .decomp import add_decomp_in_field, solve_constant_combination_values
from .errors import InternalVerificationError
from .hermite import tower_derivative_unipoly
from .matryoshka import derivative_projections, project_value
from .tower import Record, TowerElement

YES = "yes"
NO = "no"
UNDECIDED = "undecided"


class ElementaryVerdict(Record):
    """The ``status``, YES, NO or UNDECIDED.  ``witness`` holds (rational
    coefficient, argument TowerElement) pairs, ``span_coeffs`` the rational
    coefficients over t_1', ..., t_n', and ``certificate``, when NO, the
    first non-constant coefficient of a monic residue polynomial, z^0 first,
    as a TowerElement (see ``_residue_analysis``)."""

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
    The certificate is the first non-constant coefficient of the monic
    residue polynomial, z^0 first.
    """
    monic = []
    for coeff in _residue_polynomial(T, value, i):
        if not is_ground(coeff):
            if T.is_constant_pair(coeff.numer, coeff.denom):
                raise InternalVerificationError("non-ground coefficient is constant")
            return ("nonconstant", coeff)
        monic.append(Fraction(coeff.numer.LC, coeff.denom.LC))
    found = rational_roots(monic)
    roots = sorted(root for root in found if root)
    return ("constant", roots, sum(found.values()) == len(monic) - 1)


def _residue_polynomial(T, value, i):
    """The coefficients of the monic residue polynomial of a nonzero
    t_i-simple value p/q, z^0 first, as canonical elements of ``T.F``,
    each built when it is asked for.

    With c the content of q in t_i and q0 = q/c, the residues at the roots
    of q0 are sigma/c, where sigma = p*dd/dn there and dn/dd = D(q0) in
    lowest terms (x + 1 cancels on u), as D(q) = c*D(q0) at a root of q0.
    So the PRS runs on R(w) = res_{t_i}(p*dd - w*dn, q0), whose roots are
    the sigmas, and coefficient k is R_k/(R_d*c^(d-k)), cancelled against
    R_d and then against each copy of c in turn (``_quotient``).
    """
    F = T.F
    p, q = value.numer, value.denom
    c = _content(q, i)
    q = q.exquo(c)
    # Z[x, t_1, ..., t_n, _z], the root variable last; the ring change goes
    # by position, so a generator may itself be named _z
    ring = make_field(T.names + ["_z"])[0].ring
    dn, dd = T.diff_pair(q, i)
    _, dn, dd = dn.cofactors(dd)
    P = p.set_ring(ring) * dd.set_ring(ring) - dn.set_ring(ring).mul_gen(T.n + 1, 1)
    R = unipoly_resultant(P, q.set_ring(ring), i)
    if not R:
        raise InternalVerificationError("residue resultant vanished")
    Rz = {k: r.set_ring(F.ring) for k, r in R.coeff_polys(T.n + 1).items()}
    d = max(Rz)
    copies = [] if c.is_one else [c]
    for k in range(d + 1):
        yield _quotient(F, Rz[k], [Rz[d]] + copies * (d - k)) if k in Rz else F.zero


def _content(q, i):
    """The content of q in t_i, the gcd of its coefficients, or 1 when that
    gcd is an integer.  The coefficients are taken shortest first, so a
    coefficient that the gcd so far divides costs the gcd's one exact
    division (``Poly.cofactors``), not a heuristic gcd."""
    c = None
    for a in sorted(q.coeff_polys(i).values(), key=len):
        c = a if c is None else c.gcd(a)
        if c.is_ground:
            return q.ring.one
    return c


def _quotient(F, num, factors):
    """num/(product of factors) in canonical form, cancelled against one
    factor at a time: with num/den in lowest terms and h = gcd(num, c),
    num/h is coprime to den and to c/h, so num/h over den*(c/h) is in lowest
    terms again, each gcd against one factor and not against the product.
    Each cancel tries one exact division by the primitive part of the
    smaller operand before any heuristic gcd (``Poly.cofactors``), so a
    rational constant or a polynomial quotient runs no heuristic gcd."""
    num, den = num.cancel(factors[0])
    for c in factors[1:]:
        num, c = num.cancel(c)
        den *= c
    return F.raw_new(num, den)


def _witness_from_roots(T, value, i, roots):
    """Candidate combination of logarithmic derivatives for the given residues.
    Returns (items, combined value); items are (residue, argument) pairs of
    raw field elements."""
    F = T.F
    p, q = UniPoly(F, i, value.numer), UniPoly(F, i, value.denom)
    qd = tower_derivative_unipoly(T, q, i)
    items = []
    for c in roots:
        gk = unipoly_gcd(p - qd.scale(F.ground(c)), q)
        if gk.degree > 0:
            items.append((c, gk.to_frac()))
    return items, T.diff_log_combination((arg, c) for c, arg in items)


def elementary_integrability(f: TowerElement) -> ElementaryVerdict:
    """Decide whether f has an elementary integral over its tower."""
    dec = add_decomp_in_field(f)
    T = f.tower
    F = T.F
    r = dec.r.value
    if not r:
        return ElementaryVerdict(YES, decomposition=dec)
    # pi_i(r) involves a generator above t_i exactly when r has a head
    # monomial above 1
    proj = project_value(T, r)  # the projections of leftover; None once it changes
    if any(not free_of(p, range(i + 1, T.n + 1)) for i, p in enumerate(proj)):
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
                leftover = leftover - F.ground(c) * T.derivs[j]
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
            # every residue is rational and the witness has taken each one,
            # so rest is simple at level i with all residues zero: it is zero
            raise InternalVerificationError("a rational residue outlived its witness")
    if leftover:
        raise InternalVerificationError("elementary residual did not vanish")
    check = T.diff_log_combination((arg, c) for c, arg in witness)
    for j, c in enumerate(span):
        check += F.ground(c) * T.derivs[j]
    if check != r:
        raise InternalVerificationError("elementary witness failed verification")
    return ElementaryVerdict(
        YES,
        witness=tuple((c, TowerElement(arg, T)) for c, arg in witness),
        span_coeffs=tuple(span),
        decomposition=dec,
    )
