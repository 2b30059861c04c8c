"""The nested direct-sum view of a tower.

Every element of K_n = Q(x)(t1, ..., tn) splits uniquely into projections:
the i-th projection is a combination of monomials in the generators above
level i whose coefficients are proper in t_i, and the 0-th projection is a
polynomial in all generators over Q(x).  Head monomials, the element order
used by the decomposition, and the simplicity predicate are all defined on
top of these projections; the level tests behind the predicate are shared
with Hermite reduction and the residue method.  Projections and head data
come from one recursion on unreduced (numerator, denominator) pairs of
polynomials: ``project_value`` builds each level with one ``F.new`` per
distinct denominator, while ``head_data_value`` reads every level's head
monomial from the monomials of the pairs and builds field elements only for
the head coefficients of the index set.  The functions on elements take the
tower and a raw field element (``T, f.value``).  Monomials over
t1..tn are exponent tuples; the comparison is pure lex with t1 below t2
below ... below tn, and None stands for the head monomial of the zero
element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arith import coeff_polys, free_of, pseudo_divmod, sum_pairs
from .tower import Tower

NOT_SQUAREFREE = "has a non-squarefree denominator"


def mono_key(exps):
    """Sort key for pure lex with the last generator most significant."""
    return tuple(reversed(exps))


def indicator(exps, n: int) -> int:
    """Lowest generator index present in the monomial, or n for the unit."""
    for i, e in enumerate(exps, start=1):
        if e:
            return i
    return n


@dataclass(frozen=True)
class HeadData:
    hm_i: tuple  # per-projection head monomials (exponent tuple or None)
    hc_i: dict  # level -> head coefficient (field element), for index_set
    hm: tuple | None  # overall head monomial
    hc: object  # overall head coefficient (field element)
    index_set: frozenset


@dataclass(frozen=True, order=True)
class OrderKey:
    den_degree: int
    hm_marker: int  # 0 for the zero element, 1 otherwise
    hm_rev: tuple  # reversed exponents, () for zero
    # the head data the key was read from; None for the zero element
    head: HeadData | None = field(default=None, compare=False, repr=False)


def _level_pieces(T: Tower, f) -> list:
    """Per level i, {higher monomial: (numerator, denominator)}: the
    projection pi_i(f) is the sum of numerator/denominator * monomial, each
    quotient proper in t_i and free of t_{i+1}, ..., t_n, each monomial an
    exponent tuple over t1..tn in t_{i+1}, ..., t_n alone.

    The recursion runs on unreduced pairs of polynomials.  At level i one
    pseudo-division in t_i splits off the proper part, and each coefficient
    of the quotient descends to level i - 1 over the quotient's denominator,
    which is free of t_i.  The path down fixes the monomial, so each level
    holds one pair per monomial.
    """
    pieces = [{} for _ in range(T.n + 1)]

    def descend(N, D, level, mono):
        if level == 0:
            pieces[0][mono] = (N, D)
            return
        if D.degree(level) > 0:
            Q, R, L = pseudo_divmod(N, D, level)
            if R:
                pieces[level][mono] = (R, L * D)
            N, D = Q, L
        for k, c in coeff_polys(N, level).items():
            descend(c, D, level - 1, mono[: level - 1] + (k,) + mono[level:])

    if f:
        descend(f.numer, f.denom, T.n, (0,) * T.n)
    return pieces


def project_value(T: Tower, f) -> list:
    """Projections (pi_0(f), ..., pi_n(f)) as raw field elements.

    Each level's pieces are summed per distinct denominator as polynomials
    and become field elements with one ``F.new`` per denominator.
    """
    return [
        sum_pairs(
            T.F,
            ((num.mul_monom((0,) + mono), den) for mono, (num, den) in level.items()),
        )
        for level in _level_pieces(T, f)
    ]


def head_data_value(T: Tower, f) -> HeadData:
    """Head monomials of every projection, read from the monomials of the
    unreduced level pieces, and head coefficients built (one ``F.new`` each)
    only for the levels in the index set."""
    F = T.F
    pieces = _level_pieces(T, f)
    hm_i = tuple(max(level, key=mono_key) if level else None for level in pieces)
    present = [m for m in hm_i if m is not None]
    if not present:
        return HeadData(hm_i, {}, None, F.zero, frozenset())
    hm = max(present, key=mono_key)
    index_set = frozenset(i for i, m in enumerate(hm_i) if m == hm)
    hc_i = {i: F.new(*pieces[i][hm]) for i in index_set}
    hc = F.zero
    for c in hc_i.values():
        hc += c
    return HeadData(hm_i, hc_i, hm, hc, index_set)


def order_key_value(T: Tower, f) -> OrderKey:
    if not f:
        return OrderKey(0, 0, ())
    den_degree = f.denom.degree(T.n) if T.n else 0
    if den_degree < 0:
        den_degree = 0
    head = head_data_value(T, f)
    if head.hm is None:
        return OrderKey(den_degree, 0, (), head)
    return OrderKey(den_degree, 1, mono_key(head.hm), head)


def improper_reason(T: Tower, f, level) -> str:
    """Why f is not proper at its level, or "" when it is.

    Proper at level i: free of t_{i+1}, ..., t_n, and the numerator's degree
    in t_i below the denominator's (t_0 = x).  Zero is proper.
    """
    if not f:
        return ""
    if not free_of(f, range(level + 1, T.n + 1)):
        return f"involves generators above level {level}"
    if f.numer.degree(level) >= f.denom.degree(level):
        return "is not proper at its level"
    return ""


def not_simple_reason(T: Tower, f, level) -> str:
    """Why f is not simple at its level, or "" when it is.

    Simple at level i: proper at level i (free of t_{i+1}, ..., t_n, and
    proper in t_i) with a denominator squarefree in t_i.  Zero is simple.
    """
    why = improper_reason(T, f, level)
    if why or not f:
        return why
    D = f.denom
    if D.gcd(D.diff(level)).degree(level) > 0:
        return NOT_SQUAREFREE
    return ""


def is_simple_value(T: Tower, f):
    """(ok, reason).  f is simple when each projection pi_i(f) is simple at
    level i: free of t_{i+1}, ..., t_n, proper in t_i, and with a
    denominator squarefree in t_i (t_0 = x)."""
    for level, piece in enumerate(project_value(T, f)):
        why = not_simple_reason(T, piece, level)
        if why:
            return False, f"projection {level} {why}"
    return True, ""


def derivative_projections(T: Tower):
    """(cols, sv): cols[j-1] is project_value of t_j', and sv[j-1] its
    significant level, the highest level with a nonzero projection (-1 when
    t_j' = 0).  Computed once per tower and cached on it."""
    if T._derivative_projections is None:
        cols = tuple(tuple(project_value(T, d)) for d in T.derivs)
        sv = tuple(max((i for i, p in enumerate(col) if p), default=-1) for col in cols)
        T._derivative_projections = (cols, sv)
    return T._derivative_projections
