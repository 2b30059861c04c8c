"""The nested direct-sum view of a tower.

Every element of K_n = Q(x)(t1, ..., tn) splits uniquely into projections:
the i-th projection is a combination of monomials in the generators above
level i whose coefficients are proper in t_i, and the 0-th projection is a
polynomial in all generators over Q(x).  Head monomials, the element order
used by the decomposition, and the simplicity predicate are all defined on
top of these projections; the level tests behind the predicate are shared
with Hermite reduction and the residue method.  The functions on elements
take the tower and a raw field element (``T, f.value``).  Monomials over
t1..tn are exponent tuples; the comparison is pure lex with t1 below t2
below ... below tn, and None stands for the head monomial of the zero
element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arith import coeff_polys, free_of, pseudo_divmod
from .errors import TowerDecompError
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
    hc_i: tuple  # per-projection head coefficients (field elements)
    hm: tuple | None  # overall head monomial
    hc: object  # overall head coefficient (field element)
    index_set: frozenset
    # the projections the head data was read from
    proj: tuple = field(default=(), compare=False, repr=False)


@dataclass(frozen=True, order=True)
class OrderKey:
    den_degree: int
    hm_marker: int  # 0 for the zero element, 1 otherwise
    hm_rev: tuple  # reversed exponents, () for zero
    # the head data the key was read from; None for the zero element
    head: HeadData | None = field(default=None, compare=False, repr=False)


def project_value(T: Tower, f) -> list:
    """Projections (pi_0(f), ..., pi_n(f)) as raw field elements.

    The recursion runs on unreduced (numerator, denominator) pairs of
    polynomials.  At level i one pseudo-division in t_i splits off the proper
    part, and each coefficient of the quotient descends to level i - 1 over
    the quotient's denominator, which is free of t_i.  Each level's pieces
    are summed per distinct denominator as polynomials and become field
    elements with one ``F.new`` per denominator.
    """
    F = T.F
    gens = F.ring.gens
    pieces = [{} for _ in range(T.n + 1)]  # per level: denominator -> numerator

    def add(level, num, den):
        acc = pieces[level]
        acc[den] = acc[den] + num if den in acc else num

    def descend(N, D, level, mono):
        if level == 0:
            add(0, N * mono, D)
            return
        if D.degree(level) > 0:
            Q, R, L = pseudo_divmod(N, D, level)
            if R:
                add(level, R * mono, L * D)
            N, D = Q, L
        for k, c in coeff_polys(N, level).items():
            descend(c, D, level - 1, mono * gens[level] ** k)

    if f:
        descend(f.numer, f.denom, T.n, F.ring.one)
    proj = []
    for acc in pieces:
        total = F.zero
        for den, num in acc.items():
            if num:
                total += F.new(num, den)
        proj.append(total)
    return proj


def _head_coefficient(T: Tower, piece, level):
    """(head monomial, head coefficient) of a nonzero projection at level.

    The numerator's terms are keyed by their exponents of the generators
    above ``level``; the head coefficient is the bucket of the highest key
    over the projection's denominator, which must be free of those
    generators.
    """
    n = T.n
    higher = range(level + 1, n + 1)
    for mono in piece.denom.monoms():
        if any(mono[i] for i in higher):
            raise TowerDecompError(
                "projection denominator involves higher generators"
            )

    def key(mono):
        return tuple(mono[i] if i > level else 0 for i in range(1, n + 1))

    top = max((key(m) for m in piece.numer.monoms()), key=mono_key)
    if not any(top):
        return top, piece
    bucket = {}
    for mono, c in piece.numer.terms():
        if key(mono) == top:
            bucket[mono[: level + 1] + (0,) * (n - level)] = c
    return top, T.F.new(piece.numer.new(bucket), piece.denom)


def head_data_value(T: Tower, f) -> HeadData:
    proj = tuple(project_value(T, f))
    hm_i = []
    hc_i = []
    for level, piece in enumerate(proj):
        if not piece:
            hm_i.append(None)
            hc_i.append(T.F.zero)
            continue
        top, hc = _head_coefficient(T, piece, level)
        hm_i.append(top)
        hc_i.append(hc)
    present = [m for m in hm_i if m is not None]
    if not present:
        return HeadData(tuple(hm_i), tuple(hc_i), None, T.F.zero, frozenset(), proj)
    hm = max(present, key=mono_key)
    index_set = frozenset(i for i, m in enumerate(hm_i) if m == hm)
    hc = T.F.zero
    for i in index_set:
        hc += hc_i[i]
    return HeadData(tuple(hm_i), tuple(hc_i), hm, hc, index_set, proj)


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
    t_j' = 0)."""
    cols = [project_value(T, d) for d in T.derivs]
    sv = [max((i for i, p in enumerate(col) if p), default=-1) for col in cols]
    return cols, sv
