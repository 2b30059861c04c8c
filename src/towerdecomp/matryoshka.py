"""The nested direct-sum view of a tower.

Every element of K_n = Q(x)(t1, ..., tn) splits uniquely into projections:
the i-th projection is a combination of monomials in the generators above
level i whose coefficients are proper in t_i, and the 0-th projection is a
polynomial in all generators over Q(x).  Head monomials, the element order
used by the decomposition, and the simplicity predicate are all defined on
top of these projections; the level tests behind the predicate are shared
with Hermite reduction and the residue method.  Monomials over t1..tn are
exponent tuples; the comparison is pure lex with t1 below t2 below ...
below tn, and None stands for the head monomial of the zero element (below
everything).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arith import free_of, poly_to_unipoly, split_proper_poly, unipoly_gcd
from .errors import TowerDecompError
from .tower import Tower, TowerElement

LOWER = "lower"
HIGHER = "higher"
EQUAL = "equal"
EQUAL_KEY = "equal-key"  # distinct elements sharing the same order key
NOT_SQUAREFREE = "has a non-squarefree denominator"


def mono_key(exps):
    """Sort key for pure lex with the last generator most significant."""
    return tuple(reversed(exps))


def mono_le(a, b) -> bool:
    """a is not higher than b; None is the bottom element."""
    if a is None:
        return True
    if b is None:
        return False
    return mono_key(a) <= mono_key(b)


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


@dataclass(frozen=True, order=True)
class OrderKey:
    den_degree: int
    hm_marker: int  # 0 for the zero element, 1 otherwise
    hm_rev: tuple  # reversed exponents, () for zero
    # the head data the key was read from; None for the zero element
    head: HeadData | None = field(default=None, compare=False, repr=False)


def project_value(T: Tower, f) -> list:
    """Projections (pi_0(f), ..., pi_n(f)) as raw field elements."""
    n = T.n
    proj = [T.F.zero for _ in range(n + 1)]

    def descend(e, level, mono):
        if level == 0:
            proj[0] += e * mono
            return
        proper, poly = split_proper_poly(e, level)
        if proper:
            proj[level] += proper * mono
        gen = T.gens[level]
        for k, c in poly.coeffs.items():
            descend(c, level - 1, mono * gen**k)

    descend(f, n, T.F.one)
    return proj


def project(f: TowerElement):
    T = f.tower
    return [TowerElement(p, T) for p in project_value(T, f.value)]


def coefficient_map(T: Tower, piece, level) -> dict:
    """Expand a projection at the given level into monomial -> coefficient.

    Keys are exponent tuples over t1..tn (entries at or below ``level`` are
    zero); values are field elements free of the generators above ``level``.
    """
    n = T.n
    higher = range(level + 1, n + 1)
    for mono in piece.denom.monoms():
        if any(mono[i] for i in higher):
            raise TowerDecompError(
                "projection denominator involves higher generators"
            )
    buckets = {}
    ring = T.F.ring
    for mono, c in piece.numer.terms():
        key = tuple(mono[i] if i in higher else 0 for i in range(1, n + 1))
        low = list(mono)
        for i in higher:
            low[i] = 0
        term = ring.term_new(tuple(low), c)
        if key in buckets:
            buckets[key] += term
        else:
            buckets[key] = term
    den = piece.denom
    out = {}
    for key, num in buckets.items():
        val = T.F.raw_new(num, ring.one) / T.F.raw_new(den, ring.one)
        if val:
            out[key] = val
    return out


def head_data_value(T: Tower, f) -> HeadData:
    proj = project_value(T, f)
    hm_i = []
    hc_i = []
    for level, piece in enumerate(proj):
        if not piece:
            hm_i.append(None)
            hc_i.append(T.F.zero)
            continue
        cmap = coefficient_map(T, piece, level)
        top = max(cmap, key=mono_key)
        hm_i.append(top)
        hc_i.append(cmap[top])
    present = [m for m in hm_i if m is not None]
    if not present:
        return HeadData(tuple(hm_i), tuple(hc_i), None, T.F.zero, frozenset())
    hm = max(present, key=mono_key)
    index_set = frozenset(i for i, m in enumerate(hm_i) if m == hm)
    hc = T.F.zero
    for i in index_set:
        hc += hc_i[i]
    return HeadData(tuple(hm_i), tuple(hc_i), hm, hc, index_set)


def head_data(f: TowerElement) -> HeadData:
    return head_data_value(f.tower, f.value)


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


def order_key(f: TowerElement) -> OrderKey:
    return order_key_value(f.tower, f.value)


def compare_order(f: TowerElement, g: TowerElement) -> str:
    """Compare two elements by (denominator degree in tn, head monomial)."""
    if f.tower is not g.tower:
        raise TowerDecompError("cannot compare elements of different towers")
    kf = order_key(f)
    kg = order_key(g)
    if kf < kg:
        return LOWER
    if kf > kg:
        return HIGHER
    return EQUAL if f.value == g.value else EQUAL_KEY


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
    den = poly_to_unipoly(T.F, f.denom, level)
    if unipoly_gcd(den, den.formal_derivative()).degree > 0:
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


def is_simple(f: TowerElement) -> bool:
    return is_simple_value(f.tower, f.value)[0]


def derivative_projections(T: Tower):
    """(cols, sv): cols[j-1] is project_value of t_j', and sv[j-1] its
    significant level, the highest level with a nonzero projection (-1 when
    t_j' = 0)."""
    cols = [project_value(T, d) for d in T.derivs]
    sv = [max((i for i, p in enumerate(col) if p), default=-1) for col in cols]
    return cols, sv
