"""The nested direct-sum view of a tower.

Every element of K_n = Q(x)(t1, ..., tn) splits uniquely into projections:
the i-th projection is a combination of monomials in the generators above
level i whose coefficients are proper in t_i, and the 0-th projection is a
polynomial in all generators over Q(x).  Head monomials, the element order
used by the decomposition, and the simplicity predicate are all defined on
top of these projections; the level tests behind the predicate are shared
with Hermite reduction and the residue method.  Projections and head data
come from one recursion on unreduced (numerator, denominator) pairs of
polynomials, ``level_pieces``, whose pieces are unreduced pairs or, where
f lies in one level alone, f itself: ``project_value`` builds each level
with one ``F.new`` per distinct denominator, while ``head_monomials``
reads every level's head monomial from the monomials of the pieces
without building a field element, and ``head_data_value`` builds field
elements only for the head coefficients of the index set, each through
``arith.as_element``.  The head data and the order key take
the pieces, not the element: the pieces are linear in the element, so the
decomposition runs the recursion once at its entry and then only on each
pass's update, and the remainder test takes pi_n(r) from the single level-n
piece and the head data of r - pi_n(r) from the levels below, with no
projection and no subtraction.  A caller that holds an element passes
``level_pieces(T, f.value)``.  Monomials over t1..tn are exponent tuples;
the comparison is pure lex with t1 below t2 below ... below tn, and None
stands for the head monomial of the zero element.
"""

from __future__ import annotations

from functools import total_ordering

from .arith import as_element, free_of, pseudo_divmod, sum_pairs
from .tower import Record, Tower, expect

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


class HeadData(Record):
    """Head data of an element: per projection the head monomial ``hm_i``,
    an exponent tuple or None; ``hc_i``, level -> head coefficient (a field
    element) over ``index_set``; and the overall head monomial ``hm``, or
    None.  The head coefficient is the sum of the ``hc_i``."""

    __slots__ = ("hm_i", "hc_i", "hm", "index_set")


@total_ordering
class OrderKey(Record):
    """Ordered by (den_degree, hm_marker, hm_rev): ``hm_marker`` is 0 for
    the zero element and 1 otherwise, and ``hm_rev`` the reversed exponents,
    () for zero.  ``head``, the head data the key was read from (None for
    zero), is carried along and takes no part in equality, hash, order or
    repr."""

    __slots__ = ("den_degree", "hm_marker", "hm_rev", "head")
    _defaults = {"head": None}

    def _key(self):
        return (self.den_degree, self.hm_marker, self.hm_rev)

    def __repr__(self):
        return (
            f"OrderKey(den_degree={self.den_degree!r}, "
            f"hm_marker={self.hm_marker!r}, hm_rev={self.hm_rev!r})"
        )

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key() < other._key()
        return NotImplemented


def level_pieces(T: Tower, f) -> list:
    """Per level i, {higher monomial: piece} for a field element f or an
    unreduced (numerator, denominator) pair f: the projection pi_i(f) is
    the sum of piece * monomial, each piece proper in t_i and free of
    t_{i+1}, ..., t_n, each monomial an exponent tuple over t1..tn in
    t_{i+1}, ..., t_n alone.  A piece is an unreduced (numerator,
    denominator) tuple, or f itself: a field element f that lies in one
    level alone is that level's one piece, at the unit monomial, and is
    canonical already (``arith.as_element`` uses it as it is).

    The recursion runs on unreduced pairs of polynomials.  At level i one
    pseudo-division in t_i splits off the proper part, and each coefficient
    of the quotient descends to level i - 1 over the quotient's denominator,
    which is free of t_i.  The path down fixes the monomial, so each level
    holds one pair per monomial.  A pair that no division has touched is
    passed on as the same objects, so f that lies in one level reaches it
    as f's own numerator and denominator, and is stored there as f.
    """
    pieces = [{} for _ in range(T.n + 1)]

    def descend(N, D, level, mono, own):
        # own: (N, D) is the field element f's own pair, untouched
        if level == 0:
            pieces[0][mono] = f if own else (N, D)
            return
        if D.degree(level) > 0:
            Q, R, L = pseudo_divmod(N, D, level)
            if R:
                # with no quotient, R/(L*D) is N/D itself
                pieces[level][mono] = f if own and not Q else (R, D if L.is_one else L * D)
            N, D, own = Q, L, False
        if N.degree(level) > 0:
            for k, c in N.coeff_polys(level).items():
                descend(c, D, level - 1, mono[: level - 1] + (k,) + mono[level:], False)
        elif N:
            descend(N, D, level - 1, mono, own)

    N, D = f if isinstance(f, tuple) else (f.numer, f.denom)
    if N:
        descend(N, D, T.n, (0,) * T.n, not isinstance(f, tuple))
    return pieces


def project_value(T: Tower, f) -> list:
    """Projections (pi_0(f), ..., pi_n(f)) as raw field elements.

    Each level's pieces are summed per distinct denominator as polynomials
    and become field elements with one ``F.new`` per denominator; f that
    lies in one level is its own projection there, with no ``F.new``, as
    ``sum_pairs`` returns a lone element as it is.
    """
    pack = T.F.ring.pack
    return [
        sum_pairs(
            T.F,
            # a piece that is an element sits at the unit monomial
            (
                (piece[0].mul_monom(pack((0,) + mono)), piece[1]) if any(mono) else piece
                for mono, piece in level.items()
            ),
        )
        for level in level_pieces(T, f)
    ]


def head_monomials(pieces):
    """(hm_i, hm, index_set) read from level pieces: the head monomial of
    each level (None for an empty one), the overall head monomial (None when
    every level is empty) and the levels that attain it.  No field element
    is built."""
    hm_i = tuple(max(level, key=mono_key) if level else None for level in pieces)
    present = [m for m in hm_i if m is not None]
    if not present:
        return hm_i, None, frozenset()
    hm = max(present, key=mono_key)
    return hm_i, hm, frozenset(i for i, m in enumerate(hm_i) if m == hm)


def head_data_value(T: Tower, pieces) -> HeadData:
    """Head data of the element whose level pieces are given: the head
    monomials of every projection, read from the monomials of the pieces,
    and head coefficients built only for the levels in the index set, one
    ``arith.as_element`` each.  That is one ``F.new`` for a pair, and none
    for a piece that is an element, as f is where it lies in one level
    alone.  ``pieces`` may be a prefix of the levels, as the remainder
    test's levels below n are."""
    hm_i, hm, index_set = head_monomials(pieces)
    hc_i = {i: as_element(T.F, pieces[i][hm]) for i in index_set}
    return HeadData(hm_i, hc_i, hm, index_set)


def order_key_value(T: Tower, pieces) -> OrderKey:
    """The order key of the element whose level pieces are given.

    Its den_degree is the degree in t_n of the element's reduced
    denominator.  Only the level-n piece, at the unit monomial, can hold
    t_n there: every other piece's denominator is free of t_n, and a sum
    with a t_n-free denominator cancels no factor that involves t_n.  So
    the degree is read from the reduced level-n piece, the head coefficient
    hc_i[n] when level n attains the head monomial and its
    ``arith.as_element`` otherwise."""
    if not any(pieces):
        return OrderKey(0, 0, ())
    head = head_data_value(T, pieces)
    n = T.n
    top = pieces[n].get((0,) * n) if n else None
    if top is not None:
        top = head.hc_i[n] if n in head.index_set else as_element(T.F, top)
    return OrderKey(top.denom.degree(n) if top is not None else 0, 1, mono_key(head.hm), head)


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
    if expect(T, Tower)._derivative_projections is None:
        cols = tuple(tuple(project_value(T, d)) for d in T.derivs)
        sv = tuple(max((i for i, p in enumerate(col) if p), default=-1) for col in cols)
        T._derivative_projections = (cols, sv)
    return T._derivative_projections
