"""The ring-free heuristic gcd of the tower field against sympy's heugcd."""

import pytest
from hypothesis import given, strategies as st
from sympy import ZZ, Integer
from sympy.core.cache import clear_cache
from sympy.polys.heuristicgcd import heugcd as sympy_heugcd
from sympy.polys.rings import ring

from towerdecomp import elementary_integrability, gcdheu, polys
from towerdecomp.arith import make_field
from towerdecomp.errors import HeuristicGCDFailed
from towerdecomp.exprio import parse_expression
from towerdecomp.polys import PolyRing

from conftest import nested_tower, sympy_calls, sympy_dict

README_INPUT = "1/(t1*t2) + (t2 - 2*x*t1)/t1^2 + t3"


def names(n):
    return ["x"] + [f"t{i}" for i in range(1, n)]


@st.composite
def poly_pairs(draw, kinds=("common", "coprime", "equal")):
    """(n, f, g), polynomials in n variables: f = k*c*a and g = m*c*b with
    a shared factor c, integer contents k and m (negative ones flip the
    leading coefficient) and, at times, every exponent scaled by a common
    step (deflatable), b = -a (equal up to sign) or c = 1 (coprime, in
    general).  At times neither f nor g holds the first variable, an inner
    one, or any variable but one, so that the gcd skips those levels."""
    n = draw(st.integers(1, 5))
    step = draw(st.sampled_from([1, 1, 2, 3]))
    R = ring(names(n), ZZ)[0]
    absent = draw(
        st.sampled_from([set(), set(), {0}, {draw(st.integers(0, n - 1))}])
        | st.integers(0, n - 1).map(lambda kept: set(range(n)) - {kept})
    )

    def poly(max_terms):
        terms = draw(
            st.lists(
                st.tuples(
                    st.lists(st.integers(0, 3), min_size=n, max_size=n),
                    st.integers(-9, 9).filter(bool),
                ),
                min_size=1,
                max_size=max_terms,
            )
        )
        p = R.zero
        for mono, c in terms:
            p += R({tuple(0 if i in absent else e * step for i, e in enumerate(mono)): c})
        return p or R.one

    kind = draw(st.sampled_from(kinds))
    c = R.one if kind == "coprime" else poly(3)
    a = poly(4)
    b = -a if kind == "equal" else poly(4)
    k = draw(st.sampled_from([1, 2, 6, -4]))
    m = draw(st.sampled_from([1, 3, -2]))
    return n, (c * a).mul_ground(k), (c * b).mul_ground(m)


def kernel_heugcd(f, g, n):
    """The kernel's (h, cff, cfg) of two sympy polynomials, back in sympy's
    ring."""
    R, P = f.ring, PolyRing(names(n))
    out = gcdheu.heugcd(P(dict(f)), P(dict(g)), n)
    return tuple(R(sympy_dict(P.dtype(p))) for p in out)


@given(poly_pairs())
def test_kernel_matches_sympy_heugcd(pair):
    n, f, g = pair
    assert kernel_heugcd(f, g, n) == sympy_heugcd(f, g)


def test_no_evaluation_point_fails_also_below_skipped_levels(monkeypatch):
    """A level whose variable neither operand holds is skipped, and the
    level below it still raises when it has no evaluation point to try."""
    monkeypatch.setattr(gcdheu, "HEU_GCD_MAX", 0)
    x, t1, t2 = make_field(names(3))[0].ring.gens
    one = t1.ring.one
    for f, g in [(t1 + one, t1 * t2 - one), (t2 + one, t2 - one * 3), (x + t2, x - one)]:
        with pytest.raises(HeuristicGCDFailed):
            gcdheu.heugcd(dict(f), dict(g), 3)


def test_exquo_by_one_returns_a_copy():
    for n in (1, 3):
        f = dict(PolyRing(names(n))({(2,) + (0,) * (n - 1): -3, (0,) * n: 5}))
        q = gcdheu._exquo(f, {0: 1}, n)
        assert q == f and q is not f


def test_exquo_by_a_divisor_past_the_top_field_is_none():
    """A divisor that the gcd interpolates may have a first exponent of
    2**15 or more, in the top field's guard bit; it divides nothing."""
    for n in (1, 2):
        x = 1 << gcdheu.W * (n - 1)
        assert gcdheu._exquo({x: 1}, {x << gcdheu.W - 1: 1, 1: 1}, n) is None


@given(poly_pairs(kinds=("coprime",)))
def test_coprime_pairs_divide_by_one_and_match_sympy_heugcd(pair):
    """A coprime pair's gcd interpolates to 1, so its trial divisions are
    divisions by 1; the kernel still returns sympy's (h, cff, cfg)."""
    n, f, g = pair
    R = f.ring
    by_one = []
    exquo = gcdheu._exquo

    def spy(p, q, m):
        by_one.append(q == {0: 1})
        return exquo(p, q, m)

    gcdheu._exquo = spy
    try:
        h, cff, cfg = kernel_heugcd(f, g, n)
    finally:
        gcdheu._exquo = exquo
    assert (h, cff, cfg) == sympy_heugcd(f, g)
    if h == R.one:
        assert any(by_one)


@given(poly_pairs())
def test_tower_cofactors_match_sympys(pair):
    """Through sympy's cofactors, deflation and one-term shortcut included."""
    n, f, g = pair
    F, _ = make_field(names(n))
    tf, tg = F.ring(dict(f)), F.ring(dict(g))
    got = tf.cofactors(tg)
    assert all(type(p) is type(tf) for p in got)
    assert tuple(sympy_dict(p) for p in got) == tuple(dict(p) for p in f.cofactors(g))


def test_a_request_builds_no_ring():
    """No sympy function runs in a request, so it builds no sympy ring and
    gains nothing from sympy's cache."""
    T = nested_tower()
    f = parse_expression(README_INPUT, T)
    with sympy_calls() as calls:
        Integer(3) + 1
    assert calls  # the recorder sees sympy's own calls
    clear_cache()
    with sympy_calls() as calls:
        elementary_integrability(f)
    assert calls == []


# -- exact division ahead of the heuristic ------------------------------------

LI_RING = make_field(names(4))[0].ring


@st.composite
def li_polys(draw, min_terms=1):
    """A polynomial over Z[x, t1, t2, t3] with 1-4 terms, or min_terms and
    more, of exponents up to 2."""
    terms = draw(
        st.lists(
            st.tuples(st.tuples(*[st.integers(0, 2)] * 4), st.integers(-5, 5).filter(bool)),
            min_size=min_terms,
            max_size=4,
            unique_by=lambda term: term[0],
        )
    )
    return LI_RING({mono: c for mono, c in terms})


def normalized_heugcd(a, b):
    """gcdheu's (h, cff, cfg) with h's leading coefficient made positive."""
    h, cff, cfg = (LI_RING.dtype(p) for p in gcdheu.heugcd(dict(a), dict(b), 4))
    return (-h, -cff, -cfg) if h.LC < 0 else (h, cff, cfg)


@given(
    li_polys(min_terms=2),
    li_polys(),
    st.sampled_from([1, 2, 6, -1, -3]),
    st.sampled_from([1, 4, -2, -6]),
)
def test_a_divisible_pair_gives_the_heuristics_triple(f, q, k, m):
    """f*q and f, each with an integer content and sign of its own: the
    exact division by f's primitive part returns the unique gcd, the
    triple that the heuristic gives made positive, in either order."""
    a, b = f.mul_ground(k), (f * q).mul_ground(m)
    assert a.cofactors(b) == normalized_heugcd(a, b)
    assert b.cofactors(a) == normalized_heugcd(b, a)


def test_a_divisible_pair_runs_no_heuristic_gcd(monkeypatch):
    """Divisible pairs, x - t1 among the divisors although it vanishes at
    (1, ..., 1), take the exact division alone."""
    calls = []
    monkeypatch.setattr(polys, "heugcd", lambda *args: calls.append(args))
    x, t1, t2, t3 = LI_RING.gens
    one = LI_RING.one
    for f, q in [
        (x - t1, x + t2 + one),
        ((x - t1).mul_ground(-6), (t1 * t3 - one).mul_ground(4)),
        (x * t2 + t1.mul_ground(3), x - one),
        (t2 + one, t3.mul_ground(-2)),  # equal term counts, f*q first
    ]:
        for a, b in [(f, f * q), (f * q, f)]:
            h, cff, cfg = a.cofactors(b)
            assert h.LC > 0 and h * cff == a and h * cfg == b
    assert not calls


def test_the_value_at_one_rejects_before_any_division(monkeypatch):
    """x + 2 takes the value 3 at (1, ..., 1) and x^2 + t1 the value 2, so
    x + 2 cannot divide it: no exact division runs ahead of the heuristic.
    x + 1 and x^2 + 1 pass that test, and the division runs and misses."""
    divisions = []
    exquo = polys._exquo

    def spy(*args):
        divisions.append(args)
        return exquo(*args)

    monkeypatch.setattr(polys, "_exquo", spy)
    x, t1, t2, t3 = LI_RING.gens
    one = LI_RING.one
    a, b = x + one.mul_ground(2), x**2 + t1
    assert a.cofactors(b) == normalized_heugcd(a, b) and not divisions
    a, b = x + one, x**2 + one
    assert a.cofactors(b) == normalized_heugcd(a, b) == (one, a, b)
    assert len(divisions) == 1
