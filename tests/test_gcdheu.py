"""The ring-free heuristic gcd of the tower field against sympy's heugcd."""

from hypothesis import given, strategies as st
from sympy import ZZ, Integer
from sympy.core.cache import clear_cache
from sympy.polys.heuristicgcd import heugcd as sympy_heugcd
from sympy.polys.rings import ring

from towerdecomp import elementary_integrability, gcdheu
from towerdecomp.arith import make_field
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
    general)."""
    n = draw(st.integers(1, 5))
    step = draw(st.sampled_from([1, 1, 2, 3]))
    R = ring(names(n), ZZ)[0]

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
            p += R({tuple(e * step for e in mono): c})
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
