"""The ring-free heuristic gcd of the tower field against sympy's heugcd."""

from hypothesis import given, strategies as st
from sympy import ZZ
from sympy.core.cache import clear_cache
from sympy.polys.heuristicgcd import heugcd as sympy_heugcd
from sympy.polys.rings import PolyElement, PolyRing, ring

from towerdecomp import elementary_integrability, gcdheu
from towerdecomp.arith import make_field
from towerdecomp.exprio import parse_expression

from conftest import li_tower, nested_tower

README_INPUT = "1/(t1*t2) + (t2 - 2*x*t1)/t1^2 + t3"


def names(n):
    return ["x"] + [f"t{i}" for i in range(1, n)]


@st.composite
def poly_pairs(draw):
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

    kind = draw(st.sampled_from(["common", "coprime", "equal"]))
    c = R.one if kind == "coprime" else poly(3)
    a = poly(4)
    b = -a if kind == "equal" else poly(4)
    k = draw(st.sampled_from([1, 2, 6, -4]))
    m = draw(st.sampled_from([1, 3, -2]))
    return n, (c * a).mul_ground(k), (c * b).mul_ground(m)


@given(poly_pairs())
def test_kernel_matches_sympy_heugcd(pair):
    n, f, g = pair
    R = f.ring
    h, cff, cfg = gcdheu.heugcd(f, g, n)
    assert (R(h), R(cff), R(cfg)) == sympy_heugcd(f, g)


@given(poly_pairs())
def test_tower_cofactors_match_sympys(pair):
    """Through sympy's cofactors, deflation and one-term shortcut included."""
    n, f, g = pair
    F, _ = make_field(names(n))
    tf, tg = F.ring(dict(f)), F.ring(dict(g))
    got = tf.cofactors(tg)
    assert all(type(p) is type(tf) for p in got)
    assert tuple(dict(p) for p in got) == tuple(dict(p) for p in f.cofactors(g))


def test_tower_rings_are_apart_from_sympys():
    F, (x, t1) = make_field(["x", "t1"])
    R, y, _ = ring("x,t1", ZZ)
    assert type(R) is PolyRing
    assert type(y) is PolyElement and type(R.one) is PolyElement
    assert type(F.ring) is not PolyRing and isinstance(F.ring, PolyRing)
    tower_poly = type(x.numer)
    assert tower_poly is not PolyElement and issubclass(tower_poly, PolyElement)
    T = li_tower()
    f = T.diff(1 / (T.gens[1] * T.gens[2]) + T.gens[3])
    for p in (f.numer, f.denom, T.F.ring.one, T.F.ring.gens[2], T.F.zero.numer):
        assert type(p) is type(T.F.ring.one) is not PolyElement


def test_a_request_builds_no_ring(monkeypatch):
    """sympy's heugcd drops one variable per recursion into a new ring,
    rebuilt whenever sympy's cache is empty; the tower field's gcd builds
    none.  With sympy's heugcd this request builds rings in 3, 2 and 1
    variables."""
    T = nested_tower()
    f = parse_expression(README_INPUT, T)
    built = []
    new = PolyRing.__new__

    def counting(cls, symbols, *args, **kwargs):
        built.append(symbols)
        return new(cls, symbols, *args, **kwargs)

    monkeypatch.setattr(PolyRing, "__new__", staticmethod(counting))
    clear_cache()
    elementary_integrability(f)
    assert built == []
