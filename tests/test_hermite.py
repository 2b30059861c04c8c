import pytest

from towerdecomp.arith import frac_to_unipair, split_proper_poly
from towerdecomp.errors import NotProper
from towerdecomp.hermite import _hermite_core, hermite_reduce_proper_value
from towerdecomp.matryoshka import is_simple_value


def _check(T, f, level):
    g, h = hermite_reduce_proper_value(T, f, level)
    assert T.diff(g) + h == f
    return g, h


def test_known_reductions(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    g, h = _check(T, 1 / t1**2, 1)
    assert g == -x / t1 and h == 1 / t1
    g, h = _check(T, 1 / x**2, 0)
    assert g == -1 / x and not h
    g, h = _check(T, 1 / (t1 * t2), 2)
    assert not g and h == 1 / (t1 * t2)


def test_level_zero_polynomial_part(tower_li):
    T = tower_li
    x = T.gens[0]
    g, h = _check(T, x**3 + 1 / x**2 + 1 / (x + 1) ** 3, 0)
    assert not h.denom.degree(0) > 1  # squarefree denominator in x
    # polynomial part integrates by the power rule
    g2, h2 = _check(T, x**2 * 3, 0)
    assert g2 == x**3 and not h2


def test_higher_multiplicity_factors(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    for f, level in [
        ((x + t1) / (t1**2 * (t1 + 1) ** 3), 1),
        ((x**2 + t1) / (x * t1**3), 1),
        (t2 / (t2 + 1) ** 3, 2),
        ((t1 * t2 + x) / (x * t2**2), 2),
    ]:
        g, h = _check(T, f, level)
        ok, why = is_simple_value(T, h)
        assert ok, why


def test_not_proper_rejected(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    with pytest.raises(NotProper):
        hermite_reduce_proper_value(T, t1 / (t1 + 1), 1)
    with pytest.raises(NotProper):
        hermite_reduce_proper_value(T, t2 / t1, 1)  # involves a higher generator
    with pytest.raises(NotProper):
        hermite_reduce_proper_value(T, t1, 0)


def test_hermitian_part_splits_three_ways(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    proper, poly = split_proper_poly(1 / t2**2 + t2, 2)
    g, h = hermite_reduce_proper_value(T, proper, 2)
    p = poly.to_frac()
    assert h == 1 / (x * t2)
    assert g == -t1 / t2
    assert p == t2
    assert T.diff(g) + h + p == 1 / t2**2 + t2
    with pytest.raises(NotProper):
        hermite_reduce_proper_value(T, t3 / t2, 2)


def test_random_reconstruction(tower_li, rng):
    """Across levels: f = g' + h with h simple at its level and the
    denominator of h dividing the denominator of f."""
    T = tower_li
    x, t1, t2, t3 = T.gens
    vars_by_level = {0: [x], 1: [x, t1], 2: [x, t1, t2], 3: [x, t1, t2, t3]}
    count = 0
    while count < 60:
        level = rng.choice([0, 1, 2, 3])
        v = T.gens[level]
        lower = vars_by_level[level][:-1] + [T.F.one]
        den = T.F.one
        for _ in range(rng.randint(1, 2)):
            shift = rng.choice(lower) * rng.randint(0, 2) + rng.randint(-2, 2)
            den *= (v + shift) ** rng.randint(1, 3)
        if den.denom != T.F.ring.one or den.numer.degree(level) < 1:
            continue
        numdeg = den.numer.degree(level) - 1
        num = T.F.zero
        for k in range(numdeg + 1):
            num += rng.choice(lower) * rng.randint(-3, 3) * v**k
        f = num / den
        if not f:
            continue
        g, h = hermite_reduce_proper_value(T, f, level)
        assert T.diff(g) + h == f
        if h:
            ok, why = is_simple_value(T, h)
            assert ok, why
            # denominator divisibility holds per level: coefficients of the
            # Bezout solutions may bring in lower-variable denominators
            _, df = frac_to_unipair(f, level)
            _, dh = frac_to_unipair(h, level)
            assert df.divmod(dh)[1].is_zero()
        count += 1


def test_squarefree_denominator_costs_one_gcd_and_returns_f(tower_li, gcds):
    T = tower_li
    x, t1, t2, t3 = T.gens
    cases = [
        (1 / (x * t1), 1),
        ((x + t1) / (t1 * (t1 + 1)), 1),
        (1 / (t1 * t2), 2),
        ((t1 * t2 + x) / (x * (t2**2 + t1)), 2),
        (t2 / (x * t3 + 1), 3),
        (1 / (x**2 - 1), 0),
    ]
    for f, level in cases:
        gcds.clear()
        g, h = _hermite_core(T, f, level)
        assert not g and h is f
        # the one gcd is Yun's gcd(D, dD/dt_level), found constant in t_level
        assert gcds == {"gcd": 1, "cofactors": 1}
