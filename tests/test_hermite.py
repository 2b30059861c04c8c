import operator

import pytest

from towerdecomp import hermite
from towerdecomp.arith import (
    UniPoly,
    frac_to_unipair,
    ground,
    split_proper_poly,
    squarefree_decomposition,
    unipoly_xgcd,
)
from towerdecomp.errors import InternalVerificationError, NotProper
from towerdecomp.hermite import (
    _hermite_core,
    hermite_reduce_proper_value,
    tower_derivative_unipoly,
)
from towerdecomp.matryoshka import is_simple_value

from conftest import (
    coupled_tower,
    li_tower,
    nested_tower,
    random_s_primitive_tower,
    u_tower,
)


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


def _quadratic_hermite_core(T, f, level):
    """Reference: the earlier multiplicity loop.  It strips the factor of
    highest multiplicity one power at a time with a fresh Bezout inverse per
    power, then rebuilds the denominator and runs Yun on it again."""
    F = T.F
    if not f:
        return F.zero, F.zero
    A, D = frac_to_unipair(f, level)
    sqf = squarefree_decomposition(D, level)
    if not sqf or sqf[-1][1] == 1:
        return F.zero, f
    g = F.zero
    while True:
        prod = UniPoly.constant(F, level, F.one)
        for fac, mult in sqf:
            prod = prod * fac.pow(mult)
        unit, rem = D.divmod(prod)
        assert rem.is_zero() and unit.degree == 0
        A = A // unit
        D = prod
        if sqf[-1][1] <= 1:
            break
        V, m = sqf[-1]
        U = D // V.pow(m)
        for j in range(m - 1, 0, -1):
            Vd = tower_derivative_unipoly(T, V, level)
            s = (U * Vd).scale(ground(F, j)) % V
            gg, sinv = unipoly_xgcd(s, V)
            assert gg.degree == 0
            B = (sinv * (-(A % V))) % V
            g += F.new(B.num * V.den**j, B.den * V.num**j)
            A = (A + (B * U * Vd).scale(ground(F, j))) // V
            A = A - U * tower_derivative_unipoly(T, B, level)
        D = U * V
        sqf = squarefree_decomposition(D, level)
    return g, F.new(A.num * D.den, A.den * D.num)


def _repeated_proper(T, level, rng):
    """A proper element at level whose denominator has one factor of
    multiplicity 2-4 in t_level over K_{level-1}, and at most one other
    factor of multiplicity 1-2 over Q, or None."""
    F = T.F
    v = T.gens[level]
    lower = list(T.gens[:level]) + [F.one]
    shift = rng.choice(lower) * rng.randint(-2, 2) + rng.randint(-2, 2)
    den = (v + shift) ** rng.randint(2, 4)
    den *= (v + rng.randint(-2, 2)) ** rng.randint(0, 2)
    if den.denom != F.ring.one or den.numer.degree(level) < 2:
        return None
    num = F.zero
    for k in range(den.numer.degree(level)):
        num += rng.choice(lower) * rng.randint(-3, 3) * v**k
    return num / den if num else None


def test_linear_loop_matches_quadratic_reference(rng):
    """(g, h) equal the earlier loop's exactly, at every level of the paper
    towers and of random S-primitive towers."""
    towers = [li_tower(), nested_tower(), u_tower(), coupled_tower()]
    towers += [random_s_primitive_tower(rng, 3) for _ in range(3)]
    for T in towers:
        for level in range(T.n + 1):
            f = None
            while f is None:
                f = _repeated_proper(T, level, rng)
            assert _hermite_core(T, f, level) == _quadratic_hermite_core(T, f, level)


def test_one_yun_and_one_inverse_per_repeated_factor(tower_li, monkeypatch):
    T = tower_li
    x, t1, t2, t3 = T.gens
    calls = {"yun": 0, "xgcd": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        hermite, "squarefree_decomposition", counted("yun", squarefree_decomposition)
    )
    monkeypatch.setattr(hermite, "unipoly_xgcd", counted("xgcd", unipoly_xgcd))
    for f, level, repeated in [
        ((x + t1) / (t1**2 * (t1 + 1) ** 3), 1, 2),
        (t2 / (t2 + 1) ** 4, 2, 1),
        ((t1 * t2 + x) / (x * t2**2 * (t2 + x) ** 3 * (t2 - 1) ** 4), 2, 3),
        (1 / (x**2 * (x + 1) ** 3), 0, 2),
    ]:
        calls.update(yun=0, xgcd=0)
        _hermite_core(T, f, level)
        assert calls == {"yun": 1, "xgcd": repeated}


def test_repeated_factor_that_is_not_normal_is_rejected(tower_li, monkeypatch):
    T = tower_li
    t1 = T.gens[1]
    # a zero derivation makes U*V' vanish modulo V
    zero = UniPoly.zero(T.F, 1)
    monkeypatch.setattr(hermite, "tower_derivative_unipoly", lambda T, p, level: zero)
    with pytest.raises(InternalVerificationError, match="not normal"):
        _hermite_core(T, 1 / (t1 * (t1 + 1) ** 2), 1)


def test_a_wrong_squarefree_decomposition_is_rejected(tower_li, monkeypatch):
    """The product of the factors must divide the denominator with a unit
    quotient; t1^3 does not divide t1^2."""
    t1 = tower_li.gens[1]

    def bumped(p, v, _sqf=squarefree_decomposition):
        return [(fac, m + 1) for fac, m in _sqf(p, v)]

    monkeypatch.setattr(hermite, "squarefree_decomposition", bumped)
    with pytest.raises(InternalVerificationError, match="^squarefree product mismatch$"):
        hermite_reduce_proper_value(tower_li, 1 / t1**2, 1)


@pytest.mark.parametrize(
    "why, message",
    [
        (hermite.NOT_SQUAREFREE, "^Hermite output denominator not squarefree$"),
        ("forced", "^Hermite output is not proper$"),
    ],
)
def test_an_output_that_is_not_simple_is_rejected(why, message, tower_li, monkeypatch):
    """After stripping a repeated factor, the output h must be simple."""
    t1 = tower_li.gens[1]
    monkeypatch.setattr(hermite, "not_simple_reason", lambda T, h, level: why)
    with pytest.raises(InternalVerificationError, match=message):
        hermite_reduce_proper_value(tower_li, 1 / t1**2, 1)


def test_division_reduces_only_the_part_it_returns(tower_li, gcds):
    T = tower_li
    x, t1 = T.gens[:2]
    a = UniPoly(T.F, 1, (t1**3 + x * t1 + 1).numer)
    # lc x: pseudo-division folds a power of x into both denominators
    b = UniPoly(T.F, 1, (x * t1 + 1).numer)
    for op, reduced in [(operator.mod, 1), (operator.floordiv, 1), (UniPoly.divmod, 2)]:
        gcds.clear()
        op(a, b)
        assert gcds == {"cofactors": reduced}
    q, r = a.divmod(b)
    assert a // b == q and a % b == r and q * b + r == a


def test_inverse_is_reduced_before_the_products(monkeypatch):
    """The derivative of (5*t3 - x^2*t3^2)/(-2*t3^2 + 2*t2*t3 + 5*t2^2) on
    the nested tower has a repeated factor in t3 whose Bezout inverse the
    extended gcd's sums leave at 310/223 terms over a reduced pair of
    46/43.  Every product by the inverse takes it in lowest terms, and the
    output is the earlier loop's."""
    T = nested_tower()
    x, t1, t2, t3 = T.gens
    f = T.diff(((5 * t3 - x**2 * t3**2) / (-2 * t3**2 + 2 * t2 * t3 + 5 * t2**2)))
    proper, _ = split_proper_poly(f, 3)
    inverses, operands = [], []
    product = UniPoly.__mul__

    def xgcd(a, b):
        gg, s = unipoly_xgcd(a, b)
        inverses.append(s)
        return gg, s

    def mul(self, other):
        operands.append((self, other))
        return product(self, other)

    monkeypatch.setattr(hermite, "unipoly_xgcd", xgcd)
    monkeypatch.setattr(UniPoly, "__mul__", mul)
    g, h = _hermite_core(T, proper, 3)
    monkeypatch.undo()
    assert len(inverses) == 1
    inv = inverses[0]
    used = [p for pair in operands for p in pair if isinstance(p, UniPoly) and p == inv]
    assert used
    for p in used:
        common = p.num.gcd(p.den)
        assert common.is_ground, f"a common factor of {len(common)} terms"
    assert (g, h) == _quadratic_hermite_core(T, proper, 3)
