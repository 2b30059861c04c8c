import random

import pytest
from hypothesis import given, settings

from towerdecomp import hermite
from towerdecomp.arith import (
    UniPoly,
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
    quotient_rule_pair,
    random_s_primitive_tower,
    seeds,
    summed,
    u_tower,
)


def _check(T, f, level):
    g, h = summed(T.F, hermite_reduce_proper_value(T, f, level))
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


def test_power_rule_piece_is_canonical_with_no_gcd(tower_li, gcds):
    """The power rule's P/k, with k a constant, shares only the integer
    gcd(content(P), k) with it, which is divided out: for 2*x, P = 2*x^2 and
    k = 2 share 2.  The piece is a canonical element in every case, built
    with no polynomial gcd."""
    T = tower_li
    x = T.gens[0]
    for f, P in [(2 * x, x**2), (x**2 * 3 + 1, x**3 + x), (x / 3, x**2 / 6), (-x * 4, -2 * x**2)]:
        gcds.clear()
        pieces, h = hermite_reduce_proper_value(T, f, 0)
        assert not gcds and not h
        (piece,) = pieces
        assert piece == P
        c = T.F.new(piece.numer, piece.denom)
        assert (piece.numer, piece.denom) == (c.numer, c.denom)


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
    g, h = summed(T.F, hermite_reduce_proper_value(T, proper, 2))
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
        g, h = summed(T.F, hermite_reduce_proper_value(T, f, level))
        assert T.diff(g) + h == f
        if h:
            ok, why = is_simple_value(T, h)
            assert ok, why
            # denominator divisibility holds per level: coefficients of the
            # Bezout solutions may bring in lower-variable denominators
            df, dh = UniPoly(T.F, level, f.denom), UniPoly(T.F, level, h.denom)
            assert (df % dh).is_zero()
        count += 1


def test_squarefree_denominator_costs_one_gcd_and_returns_f(tower_li, gcds):
    T = tower_li
    x, t1, t2, t3 = T.gens
    # (f, level, whether gcd(D, dD/dt_level) is a constant over Z)
    cases = [
        (1 / (x * t1), 1, False),
        ((x + t1) / (t1 * (t1 + 1)), 1, True),
        (1 / (t1 * t2), 2, False),
        ((t1 * t2 + x) / (x * (t2**2 + t1)), 2, False),
        (t2 / (x * t3 + 1), 3, True),
        (1 / (x**2 - 1), 0, True),
    ]
    for f, level, coprime in cases:
        gcds.clear()
        pieces, h = _hermite_core(T, f, level)
        assert not pieces and h is f
        # the one gcd is Yun's gcd(D, dD/dt_level), found constant in t_level
        assert gcds == {"gcd": 1, "cofactors": 1, **({"coprime": 1} if coprime else {})}


def _monic_factors(D, level):
    """Yun's factors of the UniPoly D, each made monic over K_{level-1}."""
    return [
        (UniPoly(D.F, level, fac, fac.coeff_wrt(level, fac.degree(level))), m)
        for fac, m in squarefree_decomposition(D.num, level)
    ]


def _power(p, e):
    return UniPoly(p.F, p.v, p.num**e, p.den**e)


def _quadratic_hermite_core(T, f, level):
    """Reference: the earlier multiplicity loop over monic factors.  It
    strips the factor of highest multiplicity one power at a time with a
    fresh Bezout inverse per power, then rebuilds the denominator and runs
    Yun on it again."""
    F = T.F
    if not f:
        return F.zero, F.zero
    A, D = UniPoly(F, level, f.numer), UniPoly(F, level, f.denom)
    sqf = _monic_factors(D, level)
    if not sqf or sqf[-1][1] == 1:
        return F.zero, f
    g = F.zero
    while True:
        prod = UniPoly(F, level, F.ring.one)
        for fac, mult in sqf:
            prod = prod * _power(fac, mult)
        unit = D.exact_quo(prod)
        assert unit is not None and unit.degree == 0
        A = A.scale(1 / unit.to_frac())
        D = prod
        if sqf[-1][1] <= 1:
            break
        V, m = sqf[-1]
        U = D.exact_quo(_power(V, m))
        for j in range(m - 1, 0, -1):
            Vd = tower_derivative_unipoly(T, V, level)
            s = (U * Vd).scale(F.ground(j)) % V
            gg, sinv = unipoly_xgcd(s, V)
            assert gg.degree == 0
            B = (sinv * (-(A % V))) % V
            g += F.new(B.num * V.den**j, B.den * V.num**j)
            A = (A + (B * U * Vd).scale(F.ground(j))).exact_quo(V)
            A = A - U * tower_derivative_unipoly(T, B, level)
        D = U * V
        sqf = _monic_factors(D, level)
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
            assert summed(T.F, _hermite_core(T, f, level)) == _quadratic_hermite_core(T, f, level)


_PAPER_TOWERS = []


def _non_monic_repeated_proper(T, level, rng):
    """A proper element at level over c*V^m*W^k: V = a*t_level + b with a
    not a unit and gcd(a, b) = 1, m in 2..3, W = t_level + s with k in 0..2,
    and c != 0 free of t_level, all over Z[x, t_1, ..., t_{level-1}]; or
    None when the numerator cancels a power of V."""
    F = T.F
    v = T.gens[level]
    lower = list(T.gens[:level]) + [F.one]
    while True:
        a = rng.choice(lower) * rng.choice([2, 3, -2]) + rng.choice(lower) * rng.randint(0, 1)
        b = rng.choice(lower) * rng.randint(-2, 2) + rng.choice([1, -1, 2, 3])
        if a.numer.gcd(b.numer).is_ground:
            break
    if a.numer.is_ground and abs(a.numer.LC) == 1:
        return None
    V = a * v + b
    c = rng.choice(lower) * rng.randint(1, 3) + rng.randint(1, 2)
    m = rng.randint(2, 3)
    den = c * V**m * (v + rng.choice(lower) * rng.randint(-1, 1)) ** rng.randint(0, 2)
    num = F.zero
    for k in range(den.numer.degree(level)):
        num += rng.choice(lower) * rng.randint(-3, 3) * v**k
    f = num / den
    if not f or f.denom.exact_quo(V.numer**2) is None:
        return None
    return f


@settings(max_examples=10)
@given(seed=seeds)
def test_integer_factors_match_the_monic_reference(seed):
    """On denominators whose repeated factor has a leading coefficient in
    t_level that is not a unit and whose content is free of t_level, the
    reduction on Yun's integer factors equals the earlier loop over monic
    factors, at a random level of each paper tower and of a random
    S-primitive tower, and g' + h = f."""
    rng = random.Random(seed)
    if not _PAPER_TOWERS:
        _PAPER_TOWERS.extend([li_tower(), nested_tower(), u_tower(), coupled_tower()])
    for T in _PAPER_TOWERS + [random_s_primitive_tower(rng, 3)]:
        level = rng.randint(0, T.n)
        f = None
        while f is None:
            f = _non_monic_repeated_proper(T, level, rng)
        g, h = summed(T.F, _hermite_core(T, f, level))
        assert (g, h) == _quadratic_hermite_core(T, f, level)
        assert T.diff(g) + h == f


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
    zero = UniPoly(T.F, 1, T.F.ring.zero)
    monkeypatch.setattr(hermite, "tower_derivative_unipoly", lambda T, p, level: zero)
    with pytest.raises(InternalVerificationError, match="not normal"):
        _hermite_core(T, 1 / (t1 * (t1 + 1) ** 2), 1)


def test_a_step_whose_piece_is_perturbed_is_rejected(tower_li, monkeypatch):
    """Each step divides A + j*B*U*V' by V and keeps the remainder: with
    the inverse of U*V' mod V off by one, B is -(x + 1) for 1/t1^2 in place
    of -x, and 1 - (x + 1)/x leaves a remainder."""
    t1 = tower_li.gens[1]

    def off_by_one(a, b, _xgcd=unipoly_xgcd):
        gg, inv = _xgcd(a, b)
        return gg, inv + UniPoly(inv.F, inv.v, inv.den)

    monkeypatch.setattr(hermite, "unipoly_xgcd", off_by_one)
    with pytest.raises(InternalVerificationError, match="^Hermite step does not reconstruct$"):
        hermite_reduce_proper_value(tower_li, 1 / t1**2, 1)


def test_a_wrong_power_rule_is_rejected(tower_li, monkeypatch):
    """At level 0 the power rule's P/k must differentiate to the polynomial
    part exactly: x^3/3 + x, the antiderivative of x^2 + 1 in 1/x^2 + x^2 + 1,
    read as x^3/3 + 2*x, is not."""
    x = tower_li.gens[0]

    def plus_x(poly, _rule=hermite._power_rule):
        P, k = _rule(poly)
        return P + x.numer.mul_ground(k.LC), k

    monkeypatch.setattr(hermite, "_power_rule", plus_x)
    with pytest.raises(InternalVerificationError, match="^power rule does not reconstruct$"):
        hermite_reduce_proper_value(tower_li, 1 / x**2 + x**2 + 1, 0)


def test_a_wrong_squarefree_decomposition_is_rejected(tower_li, monkeypatch):
    """The product of the factors must divide the denominator exactly;
    t1^3 does not divide t1^2."""
    t1 = tower_li.gens[1]

    def bumped(p, v, _sqf=squarefree_decomposition):
        return [(fac, m + 1) for fac, m in _sqf(p, v)]

    monkeypatch.setattr(hermite, "squarefree_decomposition", bumped)
    with pytest.raises(InternalVerificationError, match="^squarefree product mismatch$"):
        hermite_reduce_proper_value(tower_li, 1 / t1**2, 1)


def test_a_factor_product_that_leaves_t_in_the_quotient_is_rejected(
    tower_li, monkeypatch
):
    """The quotient of the denominator by the product of the factors must
    be free of t_level; a decomposition that drops t1 + 1 leaves it."""
    t1 = tower_li.gens[1]

    def dropped(p, v, _sqf=squarefree_decomposition):
        return [(fac, m) for fac, m in _sqf(p, v) if m > 1]

    monkeypatch.setattr(hermite, "squarefree_decomposition", dropped)
    with pytest.raises(InternalVerificationError, match="^squarefree product mismatch$"):
        hermite_reduce_proper_value(tower_li, 1 / (t1**2 * (t1 + 1)), 1)


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
    gcds.clear()
    r = a % b
    assert gcds == {"cofactors": 1, "coprime": 1}
    c = a - r
    gcds.clear()
    q = c.exact_quo(b)
    assert gcds == {"cofactors": 1}
    assert (q * b + r).to_frac() == a.to_frac()
    # a nonzero remainder answers None before any gcd
    gcds.clear()
    assert a.exact_quo(b) is None and not gcds


def test_inverse_is_reduced_before_the_products(monkeypatch, gcds):
    """The derivative of (5*t3 - x^2*t3^2)/(-2*t3^2 + 2*t2*t3 + 5*t2^2) on
    the nested tower has a repeated factor in t3 whose Bezout inverse the
    extended gcd's sums leave at 310/223 terms over a reduced pair of
    46/43.  Every product by the inverse takes it in lowest terms, and the
    output is the earlier loop's.  On Yun's integer factors the reduction
    makes 10 gcds, 6 of them constant.  The product by the inverse is
    reduced once, with its remainder mod V, and one gcd against V's 3
    terms proves the one piece B/V canonical, so it is handed out as an
    element that ``sum_pairs`` does not cancel; it made 10 and handed the
    piece out uncancelled when the product was reduced before its
    remainder, 11 when it cancelled the piece itself, and 18 over monic
    factors, with the unit divided out of A."""
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

    def mulmod(self, other, mod, _mulmod=UniPoly.mulmod):
        operands.append((self, other))
        return _mulmod(self, other, mod)

    monkeypatch.setattr(hermite, "unipoly_xgcd", xgcd)
    monkeypatch.setattr(UniPoly, "__mul__", mul)
    monkeypatch.setattr(UniPoly, "mulmod", mulmod)
    gcds.clear()
    reduction = _hermite_core(T, proper, 3)
    monkeypatch.undo()
    assert gcds["cofactors"] == 10 and gcds["coprime"] == 6
    assert [type(p) for p in reduction[0]] == [T.F.dtype]
    g, h = summed(T.F, reduction)
    assert len(inverses) == 1
    inv = inverses[0]
    used = [
        p
        for pair in operands
        for p in pair
        if isinstance(p, UniPoly) and p.num * inv.den == inv.num * p.den
    ]
    assert used
    for p in used:
        common = p.num.gcd(p.den)
        assert common.is_ground, f"a common factor of {len(common)} terms"
    assert (g, h) == _quadratic_hermite_core(T, proper, 3)


# -- the univariate derivative over L*D*R ---------------------------------------


def _random_poly(T, rng, level):
    """A small random ring polynomial in x, t_1, ..., t_level."""
    gens = T.gens[: level + 1]
    out = T.F.zero
    for _ in range(rng.randint(1, 3)):
        term = T.F.one * rng.randint(-4, 4)
        for g in rng.sample(gens, rng.randint(0, min(2, len(gens)))):
            term *= g ** rng.randint(1, 2)
        out += term
    return out.numer


@given(seed=seeds)
def test_univariate_derivative_is_diff_pairs_fraction(seed):
    """At every level of the paper towers and of a random S-primitive
    tower, the derivative of num/(a^2*b), with a and b free of t_level,
    equals the quotient rule's L*D^2 pair as a fraction.  Its
    denominator L*D*R divides L*D^2, and when a is not a constant the
    quotient D/R is not one either."""
    rng = random.Random(seed)
    towers = [li_tower(), nested_tower(), u_tower(), coupled_tower()]
    for T in towers + [random_s_primitive_tower(rng, 3)]:
        for level in range(T.n + 1):
            num = _random_poly(T, rng, level)
            a = _random_poly(T, rng, level - 1) if level else T.F.ring.one
            b = _random_poly(T, rng, level - 1) if level else T.F.ring(rng.randint(1, 5))
            if not (a and b):
                continue
            p = UniPoly(T.F, level, num, a**2 * b)
            got = tower_derivative_unipoly(T, p, level)
            dn, dd = quotient_rule_pair(T, p.num, p.den, level)
            assert got.to_frac() == T.F.new(dn, dd)
            assert got.den.free_of(range(level, T.n + 1))
            quotient = dd.exact_quo(got.den)
            assert quotient is not None
            assert a.is_ground or not quotient.is_ground
