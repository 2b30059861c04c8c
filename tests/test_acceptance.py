"""End-to-end acceptance checks, one test per shipped guarantee.

Every comparison here is exact: rational arithmetic throughout, no
tolerances.  Random cases are seeded through the shared rng fixture.
"""

from fractions import Fraction

from towerdecomp import (
    YES,
    FormalProduct,
    TowerBuilder,
    add_decomp_in_field,
    apply_homomorphism,
    associated_matrix,
    elementary_integrability,
    embed_well_generated,
    is_well_generated,
    significant_data,
)
from towerdecomp.arith import UniPoly
from towerdecomp.decomp import _is_remainder_value
from towerdecomp.hermite import hermite_reduce_proper_value
from towerdecomp.matryoshka import is_simple_value, level_pieces, order_key_value
from towerdecomp.tower import normalize_generators

from conftest import random_element, random_log_tower, random_s_primitive_tower, summed


def _li_tower():
    b = TowerBuilder(["t1", "t2", "t3"])
    return b.log(b.x).prim(1 / b.gens[1]).log(b.gens[1]).build()


def _nested_tower():
    b = TowerBuilder(["t1", "t2", "t3"])
    x, t1, t2 = b.x, b.gens[1], b.gens[2]
    return (
        b.log(x)
        .log(FormalProduct([(x, 1), (t1, 1)]))
        .log(FormalProduct([(x + 1, 1), (t1 + 1, 1), (t2, 1)]))
        .build()
    )


def _u_tower():
    b = TowerBuilder(["u1", "u2", "u3"])
    return b.log(b.x).log(b.x + 1).log(b.gens[1]).build()


def _running_input(T):
    x, t1, t2, t3 = T.gens
    return T.element(1 / (t1 * t2) + (t2 - 2 * x * t1) / t1**2 + t3)


def test_criterion_01_known_decomposition_is_reproduced():
    T = _li_tower()
    x, t1, t2, t3 = T.gens
    dec = add_decomp_in_field(_running_input(T))
    assert dec.r.value == 1 / (t1 * t2)
    expected_g = x * t3 + t2**2 / 2 - t2 - (x * t2 + x**2) / t1
    # g is determined up to an additive rational constant
    assert not T.diff(dec.g.value - expected_g)
    assert T.diff(dec.g.value) + dec.r.value == dec.input.value


def test_criterion_02_elementary_witness_is_found_and_verified():
    T = _li_tower()
    x, t1, t2, t3 = T.gens
    f = _running_input(T)
    verdict = elementary_integrability(f)
    assert verdict.status == YES
    assert [(c, a.value) for c, a in verdict.witness] == [(Fraction(1), t2)]
    total = T.diff(verdict.decomposition.g.value)
    for j, c in enumerate(verdict.span_coeffs):
        total += T.F.one * c.numerator / c.denominator * T.derivs[j]
    for c, arg in verdict.witness:
        total += T.F.one * c.numerator / c.denominator * T.diff(arg.value) / arg.value
    assert total == f.value


def test_criterion_03_remainder_drops_below_the_input():
    T = _u_tower()
    x, u1, u2, u3 = T.gens
    f = T.element((u2 + u3) / (x * u1))
    dec = add_decomp_in_field(f)
    assert dec.r.value == u2 / (x * u1)
    assert order_key_value(T, level_pieces(T, dec.r.value)) < order_key_value(
        T, level_pieces(T, f.value)
    )


def test_criterion_04_significant_data_and_failed_precondition():
    b = TowerBuilder(["t1", "t2", "t3"])
    x, t1 = b.x, b.gens[1]
    T = b.log(x).log(t1).log(FormalProduct([(x + 1, 1), (t1, 1)])).build()
    data = significant_data(T)
    assert data.sv == (0, 1, 1)
    assert [s.value for s in data.sc] == [1 / x, 1 / (x * t1), 1 / (x * t1)]
    ok, why = is_well_generated(T)
    assert not ok and "depends" in why


def test_criterion_05_embedding_into_a_well_generated_tower():
    T = _nested_tower()
    x, t1, t2, t3 = T.gens
    E = embed_well_generated(T)
    assert E.w == 5
    assert E.ell == (1, 3, 5)
    u = E.target.gens
    assert [img.value for img in E.images] == [u[1], u[1] + u[3], u[2] + u[4] + u[5]]

    M = associated_matrix(T)
    source_expected = [
        [1 / x, 1 / x, 1 / (x + 1)],
        [T.F.zero, 1 / (x * t1), 1 / (x * (t1 + 1))],
        [T.F.zero, T.F.zero, (1 + t1) / (x * t1 * t2)],
    ]
    for i in range(3):
        for j in range(1, 4):
            assert M.entry(i, j).value == source_expected[i][j - 1]

    Mt = associated_matrix(E.target)
    xe = u[0]
    target_nonzero = {
        (0, 1): 1 / xe,
        (0, 2): 1 / (xe + 1),
        (1, 3): 1 / (xe * u[1]),
        (1, 4): 1 / (xe * (u[1] + 1)),
        (3, 5): (u[1] + 1) / (xe * u[1] * (u[1] + u[3])),
    }
    for i in range(5):
        for j in range(1, 6):
            want = target_nonzero.get((i, j), E.target.F.zero)
            assert Mt.entry(i, j).value == want

    f1 = T.element(((t1 + 1) ** 2 + t1 * t2) / (x * t1 * (t1 + 1) * t2))
    assert add_decomp_in_field(f1).r == f1
    assert not add_decomp_in_field(apply_homomorphism(E, f1)).r
    f2 = T.element(t3 / x)
    r2 = add_decomp_in_field(f2).r
    assert r2.value == -t1 / (x + 1) + 1 / (x * (t1 + 1)) - (t1 + 1) / (x * t2)
    r2e = add_decomp_in_field(apply_homomorphism(E, f2)).r
    assert r2e.value == -u[1] / (u[0] + 1) - (u[1] + 1) / (u[0] * (u[1] + u[3]))


def test_criterion_06_derivatives_decompose_with_zero_remainder(rng):
    cases = 0
    while cases < 200:
        T = random_s_primitive_tower(rng, rng.randint(1, 3))
        for _ in range(10):
            g = random_element(T, rng, max_terms=2, max_exp=2, coeff_range=3)
            dec = add_decomp_in_field(T.element(T.diff(g)))
            assert not dec.r
            # the recovered primitive matches up to a rational constant
            assert not T.diff(dec.g.value - g)
            cases += 1
    assert cases >= 200


def test_criterion_07_remainders_are_fixed_points(rng):
    remainders = []
    T = _li_tower()
    remainders.append(add_decomp_in_field(_running_input(T)).r)
    U = _u_tower()
    xu, u1, u2, u3 = U.gens
    remainders.append(add_decomp_in_field(U.element((u2 + u3) / (xu * u1))).r)
    N = _nested_tower()
    xn, t1, t2, t3 = N.gens
    E = embed_well_generated(N)
    f1 = N.element(((t1 + 1) ** 2 + t1 * t2) / (xn * t1 * (t1 + 1) * t2))
    remainders.append(add_decomp_in_field(f1).r)
    remainders.append(add_decomp_in_field(N.element(t3 / xn)).r)
    remainders.append(add_decomp_in_field(apply_homomorphism(E, N.element(t3 / xn))).r)
    for _ in range(5):
        S = random_s_primitive_tower(rng, 2)
        g = random_element(S, rng, max_terms=2)
        remainders.append(add_decomp_in_field(S.element(S.diff(g))).r)
    for r in remainders:
        again = add_decomp_in_field(r)
        assert again.r == r
        assert not r.tower.diff(again.g.value)
        assert _is_remainder_value(r.tower, r.value)[0]


def test_criterion_08_tower_validation_and_normalization():
    # the running tower is S-primitive
    assert _li_tower().validate_s_primitive().ok

    # a dependent pair of primitives is rejected with an exact certificate
    b = TowerBuilder(["t1", "t2"])
    T = b.log(b.x).prim(2 / b.x).build()
    result = T.validate_s_primitive()
    assert not result.ok
    assert result.generator == 2
    assert result.certificate == (Fraction(2),)

    # a non-simple generator derivative is repaired by a shift
    b2 = TowerBuilder(["t1", "t2"])
    T2 = b2.log(b2.x).prim(1 / b2.gens[1] ** 2).build()
    assert not T2.validate_s_primitive().ok
    T3, shifts = normalize_generators(T2)
    assert T3.validate_s_primitive().ok
    x3, s1, s2 = T3.gens
    assert [(idx, val) for idx, val in shifts if val] == [(2, -x3 / s1)]
    assert T3.derivs[1] == 1 / s1


def test_criterion_09_hermite_reduction_reconstructs_inputs(rng):
    T = _li_tower()
    x, t1, t2, t3 = T.gens
    vars_by_level = {0: [x], 1: [x, t1], 2: [x, t1, t2], 3: [x, t1, t2, t3]}
    count = 0
    while count < 200:
        level = rng.choice([0, 1, 2, 3])
        v = T.gens[level]
        lower = vars_by_level[level][:-1] + [T.F.one]
        shift = rng.choice(lower) * rng.randint(0, 1) + rng.randint(-2, 2)
        den = (v + shift) ** rng.randint(1, 3)
        if den.denom != T.F.ring.one or den.numer.degree(level) < 1:
            continue
        num = T.F.zero
        for k in range(den.numer.degree(level)):
            num += rng.choice(lower) * rng.randint(-3, 3) * v**k
        f = num / den
        if not f:
            continue
        g, h = summed(T.F, hermite_reduce_proper_value(T, f, level))
        assert T.diff(g) + h == f
        if h:
            ok, why = is_simple_value(T, h)
            assert ok, why
            df, dh = UniPoly(T.F, level, f.denom), UniPoly(T.F, level, h.denom)
            assert (df % dh).is_zero()
        count += 1
    assert count >= 200


def test_criterion_10_embeddings_commute_and_stay_small(rng):
    T = _nested_tower()
    E = embed_well_generated(T)
    for _ in range(100):
        f = random_element(T, rng, max_terms=2, max_exp=1, coeff_range=3)
        lhs = apply_homomorphism(E, T.element(T.diff(f)))
        rhs = E.target.diff(apply_homomorphism(E, T.element(f)).value)
        assert lhs.value == rhs
    from towerdecomp import normalize_tower

    for _ in range(20):
        n = rng.randint(1, 3)
        L = random_log_tower(rng, n)
        normalized, _ = normalize_tower(L)
        En = embed_well_generated(normalized)
        m = normalized.n
        assert m <= En.w <= m * (m + 1) // 2
        assert is_well_generated(En.target)[0]
