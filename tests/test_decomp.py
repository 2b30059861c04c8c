import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given

from towerdecomp import (
    TowerBuilder,
    TowerNotSPrimitive,
    add_decomp_in_field,
    differentiate,
    integrate_in_field,
)
from towerdecomp import decomp
from towerdecomp.arith import ground, solve_linear_system, to_fraction
from towerdecomp.decomp import _is_remainder_value, solve_constant_combination_values
from towerdecomp.errors import InternalVerificationError
from towerdecomp.matryoshka import order_key_value, project_value

from conftest import (
    coupled_tower,
    li_tower,
    nested_tower,
    random_element,
    random_fraction,
    random_s_primitive_tower,
    seeds,
    u_tower,
)


def test_solver_examples(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    F = T.F
    assert solve_constant_combination_values(F, 1 / t1, [1 / x, 1 / t1, 1 / (x * t1)]) == [
        0,
        1,
        0,
    ]
    assert solve_constant_combination_values(F, 1 / (x + 1), [1 / x, 1 / t1]) is None
    assert solve_constant_combination_values(F, F.zero, [1 / x, 1 / t1]) == [0, 0]
    got = solve_constant_combination_values(F, 3 / x - 2 / t1, [1 / x, 1 / t1])
    assert got == [Fraction(3), Fraction(-2)]


def _product_solver(F, target, basis):
    """Reference solver: clears denominators with their full product, one
    FracElement per element."""
    basis = list(basis)
    if not target:
        return [Fraction(0)] * len(basis)
    if not basis:
        return None
    den = F.ring.one
    for e in [target] + basis:
        den = den * e.denom
    den_frac = F.raw_new(den, F.ring.one)

    def coeffs(e):
        p = e * den_frac
        assert p.denom.is_ground
        scale = to_fraction(p.denom.LC)
        return {mono: to_fraction(c) / scale for mono, c in p.numer.terms()}

    t_dict = coeffs(target)
    b_dicts = [coeffs(b) for b in basis]
    monos = sorted(set(t_dict).union(*b_dicts))
    rows = [[d.get(m, Fraction(0)) for d in b_dicts] for m in monos]
    rhs = [t_dict.get(m, Fraction(0)) for m in monos]
    sol = solve_linear_system(rows, rhs)
    return None if sol is None else [Fraction(c) for c in sol]


@given(seed=seeds)
def test_solver_matches_product_reference(seed):
    rng = random.Random(seed)
    F = li_tower().F
    basis = [random_fraction(F, rng) for _ in range(rng.randint(1, 3))]
    # a dependent element, so that free variables occur as well
    basis.append(rng.randint(-3, 3) * basis[0] + rng.randint(-3, 3) * basis[-1])
    rng.shuffle(basis)
    combo = F.zero
    for b in basis:
        combo += Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * b
    for target in (combo, random_fraction(F, rng), combo + basis[0] / 7):
        got = solve_constant_combination_values(F, target, basis)
        assert got == _product_solver(F, target, basis)
    assert solve_constant_combination_values(F, combo, basis) is not None


def _lcm_solver(F, target, basis):
    """Reference: the earlier solver, which clears the target and the basis
    with the lcm of all their denominators and checks its answer as a sum of
    field elements."""
    basis = list(basis)
    if not target:
        return [Fraction(0)] * len(basis)
    if not basis:
        return None
    den = F.ring.one
    for e in [target] + basis:
        den = den.lcm(e.denom)

    def coeffs(e):
        p = e.numer * den.exquo(e.denom)
        return {mono: to_fraction(c) for mono, c in p.terms()}

    t_dict = coeffs(target)
    b_dicts = [coeffs(b) for b in basis]
    monos = sorted(set(t_dict).union(*b_dicts))
    rows = [[d.get(m, Fraction(0)) for d in b_dicts] for m in monos]
    rhs = [t_dict.get(m, Fraction(0)) for m in monos]
    sol = solve_linear_system(rows, rhs)
    if sol is None:
        return None
    acc = F.zero
    for c, b in zip(sol, basis):
        acc += ground(F, c) * b
    if acc != target:
        raise InternalVerificationError("combination solver self-check failed")
    return [Fraction(c) for c in sol]


@given(seed=seeds)
def test_solver_on_tower_basis_matches_lcm_reference(seed):
    rng = random.Random(seed)
    towers = [li_tower, nested_tower, u_tower, coupled_tower]
    if rng.random() < 0.4:
        T = random_s_primitive_tower(rng, rng.randint(1, 3))
    else:
        T = rng.choice(towers)()
    F = T.F
    m = rng.randint(1, T.n)
    basis = T.derivs[:m]
    wanted = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in basis]
    combo = F.zero
    for c, b in zip(wanted, basis):
        combo += ground(F, c) * b
    other = random_element(T, rng)
    # in the span, plus a random element (rarely in it), plus a pole the
    # basis does not have, and a random element alone
    targets = [combo, combo + other, combo + 1 / (T.gens[0] + 7), other]
    for target in targets:
        expected = _lcm_solver(F, target, basis)
        assert solve_constant_combination_values(F, target, T.derivative_basis(m)) == expected
        assert solve_constant_combination_values(F, target, basis) == expected
    # an S-primitive tower's derivatives are independent over Q
    assert solve_constant_combination_values(F, combo, T.derivative_basis(m)) == wanted


def test_solver_rejects_a_foreign_denominator_without_a_gcd(tower_li, gcds):
    T = tower_li
    x, t1, t2, t3 = T.gens
    # L_3 = x*t1 clears t1' = 1/x, t2' = 1/t1 and t3' = 1/(x*t1)
    for target in [1 / (x + 1), 1 / t2, 1 / t1**2, (x + t1) / (x**2 * t1)]:
        gcds.clear()
        assert solve_constant_combination_values(T.F, target, T.derivative_basis(3)) is None
        assert not gcds
    # a target in the span costs no gcd either
    target = 2 / x - 1 / (x * t1)
    gcds.clear()
    got = solve_constant_combination_values(T.F, target, T.derivative_basis(3))
    assert got == [2, 0, -1] and not gcds


def test_running_example_decomposition(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    f = 1 / (t1 * t2) + (t2 - 2 * x * t1) / t1**2 + t3
    dec = add_decomp_in_field(T.element(f))
    assert dec.r.value == 1 / (t1 * t2)
    assert dec.g.value == x * t3 + t2**2 / 2 - t2 - (x * t2 + x**2) / t1
    assert T.diff(dec.g.value) + dec.r.value == f


def test_single_log_tower():
    b = TowerBuilder(["t1"])
    T = b.log(b.x).build()
    x, t1 = T.gens
    dec = add_decomp_in_field(T.element(1 / x))
    assert dec.g.value == t1 and not dec.r


def test_finer_remainder_tower(tower_u):
    T = tower_u
    x, u1, u2, u3 = T.gens
    f = (u2 + u3) / (x * u1)
    dec = add_decomp_in_field(T.element(f))
    assert dec.r.value == u2 / (x * u1)
    assert order_key_value(T, dec.r.value) < order_key_value(T, f)


def test_zero_input(tower_li):
    dec = add_decomp_in_field(tower_li.element(0))
    assert not dec.g and not dec.r


def test_requires_validated_tower():
    b = TowerBuilder(["t1", "t2"])
    T = b.log(b.x).prim(2 / b.x).build()
    with pytest.raises(TowerNotSPrimitive):
        add_decomp_in_field(T.element(1 / b.x))


def test_is_remainder_cases(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    assert _is_remainder_value(T, T.F.zero)[0]
    assert _is_remainder_value(T, 1 / (t1 * t2))[0]
    ok, why = _is_remainder_value(T, t3)
    assert not ok and "not simple" in why
    # an element of the span of generator derivatives is not a remainder
    ok, why = _is_remainder_value(T, 1 / x + 1 / t1)
    assert not ok and "span" in why


def test_integrate_in_field(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    f = 1 / (t1 * t2) + (t2 - 2 * x * t1) / t1**2 + t3
    res = integrate_in_field(T.element(f))
    assert not res.integrable
    assert res.certificate.value == 1 / (t1 * t2)
    target = x * t3 + t2**2
    res2 = integrate_in_field(T.element(T.diff(target)))
    assert res2.integrable
    diff = res2.antiderivative.value - target
    assert not T.diff(diff)  # recovered up to a rational constant
    res3 = integrate_in_field(T.element(0))
    assert res3.integrable and not res3.antiderivative


def test_fixed_point_of_remainders(tower_li, tower_u):
    cases = []
    T = tower_li
    x, t1, t2, t3 = T.gens
    cases.append(T.element(1 / (t1 * t2) + (t2 - 2 * x * t1) / t1**2 + t3))
    U = tower_u
    xu, u1, u2, u3 = U.gens
    cases.append(U.element((u2 + u3) / (xu * u1)))
    for f in cases:
        r = add_decomp_in_field(f).r
        again = add_decomp_in_field(r)
        assert again.r == r
        assert not differentiate(again.g)
        assert _is_remainder_value(r.tower, r.value)[0]


def test_derivative_oracle_random(rng):
    """Derivatives always decompose with a zero remainder."""
    for _ in range(40):
        T = random_s_primitive_tower(rng, rng.randint(1, 3))
        g = random_element(T, rng)
        dec = add_decomp_in_field(T.element(T.diff(g)))
        assert not dec.r
        assert not T.diff(dec.g.value - g)


def test_shift_by_derivative_keeps_projection_and_order(tower_li, rng):
    """Remainders of f and f + g' share the top projection and order key."""
    T = tower_li
    x, t1, t2, t3 = T.gens
    f = T.element(1 / (t1 * t2) + (t2 - 2 * x * t1) / t1**2 + t3)
    r1 = add_decomp_in_field(f).r
    for _ in range(5):
        g = random_element(T, rng)
        shifted = T.element(f.value + T.diff(g))
        r2 = add_decomp_in_field(shifted).r
        assert project_value(T, r1.value)[T.n] == project_value(T, r2.value)[T.n]
        assert order_key_value(T, r1.value) == order_key_value(T, r2.value)
        assert _is_remainder_value(T, r2.value)[0]


@given(seed=seeds)
def test_adding_generator_derivatives_never_raises(seed):
    """f + sum(c_j * t_j') decomposes on every paper tower and on a random
    S-primitive tower; on nested, the level-3 part of the pass for the head
    monomial 1 once made the remainder test fail."""
    rng = random.Random(seed)
    towers = [li_tower(), nested_tower(), u_tower(), coupled_tower()]
    towers.append(random_s_primitive_tower(rng, rng.randint(1, 3)))
    for T in towers:
        f = random_element(T, rng)
        for d in T.derivs:
            f += ground(T.F, Fraction(rng.randint(-3, 3), rng.randint(1, 3))) * d
        dec = add_decomp_in_field(T.element(f))
        assert _is_remainder_value(T, dec.r.value)[0]


def test_nested_head_monomial_one_keeps_level_n_out_of_the_span(tower_nested):
    T = tower_nested
    x, t1, t2, t3 = T.gens
    dec = add_decomp_in_field(T.element(1 / t3 + T.diff(t3)))
    assert dec.g.value == t3 and dec.r.value == 1 / t3


def test_one_field_element_per_pass_for_the_update(tower_li, tower_u, monkeypatch):
    """The pass update is built as one polynomial pair; the only F.new that
    add_decomp_in_field makes itself turns it into a field element."""
    x, t1, t2, t3 = tower_li.gens
    xu, u1, u2, u3 = tower_u.gens
    for T, f in [
        (tower_li, 1 / (t1 * t2) + (t2 - 2 * x * t1) / t1**2 + t3),
        (tower_u, (u2 + u3) / (xu * u1) + u3**2 / (xu + 1)),
    ]:
        F = T.F
        counts = {"new": 0, "passes": 0}
        new = F.new

        def counting_new(*args):
            if sys._getframe(1).f_code is decomp.add_decomp_in_field.__code__:
                counts["new"] += 1
            return new(*args)

        def counting_key(T, f, _key=decomp.order_key_value):
            counts["passes"] += 1
            return _key(T, f)

        monkeypatch.setattr(F, "new", counting_new)
        monkeypatch.setattr(decomp, "order_key_value", counting_key)
        dec = add_decomp_in_field(T.element(f))
        monkeypatch.undo()
        assert counts["passes"] > 1 and counts["new"] == counts["passes"]
        assert T.diff(dec.g.value) + dec.r.value == f
