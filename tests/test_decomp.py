import math
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
from towerdecomp.arith import ClearedBasis, ground, solve_linear_system
from towerdecomp.decomp import _is_remainder_value, solve_constant_combination_values
from towerdecomp.errors import InternalVerificationError
from towerdecomp.exprio import parse_expression
from towerdecomp.matryoshka import (
    head_data_value,
    indicator,
    not_simple_reason,
    order_key_value,
    project_value,
)

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
        scale = Fraction(p.denom.LC)
        return {mono: Fraction(c) / scale for mono, c in p.numer.terms()}

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
        return {mono: Fraction(c) for mono, c in p.terms()}

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


def _gauss_jordan(rows, rhs):
    """Reference: full Gauss-Jordan elimination over every row, column by
    column; free variables are zero."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    aug = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    prow = 0
    pivots = []
    for col in range(ncols):
        pivot = next((r for r in range(prow, m) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[prow], aug[pivot] = aug[pivot], aug[prow]
        aug[prow] = [a / aug[prow][col] for a in aug[prow]]
        for r in range(m):
            if r != prow and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[prow])]
        pivots.append(col)
        prow += 1
    if any(aug[r][ncols] for r in range(prow, m)):
        return None
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][ncols]
    return sol


def _full_elimination_solver(F, target, basis):
    """Reference: the span solver's clearing, with every monomial's row
    eliminated by ``_gauss_jordan`` and the solution checked as a polynomial
    identity."""
    den, polys = basis
    if not target:
        return [Fraction(0)] * len(polys)
    content, prim = target.denom.primitive()
    scale = den.exact_quo(prim)
    if scale is None:
        return None
    lhs = target.numer * scale
    monos = sorted(set(lhs.keys()).union(*(p.keys() for p in polys)))
    rows = [[p.get(m, 0) for p in polys] for m in monos]
    sol = _gauss_jordan(rows, [Fraction(lhs.get(m, 0), content) for m in monos])
    if sol is None:
        return None
    common = math.lcm(*(c.denominator for c in sol))
    acc = lhs.ring.zero
    for c, p in zip(sol, polys):
        acc += p.mul_ground(content * c.numerator * (common // c.denominator))
    assert acc == lhs.mul_ground(common)
    return sol


def _random_matrix(rng, nrows, ncols):
    rows = [
        [rng.choice([0, 0, 0, rng.randint(-3, 3)]) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if ncols > 1 and rng.random() < 0.5:
        # a dependent column, so that free variables occur
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = a * row[0] + b * row[-1]
    return rows


@given(seed=seeds)
def test_linear_system_matches_full_elimination(seed):
    """Many more rows than columns, dependent columns, and right-hand sides
    that are consistent, consistent but for one late row, or random."""
    rng = random.Random(seed)
    ncols = rng.randint(1, 4)
    rows = _random_matrix(rng, rng.randint(ncols, 40), ncols)
    c = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ncols)]
    consistent = [sum(a * x for a, x in zip(row, c)) for row in rows]
    late = list(consistent)
    late[-1] += 1
    noise = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in rows]
    for rhs in (consistent, late, noise):
        want = _gauss_jordan(rows, rhs)
        assert solve_linear_system(rows, rhs) == want
        assert solve_linear_system([[Fraction(a) for a in r] for r in rows], rhs) == want
    assert solve_linear_system(rows, consistent) is not None
    assert solve_linear_system(rows, late) is None


def _pivot_first_basis(F, rng, k):
    """k polynomials over a common denominator: the first k monomials in the
    solver's row order, 1, x, ..., x^(k-1), are a unit matrix, and each
    polynomial has up to 12 random terms of x-degree >= k after them."""
    R = F.ring
    x, t1, t2, t3 = R.gens
    polys = []
    for j in range(k):
        p = x**j
        for _ in range(rng.randint(4, 12)):
            e = (k + rng.randint(0, 2),) + tuple(rng.randint(0, 3) for _ in range(3))
            p += R({e: rng.randint(-4, 4) or 1})
        polys.append(p)
    den = rng.choice([R.one, (x + R.one).mul_ground(6), x * t1])
    return ClearedBasis(den, tuple(polys))


@given(seed=seeds)
def test_span_solver_matches_full_elimination(seed):
    """Cleared bases with many more monomials than elements, at times a
    dependent element, against every row eliminated."""
    rng = random.Random(seed)
    F = li_tower().F
    k = rng.randint(1, 3)
    den, polys = _pivot_first_basis(F, rng, k)
    if rng.random() < 0.5:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        polys += (polys[0].mul_ground(a) + polys[-1].mul_ground(b),)
        polys = tuple(rng.sample(polys, len(polys)))
    basis = ClearedBasis(den, polys)
    c = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in polys]
    combo = F.zero
    for cj, p in zip(c, polys):
        combo += ground(F, cj) * F.new(p, den)
    other = F.new(polys[0] + F.ring.gens[3] ** 3, den)
    for target in (combo, combo + other, combo / 5, other):
        want = _full_elimination_solver(F, target, basis)
        assert solve_constant_combination_values(F, target, basis) == want
    assert solve_constant_combination_values(F, combo, basis) is not None


@given(seed=seeds)
def test_span_solver_rejects_a_mismatch_past_the_pivot_rows(seed):
    """A target that agrees with a combination on the first k rows, which
    already have full rank, and differs on the last monomial is not in the
    span: None, not a failed self-check."""
    rng = random.Random(seed)
    F = li_tower().F
    k = rng.randint(1, 3)
    basis = _pivot_first_basis(F, rng, k)
    den, polys = basis
    num = F.ring.zero
    for p in polys:
        num += p.mul_ground(rng.randint(-4, 4))
    last = max(set().union(*(p.keys() for p in polys)))
    num += F.ring.one.mul_monom(last)
    target = F.new(num, den)
    assert _full_elimination_solver(F, target, basis) is None
    assert solve_constant_combination_values(F, target, basis) is None


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


def test_solver_divides_by_the_primitive_part_of_the_denominator(tower_li):
    """t1'/2 = 1/(2*x): L_1 = x is not a multiple of 2*x over Z, but of its
    primitive part x, and the content 2 moves into the right-hand side."""
    T = tower_li
    got = solve_constant_combination_values(T.F, T.derivs[0] / 2, T.derivative_basis(1))
    assert got == [Fraction(1, 2)]


# Denominators with integer content (Gauss's lemma): each answer holds with
# the field over Q, and must hold with integer numerators and denominators.
# Entries: f, g (None when only r is pinned), r.
GAUSS_CASES = [
    ("1/(2*x)", "t1/2", "0"),
    ("3/(4*x*t1) + 1/(6*t1)", "(2*t2 + 9*t3)/12", "0"),
    ("1/(2*t1)/(3*x) + t3/5", None, "0"),
    ("1/(t1*t2)/7 + 2/(3*t1^2)", None, "1/(7*t1*t2)"),
]


@pytest.mark.parametrize("f, g, r", GAUSS_CASES)
def test_content_bearing_denominators(f, g, r, tower_li):
    T = tower_li
    f = parse_expression(f, T).value
    dec = add_decomp_in_field(T.element(f))
    assert dec.r.value == parse_expression(r, T).value
    if g is not None:
        assert dec.g.value == parse_expression(g, T).value
    assert T.diff(dec.g.value) + dec.r.value == f


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


def test_shift_by_derivative_keeps_projection_and_order(rng):
    """Remainders of f and f + g' share the top projection and order key,
    and they differ by a rational combination of t_1', ..., t_n'."""
    li = li_tower()
    x, t1, t2, t3 = li.gens
    # the README's element, and one whose remainders differ by -t2'
    cases = [
        (li, 1 / (t1 * t2) + (t2 - 2 * x * t1) / t1**2 + t3, []),
        (li, 1 / t1 + 1 / (x * (t1 + 1)), [x * t3 - t2]),
    ]
    for T in [li, nested_tower(), u_tower(), coupled_tower()]:
        cases += [(T, random_element(T, rng), []) for _ in range(3)]
    for T, f, gs in cases:
        r1 = add_decomp_in_field(T.element(f)).r
        for g in gs or [random_element(T, rng) for _ in range(4)]:
            r2 = add_decomp_in_field(T.element(f + T.diff(g))).r
            assert project_value(T, r1.value)[T.n] == project_value(T, r2.value)[T.n]
            assert order_key_value(T, r1.value) == order_key_value(T, r2.value)
            assert _is_remainder_value(T, r2.value)[0]
            difference = r2.value - r1.value
            basis = T.derivative_basis(T.n)
            assert solve_constant_combination_values(T.F, difference, basis) is not None


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


@pytest.mark.parametrize("which", ["g", "r", "g-over-a-power"])
def test_tampered_output_fails_the_reconstruction_check(which, monkeypatch):
    """On li, g + t1 keeps the denominator of g' and fails the product;
    r + 1/(x+7) puts a factor into the denominator of f - r that the
    denominator Q of g' lacks, so the exact division of Q by it fails.  On nested 1/(t3+x)^3, g's denominator D is
    2*(t3+x)^2*Q^3, so g' is taken over L*D*R with R smaller than D, and
    g + 1/(x+7)^2 brings a repeated factor of its own; it fails the product."""
    if which == "g-over-a-power":
        T = nested_tower()
        x, t3 = T.gens[0], T.gens[3]
        f, extra = 1 / (t3 + x) ** 3, 1 / (x + 7) ** 2
    else:
        T = li_tower()
        x, t1, t2, t3 = T.gens
        f = 1 / (t1 * t2) + (t2 - 2 * x * t1) / t1**2 + t3
        extra = {"g": t1, "r": 1 / (x + 7)}[which]
    sums = []

    def tampered(F, pairs, _sum=decomp.sum_pairs):
        # g's terms are summed first, then r's
        sums.append(_sum(F, pairs))
        return sums[-1] + (extra if "gr"[len(sums) - 1] == which[0] else 0)

    monkeypatch.setattr(decomp, "sum_pairs", tampered)
    with pytest.raises(InternalVerificationError, match="does not reconstruct"):
        add_decomp_in_field(T.element(f))
    assert len(sums) == 2
    if which == "r":
        g, r = sums[0], sums[1] + extra
        _, Q = T.diff_pair_radical(g.numer, g.denom)
        assert Q.exact_quo((f - r).denom) is None
    if which == "g-over-a-power":
        D = sums[0].denom
        assert D.cofactors(D.diff(3))[0].degree(3) == 1


def test_a_wrong_solution_fails_the_solver_self_check(tower_li, monkeypatch):
    """The combination is checked as a polynomial identity over Z: 2 * (1/x)
    is not 1/x."""
    x = tower_li.gens[0]
    monkeypatch.setattr(decomp, "solve_linear_system", lambda rows, rhs: [Fraction(2)])
    with pytest.raises(InternalVerificationError, match="^combination solver self-check failed$"):
        solve_constant_combination_values(tower_li.F, 1 / x, [1 / x])


def test_an_order_key_that_does_not_decrease_is_an_internal_error(tower_li, monkeypatch):
    """Each pass must lower the order key; the README input takes more than
    one pass, and here every pass reads the first pass's key."""
    x, t1, t2, t3 = tower_li.gens
    keys = []

    def frozen(T, value, _key=decomp.order_key_value):
        keys.append(_key(T, value))
        return keys[0]

    monkeypatch.setattr(decomp, "order_key_value", frozen)
    with pytest.raises(InternalVerificationError, match="^order key failed to decrease$"):
        add_decomp_in_field(tower_li.element(1 / (t1 * t2) + (t2 - 2 * x * t1) / t1**2 + t3))
    assert len(keys) == 2


def test_readme_decomposition_cancel_count(tower_li, gcds):
    """The README decomposition cancels 21 times once the tower's caches are
    warm: 15 in its passes, four to sum g and r, and two in the checks, for
    f - r and for the head coefficient the remainder test reads; g' is never
    cancelled, and no rational constant is cancelled on its way into the
    field.  A check that canonicalizes more fails here."""
    T = tower_li
    x, t1, t2, t3 = T.gens
    f = T.element(1 / (t1 * t2) + (t2 - 2 * x * t1) / t1**2 + t3)
    add_decomp_in_field(f)
    gcds.clear()
    add_decomp_in_field(f)
    assert gcds["cancel"] == 21


def _reference_is_remainder(T, r):
    """The remainder test as project -> subtract -> head data: pi_n(r) from
    all projections, then a second level recursion on r - pi_n(r)."""
    if not r:
        return True, ""
    n = T.n
    pi_n = project_value(T, r)[n]
    why = not_simple_reason(T, pi_n, n)
    if why:
        return False, f"top projection not simple: projection {n} {why}"
    rest = r - pi_n
    if not rest:
        return True, ""
    head = head_data_value(T, rest)
    for i, c in sorted(head.hc_i.items()):
        why = not_simple_reason(T, c, i)
        if why:
            return False, f"head coefficient not simple: projection {i} {why}"
    m = indicator(head.hm, n)
    coeffs = solve_constant_combination_values(T.F, head.hc, T.derivative_basis(m))
    if coeffs is not None and any(coeffs):
        return False, "head coefficient lies in the span of generator derivatives"
    return True, ""


@given(seed=seeds)
def test_remainder_test_matches_project_subtract_reference(seed):
    """One level recursion gives the same verdict and reason as projecting,
    subtracting pi_n and recomputing head data, on random elements, on the
    same without their top projection, and on generator-derivative
    combinations with a simple level-n part added."""
    rng = random.Random(seed)
    for T in [li_tower(), nested_tower(), u_tower(), coupled_tower()]:
        F, n = T.F, T.n
        f = random_element(T, rng)
        span = F.zero
        for d in T.derivs:
            span += ground(F, Fraction(rng.randint(-2, 2), rng.randint(1, 2))) * d
        top = F.gens[n]
        for r in [
            f,
            f - project_value(T, f)[n],
            span,
            span + ground(F, rng.randint(1, 3)) / (top + rng.randint(0, 2)),
            add_decomp_in_field(T.element(f)).r.value,
        ]:
            assert _is_remainder_value(T, r) == _reference_is_remainder(T, r)
