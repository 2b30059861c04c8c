import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from towerdecomp import (
    FormalProduct,
    TowerBuilder,
    TowerNotSPrimitive,
    ZeroArgument,
    differentiate,
    embed_well_generated,
    normalize_tower,
)
from towerdecomp.arith import ground, make_field
from towerdecomp.errors import HeadMonomialNotOne, TowerDecompError
from towerdecomp.polys import Poly
from towerdecomp.tower import PRIM, _prefix_tower, normalize_generators

from conftest import (
    coupled_tower,
    li_tower,
    nested_tower,
    random_element,
    random_log_tower,
    random_s_primitive_tower,
    seeds,
    u_tower,
)


def test_diff_on_li_tower(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    assert T.diff(t2**2 / 2) == t2 / t1
    assert T.diff(x * t3) == t3 + 1 / t1
    assert T.diff(T.F.one * 7) == 0


def test_log_derivative(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    assert T.diff_log_combination([(x * t1, 1)]) == (t1 + 1) / (x * t1)
    with pytest.raises(ZeroArgument):
        FormalProduct.single(T.F.zero)


def test_formal_product_combine_and_collapse(tower_li):
    T = tower_li
    x, t1 = T.gens[0], T.gens[1]
    p = FormalProduct([(x, 2), (t1, 1)])
    q = p.combine(FormalProduct.single(x), -2)
    assert q.factors == ((t1, Fraction(1)),)
    assert q.collapse() == t1
    half = FormalProduct([(x, Fraction(1, 2))])
    assert half.collapse() is None
    assert repr(p) == "(x)^2 * (t1)^1"


def test_equal_log_generators_hash_equal():
    T, U = li_tower(), nested_tower()
    assert T.generators[0] == U.generators[0]
    assert hash(T.generators[0]) == hash(U.generators[0])
    assert T.generators[2] != U.generators[2]
    x, t1 = T.gens[0], T.gens[1]
    p, q = FormalProduct([(x, 1), (t1, 2)]), FormalProduct([(x, Fraction(1)), (t1, 2)])
    assert p == q and hash(p) == hash(q)
    assert len({p, q, FormalProduct.single(x)}) == 2


def test_elements_equal_their_rational_constants(tower_li):
    T = tower_li
    half = Fraction(1, 2)
    for value in (ground(T.F, half), T.element(half)):
        assert value == half and half == value
        assert value != Fraction(1, 3) and Fraction(-1, 2) != value
        assert value != 1 and value != T.gens[0] / 2
    assert T.element(3) == 3 == T.element(Fraction(3))
    assert T.element(T.gens[0]) != half


def test_validation_accepts_li_tower(tower_li):
    result = tower_li.validate_s_primitive()
    assert result.ok


def test_validation_rejects_dependent_derivatives():
    b = TowerBuilder(["t1", "t2"])
    T = b.log(b.x).prim(2 / b.x).build()
    result = T.validate_s_primitive()
    assert not result.ok
    assert result.generator == 2
    assert result.certificate == (Fraction(2),)
    with pytest.raises(TowerNotSPrimitive):
        T.ensure_s_primitive()


def test_validation_rejects_non_simple_derivative():
    b = TowerBuilder(["t1", "t2"])
    t1 = b.gens[1]
    T = b.log(b.x).prim(1 / t1**2).build()
    result = T.validate_s_primitive()
    assert not result.ok
    assert "not simple" in result.reason


def test_normalize_generators_shift():
    b = TowerBuilder(["t1", "t2"])
    t1 = b.gens[1]
    T = b.log(b.x).prim(1 / t1**2).build()
    T2, shifts = normalize_generators(T)
    x2, u1, u2 = T2.gens
    assert shifts[0][1] == 0
    assert shifts[1] == (2, -x2 / u1)
    assert T2.derivs[1] == 1 / u1
    assert T2.validate_s_primitive().ok


def _kept(T):
    T2, shifts = normalize_generators(T)
    assert all(not shift for _, shift in shifts)
    assert [(g.kind, g.argument) for g in T2.generators] == [
        (g.kind, g.argument) for g in T.generators
    ]
    assert T2.derivs == T.derivs


@pytest.mark.parametrize("make", [li_tower, nested_tower, u_tower, coupled_tower])
def test_normalize_generators_keeps_the_paper_towers(make):
    """A tower whose derivatives are already simple comes back as it was:
    its logarithms stay logarithms, with the same arguments."""
    _kept(make())


@given(seeds)
def test_normalize_generators_keeps_simple_log_towers(seed):
    rng = random.Random(seed)
    _kept(random_log_tower(rng, rng.randint(1, 3)))


def test_normalize_generators_rewrites_log_arguments_through_lower_shifts():
    b = TowerBuilder(["t1", "t2", "t3"])
    x, t1, t2 = b.x, b.gens[1], b.gens[2]
    T = b.log(x).prim(1 / t1**2).log(t2).build()
    T2, shifts = normalize_generators(T)
    x2, u1, u2, u3 = T2.gens
    assert shifts[1] == (2, -x2 / u1) and not shifts[2][1]
    assert [g.kind for g in T2.generators] == ["log", PRIM, "log"]
    assert T2.generators[2].argument == FormalProduct.single(u2 - x2 / u1)
    assert T2.validate_s_primitive().ok


def test_normalize_generators_rejects_monomial_head():
    b = TowerBuilder(["t1", "t2"])
    t1 = b.gens[1]
    T = b.log(b.x).prim(t1 + 1 / t1**2).build()
    with pytest.raises(HeadMonomialNotOne):
        normalize_generators(T)


def test_generator_levels_enforced():
    b = TowerBuilder(["t1", "t2"])
    with pytest.raises(TowerDecompError):
        b.log(b.gens[2]).log(b.x).build()


def test_builder_rejects_duplicate_names_and_a_wrong_declaration_count():
    with pytest.raises(TowerDecompError, match="^duplicate variable names in tower$"):
        TowerBuilder(["t1", "x"])
    b = TowerBuilder(["t1", "t2"])
    with pytest.raises(TowerDecompError, match="^expected 2 generator declarations, got 1$"):
        b.log(b.x).build()


FIVE = make_field(["x", "t1", "t2", "t3", "t4"])[1]


@pytest.mark.parametrize(
    "value",
    [make_field(["x", "t1"])[1][0], FIVE[0], FIVE[4], "x"],
    ids=["x-of-Q(x,t1)", "x-of-five-variables", "t4-of-five-variables", "str"],
)
def test_element_rejects_a_value_of_another_field(value, tower_li):
    """The call names the field; without the check, the three elements
    would fail deep in an entry point, in Poly.degree, the reconstruction
    check or Hermite reduction."""
    with pytest.raises(TypeError, match=r"^expected an element of FracField\(\['x', 't1', 't2', 't3'\]\), got "):
        tower_li.element(value)


def test_element_keeps_a_tower_element(tower_li):
    f = tower_li.element(tower_li.gens[1])
    assert tower_li.element(f) is f


def test_differentiate_wrapper(tower_li):
    T = tower_li
    f = T.element(T.gens[1] ** 2)
    assert differentiate(f).value == 2 * T.gens[1] / T.gens[0]


# -- property tests: Tower.diff against the chain rule ------------------------


def partial(f, i):
    """The partial derivative of f in variable index i, cancelled."""
    N, D = f.numer, f.denom
    return f.field.new(N.diff(i) * D - N * D.diff(i), D**2)


def chain_rule_diff(T, f):
    """Reference derivation: d/dx plus one cancelled product per generator."""
    out = partial(f, 0)
    for i, d in enumerate(T.derivs, start=1):
        p = partial(f, i)
        if p:
            out += p * d
    return out


def assert_identical(a, b):
    assert (a.numer, a.denom) == (b.numer, b.denom)


PAPER_TOWERS = [li_tower(), nested_tower(), u_tower(), coupled_tower()]


@pytest.fixture(scope="module")
def embedding_targets():
    """Targets of the nested tower and of two normalized random log towers,
    with their generator derivatives as PRIM specs."""
    rng = random.Random(7)
    sources = [nested_tower()] + [
        normalize_tower(random_log_tower(rng, n))[0] for n in (2, 3)
    ]
    targets = [embed_well_generated(T).target for T in sources]
    return [(E, [(PRIM, d) for d in E.derivs]) for E in targets]


@given(which=st.integers(0, len(PAPER_TOWERS) - 1), seed=seeds)
def test_diff_matches_chain_rule_on_paper_towers(which, seed):
    T = PAPER_TOWERS[which]
    f = random_element(T, random.Random(seed), max_terms=4, max_exp=3)
    assert_identical(T.diff(f), chain_rule_diff(T, f))


@given(n=st.integers(1, 4), seed=seeds)
def test_diff_matches_chain_rule_on_random_towers(n, seed):
    rng = random.Random(seed)
    T = random_s_primitive_tower(rng, n)
    f = random_element(T, rng)
    assert_identical(T.diff(f), chain_rule_diff(T, f))


@given(data=st.data(), seed=seeds)
def test_diff_matches_chain_rule_on_targets_and_prefixes(embedding_targets, data, seed):
    E, specs = data.draw(st.sampled_from(embedding_targets))
    k = data.draw(st.integers(0, E.n))
    prefix = _prefix_tower(E.names, specs[:k], E.F)
    f = random_element(E, random.Random(seed))
    assert_identical(prefix.diff(f), chain_rule_diff(prefix, f))
    if k == E.n:
        assert_identical(prefix.diff(f), E.diff(f))


@given(which=st.integers(0, len(PAPER_TOWERS) - 1), seed=seeds)
def test_diff_obeys_leibniz_rule(which, seed):
    T = PAPER_TOWERS[which]
    rng = random.Random(seed)
    f, g = random_element(T, rng), random_element(T, rng)
    assert T.diff(f * g) == T.diff(f) * g + f * T.diff(g)
    if g:
        assert T.diff(f / g) == (T.diff(f) * g - f * T.diff(g)) / g**2


def test_diff_cancels_once(monkeypatch, tower_nested, rng):
    T = tower_nested
    elements = [random_element(T, rng) for _ in range(10)] + [T.F.zero, T.F.one]
    calls = []
    cancel = Poly.cancel

    def counting(self, g):
        calls.append(1)
        return cancel(self, g)

    monkeypatch.setattr(Poly, "cancel", counting)
    for f in elements:
        calls.clear()
        T.diff(f)
        assert len(calls) == 1


# -- Tower.diff_pair_radical: the same derivative over L*D*R ------------------


@given(which=st.sampled_from([0, 1]), k=st.integers(2, 4), seed=seeds)
def test_diff_pair_radical_equals_diff_pair(which, k, seed):
    """On li and nested, an element divided by a random factor to the power
    k: the pair over L*D*R equals diff_pair's over L*D^2 as a fraction, and
    its denominator is no larger in any variable's degree."""
    T = PAPER_TOWERS[which]
    rng = random.Random(seed)
    f = random_element(T, rng)
    h = random_element(T, rng, max_terms=2) + rng.choice(T.gens)
    if h:
        f /= h**k
    P, Q = T.diff_pair(f.numer, f.denom)
    P2, Q2 = T.diff_pair_radical(f.numer, f.denom)
    assert P * Q2 == P2 * Q
    assert all(a <= b for a, b in zip(Q2.degrees(), Q.degrees()))


@pytest.mark.parametrize("which", [0, 1])
def test_diff_pair_radical_keeps_a_ground_denominator(which):
    T = PAPER_TOWERS[which]
    x, t1, t2, t3 = T.gens
    for f in [(x * t3 + t1**2) / 6, x - 3 * t2, T.F.one * 5, T.F.zero]:
        assert T.diff_pair_radical(f.numer, f.denom) == T.diff_pair(f.numer, f.denom)


def test_diff_pair_radical_shrinks_a_repeated_factor(tower_nested):
    """(t3 + x)^k: L*D*R has t3-degree k + 1 where L*D^2 has 2k."""
    T = tower_nested
    x, t3 = T.gens[0], T.gens[3]
    for k in (2, 3, 4):
        f = 1 / (t3 + x) ** k
        _, Q = T.diff_pair(f.numer, f.denom)
        _, Q2 = T.diff_pair_radical(f.numer, f.denom)
        assert (Q.degree(3), Q2.degree(3)) == (2 * k, k + 1)
