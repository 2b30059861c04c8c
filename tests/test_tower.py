import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from towerdecomp import (
    YES,
    FormalProduct,
    TowerBuilder,
    TowerNotSPrimitive,
    ZeroArgument,
    add_decomp_in_field,
    differentiate,
    elementary_integrability,
    embed_well_generated,
    normalize_tower,
)
from towerdecomp.arith import make_field
from towerdecomp.errors import HeadMonomialNotOne, TowerDecompError
from towerdecomp.exprio import parse_tower_file, render_tower_file
from towerdecomp.tower import LOG, PRIM, Tower, normalize_generators

from conftest import (
    assert_images_commute,
    coupled_tower,
    li_tower,
    nested_tower,
    quotient_rule_pair,
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


@pytest.mark.parametrize(
    "factors, line",
    [([(0, 0)], "gen t1 : prim 0"), ([(0, 1), (0, -1)], "gen t1 : log(1)")],
)
def test_a_logarithm_of_one_renders_and_parses_back(factors, line):
    """log of a product with no factor left, (x)^0, renders as its
    derivative 0, and log((x)^1 * (x)^-1) as log(1); each file parses back
    to a tower that validation rejects as the original is."""
    b = TowerBuilder(["t1"])
    T = b.log(FormalProduct([(b.gens[k], e) for k, e in factors])).build()
    text = render_tower_file(T)
    assert text.splitlines() == ["var x", line]
    for tower in (T, parse_tower_file(text)):
        result = tower.validate_s_primitive()
        assert (result.ok, result.reason) == (False, "derivative of t1 is zero")


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
    for value in (T.F.ground(half), T.element(half)):
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


def random_shifted_tower(rng, n):
    """A random tower whose explicit generators have derivatives c/d^e +
    c'/t_k, d one of x, x + 1 or a lower generator; for e = 2 they are not
    simple, so ``normalize_generators`` shifts them."""
    while True:
        b = TowerBuilder([f"t{i}" for i in range(1, n + 1)])
        x = b.x
        try:
            for i in range(n):
                lower = list(b.gens[1 : i + 1])
                if i == 0 or rng.random() < 0.5:
                    b.log(rng.choice([x, x + 1, x + 2] + lower + [g + 1 for g in lower]))
                else:
                    den = rng.choice([x, x + 1] + lower)
                    b.prim(
                        rng.randint(1, 3) / den ** rng.randint(1, 2)
                        + rng.randint(0, 2) / rng.choice(lower)
                    )
            return b.build()
        except TowerDecompError:
            continue


def assert_shift_images_commute(T):
    """The ``--normalize`` images x, u_i + shift_i of x, t_i commute with
    the derivations."""
    T2, shifts = normalize_generators(T)
    assert_images_commute(T, T2, [T2.gens[0]] + [T2.gens[i] + shift for i, shift in shifts])


@given(n=st.integers(1, 4), seed=seeds)
def test_shift_images_commute_on_s_primitive_towers(n, seed):
    assert_shift_images_commute(random_s_primitive_tower(random.Random(seed), n))


@given(n=st.integers(1, 4), seed=seeds)
def test_shift_images_commute_on_towers_with_shifts(n, seed):
    assert_shift_images_commute(random_shifted_tower(random.Random(seed), n))


def _shifted_li():
    """log x, t2' = 1/t1^2 and t3' = 1/t2^2, both shifted."""
    b = TowerBuilder(["t1", "t2", "t3"])
    t1, t2 = b.gens[1], b.gens[2]
    return b.log(b.x).prim(1 / t1**2).prim(1 / t2**2).build()


@pytest.mark.parametrize(
    "make, built",
    [(li_tower, 0), (nested_tower, 0), (u_tower, 0), (coupled_tower, 0), (_shifted_li, 2)],
)
def test_normalize_generators_builds_a_tower_per_nonzero_shift(make, built, monkeypatch):
    T = make()
    towers = []
    init = Tower.__init__

    def counting(self, *args):
        towers.append(self)
        init(self, *args)

    monkeypatch.setattr(Tower, "__init__", counting)
    T2, shifts = normalize_generators(T)
    assert len(towers) == sum(1 for _, shift in shifts if shift) == built
    assert (T2 is T) == (built == 0)


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


@pytest.mark.parametrize("count", [0, 1, 3])
def test_tower_takes_one_spec_per_generator_of_its_field(count):
    """A short spec list is not padded and a long one is not read past the
    field's generators: either is the one count error."""
    F, (x, t1, t2) = make_field(["x", "t1", "t2"])
    specs = [(LOG, FormalProduct.single(x)), (PRIM, 1 / t1), (PRIM, 1 / x)][:count]
    with pytest.raises(
        TowerDecompError, match=f"^expected 2 generator declarations, got {count}$"
    ):
        Tower(F, specs)


def test_a_tower_built_on_a_field_takes_its_names():
    """Q(y, s) with s = log(y): the names are the field's, and the residue
    ring and the exponent vectors of the entry points are read from them."""
    F, (y, s) = make_field(["y", "s"])
    T = Tower(F, [(LOG, FormalProduct.single(y))])
    assert T.names == list(F.names) == ["y", "s"]
    verdict = elementary_integrability(T.element(1 / (y * s)))
    assert verdict.status == YES and verdict.witness == ((1, T.element(s)),)
    dec = add_decomp_in_field(T.element(1 / (y * s) + s))
    assert (dec.g.value, dec.r.value) == (y * s - y, 1 / (y * s))


@pytest.mark.parametrize(
    "declare, reason",
    [
        (lambda b: b.prim(1), "derivative of t is not simple"),
        (lambda b: b.prim(Fraction(1, 2)), "derivative of t is not simple"),
        (lambda b: b.log(2), "derivative of t is zero"),
        (lambda b: b.log(FormalProduct([(2, 1), (3, Fraction(1, 2))])), "derivative of t is zero"),
    ],
    ids=["prim-int", "prim-fraction", "log-int", "log-int-bases"],
)
def test_builder_takes_rational_constants(declare, reason):
    """An int or a Fraction enters the field as ``Tower.element`` takes it,
    and validation then rejects the tower as usual."""
    T = declare(TowerBuilder(["t"])).build()
    assert all(d.field is T.F for d in T.derivs)
    result = T.validate_s_primitive()
    assert not result.ok and result.reason.startswith(reason)


def test_builder_takes_an_int_base_next_to_a_field_element():
    b = TowerBuilder(["t"])
    T = b.log(FormalProduct([(2, 1), (b.x, 1)])).build()
    assert T.derivs == [1 / T.gens[0]]
    assert T.validate_s_primitive().ok


@pytest.mark.parametrize(
    "declare",
    [
        lambda b: b.prim(0.5),
        lambda b: b.prim("x"),
        lambda b: b.log(FormalProduct([(make_field(["y"])[1][0], 1)])),
    ],
    ids=["prim-float", "prim-str", "log-base-of-another-field"],
)
def test_builder_rejects_a_value_of_another_field(declare):
    with pytest.raises(TypeError, match=r"^expected an element of FracField\(\['x', 't'\]\), got "):
        declare(TowerBuilder(["t"])).build()


def test_tower_reads_every_spec_through_its_field():
    """The public constructor is the one gate.  A value of another field
    read by position once gave a wrong answer: (PRIM, 1/y) with y from
    Q(y, s) validated as t' = 1/x, and 1/x then decomposed as g = t, r = 0.
    Another kind was read as PRIM.  An int and a bare log argument are taken
    as the builder takes them."""
    F, (x, t) = make_field(["x", "t"])
    y = make_field(["y", "s"])[1][0]
    for spec in [(PRIM, 1 / y), (LOG, FormalProduct.single(y)), (LOG, y)]:
        with pytest.raises(TypeError, match=r"^expected an element of FracField\(\['x', 't'\]\), got "):
            Tower(F, [spec])
    with pytest.raises(TowerDecompError, match="^unknown generator kind 'exp' for t$"):
        Tower(F, [("exp", 1 / x)])
    with pytest.raises(TowerNotSPrimitive, match="not proper"):
        add_decomp_in_field(Tower(F, [(PRIM, 1)]).element(1 / x))
    with pytest.raises(TowerNotSPrimitive, match="is zero"):
        add_decomp_in_field(Tower(F, [(LOG, FormalProduct.single(2))]).element(1 / x))
    T = Tower(F, [(LOG, x + 1)])
    assert T.generators[0].argument.factors == ((x + 1, 1),)
    dec = add_decomp_in_field(T.element(1 / (x + 1)))
    assert dec.g.value == t and not dec.r


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


def test_element_rejects_an_element_of_another_tower(tower_li, tower_nested):
    """li and nested share one field, as their variable names agree, but
    their t3 differ: 1/t3 of nested taken into li would be decomposed with
    nested's derivation.  The error names both towers by their generator
    derivatives; a raw value of the shared field is li's to read."""
    li, nested = tower_li, tower_nested
    assert li.F is nested.F
    t3 = nested.gens[3]
    f = nested.element(1 / t3)
    expected = (
        "expected an element of Tower(x; t1' = (1)/(x), t2' = (1)/(t1), "
        "t3' = (1)/(x*t1)), got one of Tower(x; t1' = (1)/(x), t2' = (t1 + 1)/(x*t1), "
    )
    with pytest.raises(TypeError) as info:
        li.element(f)
    assert str(info.value).startswith(expected)
    assert li.element(f.value).tower is li
    assert nested.element(f) is f


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
    prefix = Tower(E.F, specs[:k] + [(PRIM, E.F.zero)] * (E.n - k))
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


def test_diff_cancels_once(tower_nested, rng, gcds):
    """No ``cancel``: a non-ground denominator takes two ``cofactors``, D's
    with L*D' and the numerator's with L*h, a ground one only the second,
    and a zero derivative none."""
    T = tower_nested
    x, t3 = T.gens[0], T.gens[3]
    elements = [random_element(T, rng) for _ in range(10)] + [T.F.zero, T.F.one]
    elements += [1 / (t3 + x) ** 3, (x + 1) / (2 * t3**2)]
    for f in elements:
        gcds.clear()
        T.diff(f)
        gcds.pop("coprime", None)  # how many are constant varies with f
        if not f.denom.is_ground:
            assert gcds == {"cofactors": 2}
        else:
            assert gcds == ({} if f.numer.is_ground else {"cofactors": 1})


@given(which=st.integers(0, len(PAPER_TOWERS)), k=st.integers(1, 3), seed=seeds)
def test_diff_equals_the_cancelled_quotient_rule(which, k, seed):
    """Tower.diff through the radical equals the cancelled quotient rule
    over L*D^2, on the paper towers and on random S-primitive towers, for
    denominators with repeated factors and factors shared with L: x^2*t1 on
    li, (t3 + x)^3 on nested, and a random factor to the power k."""
    rng = random.Random(seed)
    if which < len(PAPER_TOWERS):
        T = PAPER_TOWERS[which]
        x, t1, t2, t3 = T.gens
        named = [x**2 * t1, (t3 + x) ** 3, x**2 * (x + 1) * t1**2, (t3 + x) ** 2 * t1][which]
    else:
        T = random_s_primitive_tower(rng, 3)
        x, t1 = T.gens[:2]
        named = x**2 * t1
    f = random_element(T, rng)
    h = random_element(T, rng, max_terms=2) + rng.choice(T.gens)
    for g in (f, f / named, f / h**k if h else f / named**k):
        assert_identical(T.diff(g), T.F.new(*quotient_rule_pair(T, g.numer, g.denom)))


# -- Tower.diff_pair_radical: the same derivative over L*D*R ------------------


@given(which=st.sampled_from([0, 1]), k=st.integers(2, 4), seed=seeds)
def test_diff_pair_radical_equals_diff_pair(which, k, seed):
    """On li and nested, an element divided by a random factor to the power
    k: the pair over L*D*R equals the quotient rule's over L*D^2 as a
    fraction, and its denominator is no larger in any variable's degree."""
    T = PAPER_TOWERS[which]
    rng = random.Random(seed)
    f = random_element(T, rng)
    h = random_element(T, rng, max_terms=2) + rng.choice(T.gens)
    if h:
        f /= h**k
    P, Q = quotient_rule_pair(T, f.numer, f.denom)
    P2, Q2 = T.diff_pair_radical(f.numer, f.denom)
    assert P * Q2 == P2 * Q
    assert all(a <= b for a, b in zip(Q2.degrees(), Q.degrees()))


@pytest.mark.parametrize("which", [0, 1])
def test_diff_pair_radical_keeps_a_ground_denominator(which):
    T = PAPER_TOWERS[which]
    x, t1, t2, t3 = T.gens
    for f in [(x * t3 + t1**2) / 6, x - 3 * t2, T.F.one * 5, T.F.zero]:
        dN, L = T.diff_pair(f.numer)
        assert T.diff_pair_radical(f.numer, f.denom) == (dN, L * f.denom)


def test_diff_pair_radical_shrinks_a_repeated_factor(tower_nested):
    """(t3 + x)^k: L*D*R has t3-degree k + 1 where L*D^2 has 2k."""
    T = tower_nested
    x, t3 = T.gens[0], T.gens[3]
    for k in (2, 3, 4):
        f = 1 / (t3 + x) ** k
        _, Q = quotient_rule_pair(T, f.numer, f.denom)
        _, Q2 = T.diff_pair_radical(f.numer, f.denom)
        assert (Q.degree(3), Q2.degree(3)) == (2 * k, k + 1)
