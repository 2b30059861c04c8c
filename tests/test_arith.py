import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st
from sympy import QQ, Poly as SympyPoly, Rational, Symbol, nextprime
from sympy.polys.fields import field as sympy_field

from towerdecomp import add_decomp_in_field, apply_homomorphism, arith, embed_well_generated
from towerdecomp.arith import (
    UniPoly,
    free_of,
    is_ground,
    make_field,
    rational_roots,
    solve_linear_system,
    split_proper_poly,
    squarefree_decomposition,
    substitute,
    unipoly_gcd,
    unipoly_resultant,
    unipoly_xgcd,
)
from towerdecomp.polys import Poly, PolyRing

from conftest import (
    coupled_tower,
    li_tower,
    nested_tower,
    random_element,
    random_fraction,
    random_s_primitive_tower,
    seeds,
    sympy_dict,
    u_tower,
)


@pytest.fixture
def F2():
    F, gens = make_field(["x", "t1", "t2"])
    return F, gens


def uni(f, v=1):
    """The UniPoly in variable v of a field element whose denominator is
    free of v."""
    return UniPoly(f.field, v, f.numer, f.denom)


def test_ground_and_fraction_conversion(F2):
    F, _ = F2
    v = F.ground(Fraction(3, 2))
    assert (v.numer, v.denom) == (F.ring(3), F.ring(2))
    assert is_ground(v)
    assert not is_ground(F.gens[0])


def test_free_of(F2):
    F, (x, t1, t2) = F2
    assert free_of(1 / x, [1, 2])
    assert free_of(t1 / x, [2])
    assert not free_of(t1 / x, [1])
    assert not free_of(x / (t2 + 1), [2])


def test_unipoly_divmod_and_gcd(F2):
    F, (x, t1, t2) = F2
    # (t1 - x)(t1 + 1) with remainder check against t1 - x
    a = uni(t1**2 + (1 - x) * t1 - x)
    b = uni(t1 - x)
    assert (a % b).is_zero()
    assert a.exact_quo(b).to_frac() == t1 + 1
    assert uni(t1 + 2).exact_quo(b) is None
    g = unipoly_gcd(a, b)
    assert g.to_frac() == b.monic().to_frac()


def test_unipoly_xgcd_bezout(F2):
    F, (x, t1, t2) = F2
    a = uni(t1**2 - x)
    b = uni(t1 + 1)
    g, s = unipoly_xgcd(a, b)
    assert ((s * a - g) % b).is_zero()
    assert g.degree == 0 and g.to_frac() == 1


def test_squarefree_decomposition(F2):
    F, (x, t1, t2) = F2
    # a content free of t1 and a repeated factor whose leading coefficient
    # in t1 is not a unit
    p = (2 * x + 2) * (x * t1 + 1) ** 3 * (t1 - 1)
    sqf = squarefree_decomposition(p.numer, 1)
    assert sqf == [((t1 - 1).numer, 1), ((x * t1 + 1).numer, 3)]
    recomposed = F.ring.one
    for fac, m in sqf:
        recomposed *= fac**m
    assert p.numer.exquo(recomposed) == (2 * x + 2).numer


def test_split_proper_poly(F2):
    F, (x, t1, t2) = F2
    f = t1 + x + 1 / (t1 - x)
    proper, poly = split_proper_poly(f, 1)
    assert proper == 1 / (t1 - x)
    assert poly.to_frac() == t1 + x
    # purely proper input
    proper2, poly2 = split_proper_poly(1 / t1, 1)
    assert proper2 == 1 / t1 and poly2.is_zero()


def test_poly_gcd_is_monic(F2):
    F, (x, t1, t2) = F2
    g = unipoly_gcd(uni(2 * t1**2 - 2 * x**2), uni(4 * t1 - 4 * x)).to_frac()
    assert g == t1 - x


def test_unipoly_gcd_drops_factors_free_of_the_main_variable(F2):
    F, (x, t1, t2) = F2
    a = uni((x + 1) * (t1 - x) * (t1 + 2))
    b = uni((x + 1) * (t1 - x) ** 2)
    assert unipoly_gcd(a, b).to_frac() == t1 - x
    assert unipoly_gcd(b, a).to_frac() == t1 - x
    # denominators free of t1 are units of the coefficient field
    c = uni((t1 - x) * (t1 + 1) / (x**2 + 3))
    assert unipoly_gcd(c, uni((t2 - 1) * (t1 - x) / x)).to_frac() == t1 - x
    assert unipoly_gcd(a, uni(x + 1)).to_frac() == 1


def test_unipoly_gcd_of_zero_operands(F2):
    F, (x, t1, t2) = F2
    zero = UniPoly(F, 1, F.ring.zero)
    b = uni(2 * x * t1**2 - 6 * t1 + x)
    assert unipoly_gcd(zero, b).to_frac() == b.monic().to_frac()
    assert unipoly_gcd(b, zero).to_frac() == b.monic().to_frac()
    assert unipoly_gcd(zero, zero).is_zero()


def test_resultant_of_linear_pair(F2):
    F, (x, t1, t2) = F2
    # res(t1 - a, t1 - b) = a - b, the second polynomial at t1 = a
    a = (t1 - x).numer
    b = (t1 + x).numer
    assert unipoly_resultant(a, b, 1) == (2 * x).numer
    # common root gives zero
    assert not unipoly_resultant(a, a * b, 1)


def test_solve_linear_system_exact():
    rows = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    sol = solve_linear_system(rows, [Fraction(5), Fraction(6)])
    assert sol == [Fraction(-4), Fraction(9, 2)]
    assert solve_linear_system([[Fraction(1)], [Fraction(1)]], [Fraction(1), Fraction(2)]) is None
    # underdetermined: free variables default to zero
    sol2 = solve_linear_system([[Fraction(0), Fraction(1)]], [Fraction(7)])
    assert sol2 == [Fraction(0), Fraction(7)]


def test_substitute(F2):
    F, (x, t1, t2) = F2
    G, (y, u1, u2, z) = make_field(["x", "u1", "u2", "z"])
    val = substitute((t1 + x) / t2, G, [y, u1 + z, u2])
    assert val == (u1 + z + y) / u2


# -- Henrici sums of UniPolys ---------------------------------------------------


@st.composite
def unipoly_pairs(draw):
    """(F, a, b): unreduced UniPolys in t1 over Q(x, t2) whose denominators
    share a drawn factor, an integer content, both, nothing (coprime but
    for chance), or are equal; or one denominator is a ground integer; or
    b = c - a as a cross-multiplied pair, so that a + b cancels to c."""
    F, _ = make_field(["x", "t1", "t2"])
    ring = F.ring

    def poly(max_terms, free_of_t1=False):
        exps = st.integers(0, 2)
        monoms = st.tuples(exps, st.just(0) if free_of_t1 else exps, exps)
        terms = draw(
            st.lists(
                st.tuples(monoms, st.integers(-6, 6).filter(bool)),
                min_size=1,
                max_size=max_terms,
                unique_by=lambda term: term[0],
            )
        )
        return ring.from_dict(dict(terms))

    shared = draw(
        st.sampled_from(["factor", "content", "both", "coprime", "equal", "ground", "cancelling"])
    )
    common = poly(2, True) if shared in ("factor", "both", "cancelling") else ring.one
    if shared in ("content", "both", "cancelling"):
        common = common.mul_ground(draw(st.sampled_from([2, 3, 6, -4])))
    a = UniPoly(F, 1, poly(3), poly(2, True) * common)
    if shared == "equal":
        return F, a, UniPoly(F, 1, poly(3), a.den)
    if shared == "ground":
        return F, a, UniPoly(F, 1, poly(3), ring(draw(st.sampled_from([1, 3, -2]))))
    if shared == "cancelling":
        c = UniPoly(F, 1, poly(2), poly(1, True)) if draw(st.booleans()) else UniPoly(F, 1, ring.zero)
        return F, a, UniPoly(F, 1, c.num * a.den - a.num * c.den, c.den * a.den)
    return F, a, UniPoly(F, 1, poly(3), poly(2, True) * common)


@given(unipoly_pairs())
def test_unipoly_sum_is_the_cross_multiplied_pair(pair):
    """a + b and a - b, added over b.den*(d/gcd(b.den, d)) with the
    numerator left uncancelled, collapse to the cross-multiplied pair's
    field element."""
    F, a, b = pair
    for total, other in ((a + b, b), (a - b, -b)):
        assert total.den.free_of([1])
        assert (a.den * other.den).exact_quo(total.den) is not None
        ref = F.new(a.num * other.den + other.num * a.den, a.den * other.den)
        assert total.to_frac() == ref


def test_unipoly_sum_runs_one_gcd_of_the_denominators(F2, gcds):
    """Different denominators cost one ``cofactors``, of the two
    denominators, and the sum is over their lcm; equal ones cost none."""
    F, (x, t1, t2) = F2
    a, b = uni(t1 / (x * (x + 1))), uni(1 / (x * t2))
    gcds.clear()
    total = a + b
    assert gcds == {"cofactors": 1}
    assert total.den == (x**2 * t2 + x * t2).numer
    assert total.num == (t1 * t2 + x + 1).numer
    b = uni((t1 + 1) / (x * (x + 1)))
    gcds.clear()
    total = a - b
    assert gcds == {}
    assert (total.num, total.den) == (-F.ring.one, a.den)


# -- property tests: substitute against term-by-term evaluation ---------------


def termwise_substitute(f, target_field, values):
    """Reference: every term evaluated as an auto-cancelled field element."""

    def eval_poly(p):
        out = target_field.zero
        for mono, c in p.terms():
            term = target_field.ground(c)
            for i, e in enumerate(mono):
                if e:
                    term *= values[i] ** e
            out += term
        return out

    den = eval_poly(f.denom)
    if not den:
        raise ZeroDivisionError("substitution maps denominator to zero")
    return eval_poly(f.numer) / den


def assert_same_substitution(f, target_field, values):
    try:
        expected = termwise_substitute(f, target_field, values)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            substitute(f, target_field, values)
        return
    got = substitute(f, target_field, values)
    assert (got.numer, got.denom) == (expected.numer, expected.denom)


SOURCE, _ = make_field(["x", "t1", "t2"])
TARGET, _ = make_field(["x", "u1", "u2", "z"])


@given(seed=seeds)
def test_substitute_matches_termwise_on_rational_values(seed):
    rng = random.Random(seed)
    f = random_fraction(SOURCE, rng, max_terms=4, max_exp=3)
    values = [random_fraction(TARGET, rng) for _ in SOURCE.gens]
    assert_same_substitution(f, TARGET, values)


@given(seed=seeds)
def test_substitute_matches_termwise_on_shifted_generators(seed):
    rng = random.Random(seed)
    x, u1, u2, z = TARGET.gens
    values = [x, u1 + random_fraction(TARGET, rng), u2 - z / (x + 1)]
    f = random_fraction(SOURCE, rng, max_terms=4, max_exp=3)
    assert_same_substitution(f, TARGET, values)


@pytest.fixture(scope="module")
def nested_embedding():
    return embed_well_generated(nested_tower())


@given(seed=seeds)
def test_substitute_matches_termwise_on_embeddings(nested_embedding, seed):
    E = nested_embedding
    Ft = E.target.F
    values = [Ft.gens[0]] + [img.value for img in E.images]
    f = random_element(E.source, random.Random(seed))
    assert_same_substitution(f, Ft, values)
    assert apply_homomorphism(E, E.source.element(f)).value == substitute(f, Ft, values)


@given(seed=seeds)
def test_substitute_raises_when_the_denominator_vanishes(seed):
    rng = random.Random(seed)
    x, t1, t2 = SOURCE.gens
    v = random_fraction(TARGET, rng)
    if not v:
        v = TARGET.one
    num = random_fraction(SOURCE, rng) or SOURCE.one
    for den, values in [
        (t1 - t2, [TARGET.gens[0], v, v]),
        (t1 * t2 - 1, [TARGET.gens[0], v, 1 / v]),
        (x * t1**2 - t2, [v, 1 / v, 1 / v]),
    ]:
        with pytest.raises(ZeroDivisionError):
            substitute(num / den, TARGET, values)
        with pytest.raises(ZeroDivisionError):
            termwise_substitute(num / den, TARGET, values)


def test_substitute_cancels_once(monkeypatch):
    rng = random.Random(5)
    cases = [
        (random_fraction(SOURCE, rng), [random_fraction(TARGET, rng) for _ in range(3)])
        for _ in range(10)
    ]
    cases.append((SOURCE.zero, list(TARGET.gens[:3])))
    calls = []
    cancel = Poly.cancel

    def counting(self, g):
        calls.append(1)
        return cancel(self, g)

    monkeypatch.setattr(Poly, "cancel", counting)
    for f, values in cases:
        calls.clear()
        try:
            substitute(f, TARGET, values)
        except ZeroDivisionError:
            continue
        assert len(calls) == 1


# -- the canonical form over Z is the one over Q --------------------------------


def _coeffs(p):
    """{monomial: (numerator, denominator)} of a polynomial's coefficients."""
    if isinstance(p, Poly):
        p = sympy_dict(p)
    return {m: (int(c.numerator), int(c.denominator)) for m, c in p.items()}


def _qq_form(value, G):
    """Numerator and denominator of the same fraction, cancelled by sympy's
    own field G over QQ."""
    ring = G.ring
    ref = G.new(
        ring.from_dict({m: QQ(c) for m, c in sympy_dict(value.numer).items()}),
        ring.from_dict({m: QQ(c) for m, c in sympy_dict(value.denom).items()}),
    )
    return _coeffs(ref.numer), _coeffs(ref.denom)


def _parallel_fraction(F, G, rng):
    """One random element with rational constants, built by the same
    operations in F and in G."""

    def poly():
        a, b = F.zero, G.zero
        for _ in range(rng.randint(1, 3)):
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            ta, tb = F.ground(c), G.one * QQ(c.numerator, c.denominator)
            for i in rng.sample(range(len(F.gens)), rng.randint(0, 2)):
                e = rng.randint(1, 2)
                ta *= F.gens[i] ** e
                tb *= G.gens[i] ** e
            a, b = a + ta, b + tb
        return a, b

    (na, nb), (da, db) = poly(), poly()
    if not da:
        da, db = F.one, G.one
    return na / da, nb / db


@given(seed=seeds)
def test_canonical_form_matches_the_rational_field(seed):
    """Every element keeps the numerator and denominator, coefficient for
    coefficient, that sympy's field over QQ keeps: coprime integer
    polynomials with a positive leading coefficient below.  Rendered
    answers, and so the benchmark's digests, read exactly these."""
    rng = random.Random(seed)
    towers = [li_tower(), nested_tower(), u_tower(), coupled_tower()]
    towers.append(random_s_primitive_tower(rng, rng.randint(2, 3)))
    for T in towers:
        G = sympy_field(T.names, QQ)[0]
        a, b = _parallel_fraction(T.F, G, rng)
        assert (_coeffs(a.numer), _coeffs(a.denom)) == (_coeffs(b.numer), _coeffs(b.denom))
        for value in (a, T.diff(a)):
            assert (_coeffs(value.numer), _coeffs(value.denom)) == _qq_form(value, G)
    T = rng.choice(towers)
    G = sympy_field(T.names, QQ)[0]
    dec = add_decomp_in_field(T.element(random_element(T, rng)))
    for value in (dec.g.value, dec.r.value):
        assert (_coeffs(value.numer), _coeffs(value.denom)) == _qq_form(value, G)


def test_ground_builds_canonical_constants_without_a_cancel(F2, monkeypatch):
    F, _ = F2
    calls = []
    cancel = Poly.cancel

    def counting(self, g):
        calls.append(1)
        return cancel(self, g)

    monkeypatch.setattr(Poly, "cancel", counting)
    cases = [Fraction(-6, 4), Fraction(5, 10), Fraction(0), 7, -3, Fraction(12, 3)]
    values = [F.ground(c) for c in cases]
    assert not calls
    monkeypatch.undo()
    for c, v in zip(cases, values):
        c = Fraction(c)
        assert (v.numer, v.denom) == (F.ring(c.numerator), F.ring(c.denominator))
        assert v == F.from_expr(Rational(c.numerator, c.denominator))


GROUND_OPS = {
    "f+c": lambda f, c: f + c,
    "c+f": lambda f, c: c + f,
    "f-c": lambda f, c: f - c,
    "c-f": lambda f, c: c - f,
    "f*c": lambda f, c: f * c,
    "c*f": lambda f, c: c * f,
    "f/c": lambda f, c: f / c,
    "c/f": lambda f, c: c / f,
}


@given(seed=seeds)
def test_ground_operands_act_as_their_field_elements(seed):
    """An int or a Fraction operand gives, in either order, the numerator
    and denominator that its ``ground`` element gives; a str, or an element
    of another field, raises TypeError."""
    rng = random.Random(seed)
    other = make_field(["x", "s"])[0].gens[1]
    for T in (li_tower(), nested_tower(), u_tower(), coupled_tower()):
        F = T.F
        f = rng.choice([F.zero, random_element(T, rng)])
        c = rng.choice(
            [0, Fraction(0), rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6))]
        )
        for name, op in GROUND_OPS.items():
            if (name == "f/c" and not c) or (name == "c/f" and not f):
                with pytest.raises(ZeroDivisionError):
                    op(f, c)
                continue
            got, want = op(f, c), op(f, F.ground(c))
            assert type(got) is type(want) is F.dtype
            assert (got.numer, got.denom) == (want.numer, want.denom), name
            for bad in ("1", other):
                with pytest.raises(TypeError):
                    op(f, bad)


# -- rational roots against sympy's ground_roots --------------------------------


def _times(a, b):
    """Product of dense polynomials, z^0 first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def root_polys(draw):
    """Coefficients, z^0 first, of c * z^k * prod (q*z - p)^m * prod
    (z^2 + b*z + d) with irreducible quadratics, rational c, and integers
    of up to 30 digits."""
    big = draw(st.sampled_from([9, 10**6, 10**30]))
    ints = st.integers(-big, big)
    poly = [0] * draw(st.integers(0, 2)) + [1]
    for _ in range(draw(st.integers(0, 3))):
        p, q = draw(ints), draw(st.integers(1, big))
        for _ in range(draw(st.integers(1, 2))):
            poly = _times(poly, [-p, q])
    for _ in range(draw(st.integers(0, 1))):
        b, d = draw(ints), draw(ints)
        disc = b * b - 4 * d
        if disc < 0 or math.isqrt(disc) ** 2 != disc:
            poly = _times(poly, [d, b, 1])
    c = Fraction(draw(ints.filter(bool)), draw(st.integers(1, big)))
    return [c * a for a in poly]


def _sympy_roots(coeffs):
    ground = SympyPoly(coeffs[::-1], Symbol("z"), domain=QQ).ground_roots()
    return {Fraction(int(r.p), int(r.q)): m for r, m in ground.items()}


@given(root_polys())
def test_rational_roots_match_sympys_ground_roots(coeffs):
    assert rational_roots(coeffs) == _sympy_roots(coeffs)


def test_rational_roots_examples():
    assert rational_roots([Fraction(-1, 4), 0, 1]) == {Fraction(1, 2): 1, Fraction(-1, 2): 1}
    assert rational_roots([-2, 0, 1]) == {}
    assert rational_roots([0, 0, 0, 5]) == {0: 3}
    assert rational_roots([7]) == {}
    # (z + 1)^2 * (3z - 2) * z
    coeffs = _times(_times(_times([1, 1], [1, 1]), [-2, 3]), [0, 1])
    assert rational_roots(coeffs) == {-1: 2, Fraction(2, 3): 1, 0: 1}


# -- the Hensel prime of the root finder ---------------------------------------


def _gf_squarefree(a, b, p):
    """Whether gcd(a, b) is a constant over GF(p), for a monic a (z^0
    first), by the Euclidean algorithm modulo p."""
    a = [c % p for c in a]
    b = [c % p for c in b]
    while b and not b[-1]:
        b.pop()
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            k = len(a) - len(b)
            for i, x in enumerate(b):
                a[k + i] = (a[k + i] - c * x) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


@st.composite
def squarefree_polys(draw):
    """Coefficients, z^0 first, of a squarefree integer polynomial with a
    positive leading coefficient: distinct integer roots in [-30, 30] times
    a cofactor with coefficients in [-50, 50], or the monic G(z^p) + p*H(z)
    for a prime p, which p divides the degree and the derivative of."""
    coeffs = st.integers(-50, 50)
    if draw(st.booleans()):
        poly = draw(st.lists(coeffs, max_size=3)) + [draw(st.integers(1, 50))]
        for r in draw(st.lists(st.integers(-30, 30), max_size=4, unique=True)):
            poly = _times(poly, [-r, 1])
    else:
        p = draw(st.sampled_from([2, 3, 5]))
        G = draw(st.lists(coeffs, min_size=1, max_size=2)) + [1]
        poly = [0] * (p * (len(G) - 1) + 1)
        for k, c in enumerate(G):
            poly[p * k] = c
        for k, c in enumerate(draw(st.lists(coeffs, max_size=len(poly) - 1))):
            poly[k] += p * c
    S = PolyRing(["z"]).from_dict({(k,): c for k, c in enumerate(poly)})
    assume(S.degree() >= 1 and S.gcd(S.diff(0)).degree() == 0)
    return poly


@given(squarefree_polys())
@example([3, 2, 1])  # z^2 + 2z + 3: z' = 2z + 2 vanishes mod 2, so p = 3
@example([9, 3, 3, 1])  # (z + 1)^3 + 8: not squarefree mod 2 or mod 3, so p = 5
def test_hensel_prime_is_the_smallest_keeping_q_squarefree(S):
    """The prime that ``_scaled_integer_roots`` lifts from, read off its
    first evaluation modulo p, is the smallest prime modulo which the monic
    Q(y) = a**(n-1) * S(y/a) stays squarefree, by a gcd over GF(p)."""
    n, a = len(S) - 1, S[-1]
    Q = [c * a ** (n - 1 - k) for k, c in enumerate(S[:-1])] + [1]
    dQ = [k * c for k, c in enumerate(Q)][1:]
    want = 2
    while not _gf_squarefree(Q, dQ, want):
        want = nextprime(want)
    moduli = []
    eval_mod = arith._eval_mod

    def recording(poly, y, m):
        moduli.append(m)
        return eval_mod(poly, y, m)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(arith, "_eval_mod", recording)
        roots = arith._scaled_integer_roots(S)
    assert moduli[0] == want
    assert sorted(roots) == sorted(
        Fraction(r) * a for r in _sympy_roots(S) if (Fraction(r) * a).denominator == 1
    )
