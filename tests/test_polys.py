"""The tower field's exact division, lcm, gcd and powers against sympy's
``PolyElement``, its negative powers, and Henrici addition against the
cancelled cross product."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from sympy import ZZ
from sympy.polys.rings import ring

from towerdecomp import gcdheu
from towerdecomp.errors import ExponentOverflow
from towerdecomp.polys import ExactQuotientFailed, FracField, PolyRing

from conftest import sympy_dict


def names(n):
    return ["x"] + [f"t{i}" for i in range(1, n)]


def rings(n):
    """Our ring and sympy's over the same variables."""
    return PolyRing(names(n)), ring(names(n), ZZ)[0]


def draw_poly(draw, S, max_terms, monoms=None, min_terms=1):
    """A sympy polynomial of S with min_terms to max_terms terms of distinct
    monomials drawn from monoms (by default, exponents 0 to 3)."""
    if monoms is None:
        monoms = st.tuples(*[st.integers(0, 3)] * S.ngens)
    terms = draw(
        st.lists(
            st.tuples(monoms, st.integers(-9, 9).filter(bool)),
            min_size=min_terms,
            max_size=max_terms,
            unique_by=lambda term: term[0],
        )
    )
    return S(dict(terms))


@st.composite
def division_pairs(draw):
    """(n, f, g) in sympy's ring: g a general, constant or one-term divisor;
    f an exact multiple a*g, a multiple plus stray terms, or any
    polynomial."""
    n = draw(st.integers(1, 4))
    _, S = rings(n)
    divisor = draw(st.sampled_from(["general", "constant", "one-term"]))
    if divisor == "constant":
        g = S(draw(st.sampled_from([1, -1, 2, -3, 6])))
    elif divisor == "one-term":
        g = draw_poly(draw, S, 1)
    else:
        g = draw_poly(draw, S, 4)
    dividend = draw(st.sampled_from(["exact", "stray", "any"]))
    if dividend == "any":
        f = draw_poly(draw, S, 6)
    else:
        f = draw_poly(draw, S, 4) * g
        if dividend == "stray":
            f += draw_poly(draw, S, 2)
    return n, f, g


@given(division_pairs())
def test_div_and_exquo_match_sympys_div(pair):
    """``exact_quo`` is sympy's quotient when sympy's remainder is 0 and
    None otherwise; ``exquo`` raises in its place."""
    n, f, g = pair
    R, _ = rings(n)
    tf, tg = R(dict(f)), R(dict(g))
    q = tf.exact_quo(tg)
    sq, sr = f.div(g)
    if sr:
        assert q is None
        with pytest.raises(ExactQuotientFailed):
            tf.exquo(tg)
    else:
        assert sympy_dict(q) == dict(sq)
        assert type(q) is type(tf)
        assert sympy_dict(tf.exquo(tg)) == dict(sq)


def test_exact_division_by_zero_raises():
    R, _ = rings(2)
    with pytest.raises(ZeroDivisionError):
        R.gens[0].exact_quo(R.zero)


R2 = PolyRing(["x", "t1"])
F2 = FracField(["x", "t1"])
x2, t12 = R2.gens

# the checks that stop a silent wrong result: without the first,
# x**-3 would be x**7, since bin(-3)[3:] is '11'
ARGUMENT_ERRORS = {
    "negative-power": (lambda: x2**-3, ValueError, "non-negative integer, got -3"),
    "non-int-power": (lambda: x2**1.5, TypeError, "must be an integer, got 1.5"),
    "zero-to-the-zero": (lambda: R2.zero**0, ValueError, r"^0\*\*0$"),
    "pack-negative": (lambda: R2.pack((1, -1)), ValueError, r"negative exponent in \(1, -1\)"),
    "pack-length": (lambda: R2.pack((1,)), ValueError, r"^2 exponents expected, got \(1,\)$"),
    "non-int-coefficient": (
        lambda: R2.term_new((1, 0), Fraction(1, 2)),
        TypeError,
        r"integer coefficient expected, got Fraction\(1, 2\)",
    ),
    "zero-denominator": (lambda: F2.raw_new(x2, 0), ZeroDivisionError, "^zero denominator$"),
    "zero-to-a-negative-power": (lambda: F2.zero**-1, ZeroDivisionError, "^$"),
    "set-ring-by-name": (
        lambda: t12.set_ring(PolyRing(["x", "u1"])),
        ValueError,
        r"^t1 is not a variable of PolyRing\(\['x', 'u1'\]\)$",
    ),
    "set-ring-below-a-used-variable": (
        lambda: t12.set_ring(PolyRing(["x"])),
        ValueError,
        r"^t1 involves a variable beyond PolyRing\(\['x'\]\)$",
    ),
    "from-expr": (
        lambda: F2.from_expr("sin(x)"),
        ValueError,
        r"^expected a rational function in x, t1, got sin\(x\)$",
    ),
    "poly-plus-str": (lambda: x2 + "a", TypeError, "unsupported operand"),
    "poly-minus-str": (lambda: x2 - "a", TypeError, "unsupported operand"),
    "poly-times-str": (lambda: x2 * "a", TypeError, "can't multiply"),
}


@pytest.mark.parametrize("case", sorted(ARGUMENT_ERRORS))
def test_argument_checks_raise(case):
    call, error, message = ARGUMENT_ERRORS[case]
    with pytest.raises(error, match=message):
        call()


def test_comparisons_with_other_types():
    """A polynomial of several terms is no int; a fraction compared with a
    str is NotImplemented both ways, so it is unequal.  A polynomial equals
    only a polynomial, an int or a Fraction: the zero polynomial is not
    None, an empty str or an empty list, and no polynomial is a plain dict,
    although a polynomial is a dict subclass."""
    assert (x2 + R2.one == 1) is False and x2 + R2.one != 1
    assert R2.zero == 0 and R2.zero == Fraction(0) and R2(3) == 3
    assert R2.ground_new(2) != Fraction(1, 2) and R2.zero != 1
    assert (x2 == 0) is False and x2 != 0 and t12 != Fraction(0)
    for other in (None, "", [], ()):
        assert (R2.zero == other) is False and R2.zero != other
        assert (other == R2.zero) is False and other != R2.zero
    assert R2.zero.__eq__(None) is NotImplemented
    for poly, other in ((R2.zero, {}), (R2.one, {0: 1}), (x2, dict(x2))):
        assert (poly == other) is False and poly != other
        assert (other == poly) is False and other != poly
    assert (F2.one == "1") is False and F2.one != "1"
    assert repr(F2) == "FracField(['x', 't1'])"
    assert repr(R2) == "PolyRing(['x', 't1'])"


@given(division_pairs())
def test_trial_division_is_exact_division(pair):
    """``_exquo`` gives up exactly when sympy's remainder is nonzero."""
    n, f, g = pair
    R, _ = rings(n)
    sq, sr = f.div(g)
    q = gcdheu._exquo(R(dict(f)), R(dict(g)), n)
    if sr:
        assert q is None
    else:
        assert sympy_dict(R.dtype(q)) == dict(sq)


def test_div_matches_sympys_on_longer_divisors(rng):
    """Divisors of up to six terms in three variables, which create several
    monomials a step, against exact products with and without stray
    terms."""
    R, S = rings(3)

    def poly(k):
        return S({tuple(rng.randint(0, 3) for _ in range(3)): rng.randint(-5, 5) for _ in range(k)})

    exact = 0
    for _ in range(100):
        g = poly(rng.randint(2, 6)) or S.one
        f = poly(rng.randint(1, 6)) * g + poly(rng.randint(0, 3))
        q = R(dict(f)).exact_quo(R(dict(g)))
        sq, sr = f.div(g)
        assert (None if q is None else sympy_dict(q)) == (None if sr else dict(sq))
        q = gcdheu._exquo(R(dict(f)), R(dict(g)), 3)
        assert (None if q is None else sympy_dict(R.dtype(q))) == (None if sr else dict(sq))
        exact += not sr
    assert 0 < exact < 100


def test_division_past_a_cancelled_and_recreated_monomial():
    """Dividing (x^2 + x + 2)*g by g = -x^2 + 2x - 1, the first step
    cancels x^2 and the second creates it again, so the sorted list of
    monomials holds x^2 twice and the second copy is popped after its term
    has left.  3x^3 + 3x takes the same two steps on x and is no
    multiple of g."""
    R = PolyRing(["x"])
    x = R.gens[0]
    q, g = x**2 + x + R(2), -(x**2) + x * 2 - R.one
    assert (q * g).exact_quo(g) == q
    assert gcdheu._exquo(dict(q * g), dict(g), 1) == dict(q)
    assert (x**3 * 3 + x * 3).exact_quo(g) is None


def test_division_takes_the_leading_term_before_newer_ones():
    """Dividing (2x*t1 + 2t1^3 - 2t1)*g by g = -x + t1^2 - 1, the first
    step creates x*t1^3 and then x*t1; the larger one must be taken next,
    though it was made first."""
    R = PolyRing(["x", "t1"])
    x, t1 = R.gens
    q, g = x * t1 * 2 + t1**3 * 2 - t1 * 2, -x + t1**2 - R.one
    assert (q * g).exact_quo(g) == q
    assert (x**2 * t1 * -2).exact_quo(g) is None


@st.composite
def lcm_pairs(draw):
    """(n, f, g): a common factor, contents of either sign, and at times a
    zero operand."""
    n = draw(st.integers(1, 4))
    _, S = rings(n)
    c = draw_poly(draw, S, 3)
    f = c * draw_poly(draw, S, 3) * draw(st.sampled_from([1, 2, -4, 6]))
    g = c * draw_poly(draw, S, 3) * draw(st.sampled_from([1, -3, 9, -2]))
    zero = draw(st.sampled_from([None, None, None, "f", "g"]))
    if zero == "f":
        f = S.zero
    elif zero == "g":
        g = S.zero
    return n, f, g


@given(lcm_pairs())
def test_lcm_matches_sympys(pair):
    n, f, g = pair
    R, _ = rings(n)
    assert sympy_dict(R(dict(f)).lcm(R(dict(g)))) == dict(f.lcm(g))


def test_lcm_of_zeros_raises_as_sympys_does():
    R, S = rings(2)
    with pytest.raises(ZeroDivisionError):
        S.zero.lcm(S.zero)
    with pytest.raises(ZeroDivisionError):
        R.zero.lcm(R.zero)


@st.composite
def deflatable_pairs(draw):
    """(n, f, g), f and g with at least two terms each and a common factor,
    whose exponents in variable i are all 0 or all multiples of a common
    step k: pairs sympy deflates ahead of its gcd."""
    n = draw(st.integers(2, 4))
    _, S = rings(n)
    i = draw(st.integers(0, n - 1))
    k = draw(st.sampled_from([0, 2, 3]))
    exps = st.integers(0, 3)
    monoms = st.tuples(*[exps] * i, exps.map(lambda e: e * k), *[exps] * (n - i - 1))
    c = draw_poly(draw, S, 2, monoms)
    if k:
        c *= S.gens[i] ** k + 1
    for j in range(n):
        if j != i:
            c *= S.gens[j] + 1
    f = c * draw_poly(draw, S, 3, monoms, min_terms=2)
    g = c * draw_poly(draw, S, 3, monoms, min_terms=2)
    return n, f, g


@given(deflatable_pairs())
def test_cofactors_through_deflation_match_sympys(pair):
    """With a variable absent or stepped, which the gcd takes as it is, and
    the outputs fresh: changing one changes neither input."""
    n, f, g = pair
    R, _ = rings(n)
    tf, tg = R(dict(f)), R(dict(g))
    before = dict(tf), dict(tg)
    got = tf.cofactors(tg)
    want = f.cofactors(g)
    if want[0].LC < 0:
        want = tuple(-p for p in want)
    assert tuple(map(sympy_dict, got)) == tuple(map(dict, want))
    for p in got:
        assert p is not tf and p is not tg
        p[0] = p.get(0, 0) + 7
    assert (dict(tf), dict(tg)) == before


def test_cofactors_gcd_has_a_positive_leading_coefficient():
    """Here the heuristic, ours as sympy's, finds the gcd as f/cff with
    f's negative sign; ``cofactors`` negates all three, so that a cofactor
    taken as a denominator keeps a positive leading coefficient."""
    R, S = rings(1)
    x = S.gens[0]
    f = -2 * (3 * x + 1) ** 2 * (3 * x + 4) ** 2 * (9 * x**2 - 3 * x + 1) ** 3
    g = 2 * (3 * x + 1) ** 2 * (3 * x + 4) ** 3 * (9 * x**2 - 3 * x + 1) ** 4
    assert f.cofactors(g)[0] == f
    h, cff, cfg = R(dict(f)).cofactors(R(dict(g)))
    assert sympy_dict(h) == dict(-f)
    assert sympy_dict(cff) == {(0,): -1} and sympy_dict(cfg) == dict(g.exquo(-f))


@st.composite
def power_cases(draw):
    """(n, p, k): p of 1 to 7 terms in n variables and 0 <= k <= 8."""
    n = draw(st.integers(1, 4))
    _, S = rings(n)
    return n, draw_poly(draw, S, 7), draw(st.integers(0, 8))


@given(power_cases())
def test_power_matches_sympys(case):
    n, p, k = case
    R, _ = rings(n)
    assert sympy_dict(R(dict(p)) ** k) == dict(p**k)


def test_negative_power_is_canonical():
    F = FracField(["x", "t1"])
    x, t1 = F.gens
    value = (F.zero - x) ** -1
    assert value.denom.LC > 0
    assert (value.numer, value.denom) == ((-F.one).numer, x.numer)
    assert (x - t1**2) ** -2 == 1 / (x - t1**2) ** 2
    value = (t1 - x**2) ** -3
    assert value.denom.LC > 0
    assert value == F.one / (t1 - x**2) ** 3


@st.composite
def wide_polys(draw):
    """(R, p): p a sympy polynomial of 1 to 6 terms in 1 to 7 variables with
    exponents up to 2**15 - 1, the largest a packed field holds, and R our
    ring over the same variables."""
    n = draw(st.integers(1, 7))
    R, S = rings(n)
    monoms = st.tuples(*[st.integers(0, 2**15 - 1)] * n)
    return R, draw_poly(draw, S, 6, monoms)


@given(wide_polys())
def test_terms_and_leading_monomial_match_sympys(case):
    """Packed monomials order as sympy's lex order and unpack to its
    exponent tuples."""
    R, p = case
    ours = R(dict(p))
    assert ours.terms() == p.terms()
    assert R.unpack(max(ours)) == p.LM


def test_exponents_past_the_field_raise():
    R = PolyRing(["x"])
    x = R.gens[0]
    big = x**20000
    with pytest.raises(ExponentOverflow):
        big * big
    with pytest.raises(ExponentOverflow):
        x**40000
    with pytest.raises(ExponentOverflow):
        big.square()
    with pytest.raises(ExponentOverflow):
        big.mul_monom(R.pack((20000,)))
    with pytest.raises(ExponentOverflow):
        R.term_new((2**15,), 1)
    assert (x**16383 * x**16384).degree() == 2**15 - 1


def test_an_overflow_in_a_low_field_raises():
    """A sum in t1's field that reaches its guard bit, or would carry into
    x's, raises rather than give a wrong monomial."""
    R = PolyRing(["x", "t1"])
    x, t1 = R.gens
    big = t1**20000
    with pytest.raises(ExponentOverflow):
        big * big
    with pytest.raises(ExponentOverflow):
        (big * x) * (big + R.one)
    with pytest.raises(ExponentOverflow):
        t1**30000 * t1**2768
    with pytest.raises(ExponentOverflow):
        big**4
    with pytest.raises(ExponentOverflow):
        (big + x) ** 4
    with pytest.raises(ExponentOverflow):
        x.mul_monom(R.pack((0, 30000))).mul_monom(R.pack((0, 30000)))


def test_exact_quotient_across_a_borrow_is_none():
    """A field of the divisor's leading monomial above the dividend's
    borrows from the next field or out of the top one; either is no
    quotient."""
    R = PolyRing(["x", "t1"])
    x, t1 = R.gens
    assert x.exact_quo(x**2) is None
    assert x.exact_quo(t1) is None
    assert (x * t1).exact_quo(t1**2) is None
    assert (x**2 * t1).exact_quo(x * t1) == x


def _layout_readers(path):
    """(module, line) of each import of the gcd kernel, each read of a
    ring's field offsets or guard bits, and each ``.dtype(...)`` call,
    which builds a polynomial from packed monomials."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            bad = any(m.rsplit(".", 1)[-1] == "gcdheu" for m in modules)
        elif isinstance(node, ast.Attribute):
            bad = node.attr in ("shifts", "guard")
        elif isinstance(node, ast.Call):
            bad = isinstance(node.func, ast.Attribute) and node.func.attr == "dtype"
        else:
            bad = False
        if bad:
            found.append((path.stem, node.lineno))
    return found


def test_the_monomial_layout_stays_in_polys():
    """The packed-monomial layout is private: only polys imports gcdheu,
    and no module besides the two reads it."""
    src = Path(gcdheu.__file__).parent
    found = [
        where
        for path in sorted(src.glob("*.py"))
        if path.stem not in ("polys", "gcdheu")
        for where in _layout_readers(path)
    ]
    assert found == []
    assert _layout_readers(src / "polys.py")


# -- Henrici addition ---------------------------------------------------------


@st.composite
def fraction_pairs(draw):
    """(F, f, g): canonical fractions of Q(x, t1, t2) whose denominators
    share a drawn polynomial factor, an integer content, both, or nothing
    (coprime but for chance); or g = u - f for a drawn u, so that the sum
    cancels what the denominators share."""
    F = FracField(names(3))
    monoms = st.tuples(*[st.integers(0, 2)] * 3)

    def poly(max_terms):
        terms = draw(
            st.lists(
                st.tuples(monoms, st.integers(-6, 6).filter(bool)),
                min_size=1,
                max_size=max_terms,
                unique_by=lambda term: term[0],
            )
        )
        return F.ring.from_dict(dict(terms))

    shared = draw(st.sampled_from(["factor", "content", "both", "coprime", "cancelling"]))
    common = poly(3) if shared in ("factor", "both", "cancelling") else F.ring.one
    if shared in ("content", "both", "cancelling"):
        common = common.mul_ground(draw(st.sampled_from([2, 3, 6, -4])))
    f = F.new(poly(3), poly(3) * common)
    if shared == "cancelling":
        return F, f, F.new(poly(3), poly(3)) - f
    g = F.new(poly(3), poly(3) * common)
    return F, f, g


@given(fraction_pairs())
def test_henrici_sum_is_the_cancelled_cross_product(pair):
    """a/b + c/d, cancelled only against gcd(b, d), is F.new(a*d + c*b, b*d)
    in numerator and denominator, and so is a difference."""
    F, f, g = pair
    for h, c in ((f + g, g.numer), (f - g, -g.numer)):
        ref = F.new(f.numer * g.denom + c * f.denom, f.denom * g.denom)
        assert (h.numer, h.denom) == (ref.numer, ref.denom)


def test_henrici_sum_cancels_only_against_the_common_factor(gcds):
    """1/(x*(x+1)) + 1/(x*(x-1)) = 2/((x+1)*(x-1)): gcd(b, d) = x, and the
    numerator 2*x cancels against it, with no cancel of the cross product;
    coprime denominators take the one gcd of b and d."""
    F = FracField(names(1))
    x = F.gens[0]
    f, g = 1 / (x * (x + 1)), 1 / (x * (x - 1))
    gcds.clear()
    h = f + g
    assert gcds == {"cofactors": 2}
    assert (h.numer, h.denom) == ((2 * F.one).numer, (x**2 - 1).numer)
    f, g = 1 / (x + 1), 1 / (x - 1)
    gcds.clear()
    h = f + g
    assert gcds == {"cofactors": 1, "coprime": 1}
    assert (h.numer, h.denom) == ((2 * x).numer, (x**2 - 1).numer)
