"""The univariate layer on polynomial numerators, against references.

The reference implementations below are the earlier ones: a UniPoly whose
coefficients are auto-cancelled field elements, plain field division, and
projections built coefficient by coefficient.  Every kernel must agree with
them exactly, numerator and denominator.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from towerdecomp.arith import (
    UniPoly,
    make_field,
    pseudo_divmod,
    split_proper_poly,
    squarefree_decomposition,
    unipoly_gcd,
    unipoly_resultant,
    unipoly_xgcd,
)
from towerdecomp.matryoshka import (
    head_data_value,
    level_pieces,
    not_simple_reason,
    project_value,
)
from towerdecomp.polys import Poly
from towerdecomp.tower import normalize_generators

from conftest import (
    coupled_tower,
    li_tower,
    nested_tower,
    random_element,
    random_log_tower,
    seeds,
    u_tower,
)


# -- reference: UniPoly over field-element coefficients ----------------------


class RefUniPoly:
    """Polynomial in one field variable with field-element coefficients."""

    def __init__(self, F, v, coeffs=None):
        self.F = F
        self.v = v
        self.coeffs = {k: c for k, c in (coeffs or {}).items() if c}

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return max(self.coeffs) if self.coeffs else -1

    def lc(self):
        return self.coeffs[self.degree] if self.coeffs else self.F.zero

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, self.F.zero) + c
        return RefUniPoly(self.F, self.v, out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, self.F.zero) - c
        return RefUniPoly(self.F, self.v, out)

    def __mul__(self, other):
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                out[k1 + k2] = out.get(k1 + k2, self.F.zero) + c1 * c2
        return RefUniPoly(self.F, self.v, out)

    def scale(self, c):
        return RefUniPoly(self.F, self.v, {k: a * c for k, a in self.coeffs.items()})

    def divmod(self, other):
        q = {}
        rem = dict(self.coeffs)
        dlc, dd = other.lc(), other.degree
        while rem and max(rem) >= dd:
            k = max(rem)
            c = rem[k] / dlc
            q[k - dd] = c
            for j, b in other.coeffs.items():
                val = rem.get(k - dd + j, self.F.zero) - c * b
                if val:
                    rem[k - dd + j] = val
                else:
                    rem.pop(k - dd + j, None)
        return RefUniPoly(self.F, self.v, q), RefUniPoly(self.F, self.v, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        return self.scale(self.F.one / self.lc()) if self.coeffs else self

    def formal_derivative(self):
        return RefUniPoly(
            self.F, self.v, {k - 1: c * k for k, c in self.coeffs.items() if k}
        )


def ref_poly_to_unipoly(F, p, v):
    out = {}
    for mono, c in p.terms():
        rest = list(mono)
        rest[v] = 0
        term = F.ring.term_new(tuple(rest), c)
        out[mono[v]] = out[mono[v]] + term if mono[v] in out else term
    return RefUniPoly(F, v, {k: F.raw_new(c, F.ring.one) for k, c in out.items()})


def ref_split_proper_poly(f, v):
    F = f.field
    num = ref_poly_to_unipoly(F, f.numer, v)
    den = ref_poly_to_unipoly(F, f.denom, v)
    if den.degree == 0:
        return F.zero, num.scale(F.one / den.lc())
    q, _ = num.divmod(den)
    gen = F.gens[v]
    qf = F.zero
    for k, c in q.coeffs.items():
        qf += c * gen**k
    return f - qf, q


def ref_unipoly_gcd(a, b):
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def ref_unipoly_xgcd(a, b):
    F, v = a.F, a.v
    one, zero = RefUniPoly(F, v, {0: F.one}), RefUniPoly(F, v)
    r0, r1, s0, s1, t0, t1 = a, b, one, zero, zero, one
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = F.one / r0.lc()
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


def ref_squarefree_decomposition(poly):
    poly = poly.monic()
    if poly.degree == 0:
        return []
    dp = poly.formal_derivative()
    g = ref_unipoly_gcd(poly, dp)
    if g.degree == 0:
        return [(poly, 1)]
    out = []
    w = poly // g
    z = dp // g - w.formal_derivative()
    mult = 1
    while not z.is_zero():
        fac = ref_unipoly_gcd(w, z)
        if fac.degree > 0:
            out.append((fac, mult))
        w = w // fac
        z = z // fac - w.formal_derivative()
        mult += 1
    if w.degree > 0:
        out.append((w, mult))
    return out


def ref_unipoly_resultant(a, b):
    F = a.F
    da, db = a.degree, b.degree
    if da < 0 or db < 0:
        return F.zero
    if da == 0 and db == 0:
        return F.one
    sign = F.one if (da * db) % 2 == 0 else -F.one
    if da < db:
        return sign * ref_unipoly_resultant(b, a)
    if db == 0:
        return b.lc() ** da
    r = a % b
    if r.degree < 0:
        return F.zero
    return sign * b.lc() ** (da - r.degree) * ref_unipoly_resultant(b, r)


def ref_project_value(T, f):
    proj = [T.F.zero for _ in range(T.n + 1)]

    def descend(e, level, mono):
        if level == 0:
            proj[0] += e * mono
            return
        proper, poly = ref_split_proper_poly(e, level)
        if proper:
            proj[level] += proper * mono
        for k, c in poly.coeffs.items():
            descend(c, level - 1, mono * T.gens[level] ** k)

    descend(f, T.n, T.F.one)
    return proj


def ref_head_coefficients(T, f):
    """(per-level head monomials, per-level head coefficients), the head
    coefficient read from the map of every monomial to its coefficient."""
    n = T.n
    hm_i, hc_i = [], []
    for level, piece in enumerate(ref_project_value(T, f)):
        if not piece:
            hm_i.append(None)
            hc_i.append(T.F.zero)
            continue
        higher = range(level + 1, n + 1)
        buckets = {}
        for mono, c in piece.numer.terms():
            key = tuple(mono[i] if i in higher else 0 for i in range(1, n + 1))
            low = tuple(0 if i in higher else e for i, e in enumerate(mono))
            term = T.F.ring.term_new(low, c)
            buckets[key] = buckets[key] + term if key in buckets else term
        cmap = {
            key: T.F.raw_new(num, T.F.ring.one) / T.F.raw_new(piece.denom, T.F.ring.one)
            for key, num in buckets.items()
        }
        top = max(cmap, key=lambda m: tuple(reversed(m)))
        hm_i.append(top)
        hc_i.append(cmap[top])
    return hm_i, hc_i


# -- helpers -----------------------------------------------------------------

# The references are the slow implementations that the kernels replace, so
# the comparisons that run them on whole towers or on Euclid sequences draw
# fewer examples than the profile's default.
REFERENCE_EXAMPLES = settings(max_examples=10)


def exact(f):
    return (f.numer, f.denom)


def coeffs(u):
    """{k: coefficient of v**k} of a UniPoly, as canonical field elements."""
    return {k: u.F.new(c, u.den) for k, c in u.num.coeff_polys(u.v).items()}


def same_poly(new, ref):
    """A UniPoly and a reference UniPoly hold the same canonical coefficients."""
    got = {k: exact(c) for k, c in coeffs(new).items()}
    return got == {k: exact(c) for k, c in ref.coeffs.items()}


def ref_from(u):
    """The reference view of a UniPoly."""
    return RefUniPoly(u.F, u.v, coeffs(u))


F3, (X, T1, T2) = make_field(["x", "t1", "t2"])


def random_coeff(rng, v, allow_zero=True):
    """A small random field element of F3 free of the variable v: a sparse
    numerator of degree at most 1 in each variable over 1 or g + c."""
    gens = [g for i, g in enumerate(F3.gens) if i != v]
    num = F3.zero
    for _ in range(rng.randint(1, 2)):
        term = F3.one * rng.randint(-3, 3)
        if rng.random() < 0.5:
            term *= rng.choice(gens)
        num += term
    if not (num or allow_zero):
        num = F3.one
    if rng.random() < 0.5:
        return num
    return num / (rng.choice(gens) + rng.randint(1, 3))


def random_unipoly(rng, v, degree):
    gen = F3.gens[v]
    f = F3.zero
    for k in range(degree + 1):
        f += random_coeff(rng, v, allow_zero=k < degree) * gen**k
    if not f:
        f = gen**degree
    return UniPoly(F3, v, f.numer, f.denom)


def paper_and_random_element(seed):
    rng = random.Random(seed)
    towers = [li_tower(), nested_tower(), u_tower(), coupled_tower()]
    T = rng.choice(towers + [random_log_tower(rng, rng.randint(1, 3))])
    return T, random_element(T, rng)


# -- pseudo-division -----------------------------------------------------------


def test_pseudo_division_counterexample():
    # sympy's pquo gives x*t1*t2 + 2*t1**2 here; the quotient is x*t1*t2
    N = (X * T2**3 + T1 * T2 + 1).numer
    D = (T1 * T2**2 + X).numer
    Q, R, L = pseudo_divmod(N, D, 2)
    assert L * N == Q * D + R and R.degree(2) < D.degree(2)
    # scaled to lc(D)**(deg N - deg D + 1) = t1**2 as in pquo's convention
    assert Q * (T1**2).numer.exquo(L) == (X * T1 * T2).numer


def test_pseudo_division_by_a_non_unit_constant_leading_coefficient():
    """lc_t2(2*t2 + x) = 2 does not divide over Z, so the steps scale by it:
    L = 2**s, and L*N = Q*D + R holds over Z with integer quotient and
    remainder; a leading coefficient of -1 divides exactly, with L = 1."""
    N = (X * T2**3 + T1 * T2 + 1).numer
    for D, unit in [((2 * T2 + X).numer, False), ((X - T2).numer, True)]:
        Q, R, L = pseudo_divmod(N, D, 2)
        assert L * N == Q * D + R and R.degree(2) < D.degree(2)
        assert L == (1 if unit else 2**3)
        assert all(isinstance(c, int) for p in (Q, R, L) for c in p.values())


@given(seed=seeds)
def test_pseudo_division_identity(seed):
    rng = random.Random(seed)
    v = rng.randint(0, 2)
    N = random_unipoly(rng, v, rng.randint(0, 4)).num
    D = random_unipoly(rng, v, rng.randint(1, 3)).num
    Q, R, L = pseudo_divmod(N, D, v)
    assert L * N == Q * D + R
    assert (R.degree(v) if R else -1) < D.degree(v)
    assert L.degree(v) <= 0 and Q.degree(v) <= max(N.degree(v) - D.degree(v), 0)


def reference_pseudo_divmod(N, D, v):
    """Pseudo-division as it was before reductums: each step multiplies the
    whole remainder and the whole divisor, leading terms included."""
    dd = D.degree(v)
    lc = D.coeff_wrt(v, dd)
    unit_lc = lc.is_ground and abs(lc.LC) == 1
    Q, R, L = N.ring.zero, N, N.ring.one
    dr = R.degree(v) if R else -1
    while dr >= dd:
        lr = R.coeff_wrt(v, dr)
        if unit_lc:
            term = lr.mul_ground(lc.LC).mul_gen(v, dr - dd)
            Q += term
            R -= term * D
        else:
            term = lr.mul_gen(v, dr - dd)
            Q = Q * lc + term
            R = R * lc - term * D
            L *= lc
        dr = R.degree(v) if R else -1
    return Q, R, L


def reference_prem(f, g, i):
    """The pseudo-remainder as it was before reductums."""
    dg = g.degree(i)
    r, dr = f, f.degree(i)
    N = dr - dg + 1
    lc_g = g.coeff_wrt(i, dg)
    while True:
        lc_r = r.coeff_wrt(i, dr)
        N -= 1
        r = r * lc_g - (g * lc_r).mul_gen(i, dr - dg)
        dr = r.degree(i)
        if dr < dg:
            break
    return r * lc_g**N


@given(seed=seeds, lead=st.sampled_from([None, 1, -1, 2, -3]))
def test_division_on_reductums_equals_the_whole_polynomial_loops(seed, lead):
    """``prem`` and ``pseudo_divmod`` equal the loops above for a divisor
    whose leading coefficient is a polynomial (None), a unit or a non-unit
    constant, for a dividend of any degree, for one that the divisor
    divides exactly, and for one of lower degree (pseudo_divmod alone:
    prem requires deg_v f >= deg_v g)."""
    rng = random.Random(seed)
    v = rng.randint(0, 2)
    dd = rng.randint(1, 3)
    D = random_unipoly(rng, v, dd).num
    if lead is not None:
        red = random_unipoly(rng, v, dd - 1).num
        D = F3.ring(lead).mul_gen(v, dd) + red
    exact = D * random_unipoly(rng, v, rng.randint(0, 2)).num
    for N in (random_unipoly(rng, v, rng.randint(0, 5)).num, exact,
              random_unipoly(rng, v, dd - 1).num):
        assert pseudo_divmod(N, D, v) == reference_pseudo_divmod(N, D, v)
        if N.degree(v) >= dd:
            assert N.prem(D, v) == reference_prem(N, D, v)
    assert not pseudo_divmod(exact, D, v)[1] and not exact.prem(D, v)


def test_division_on_reductums_saves_the_leading_products(products):
    """Monic f = t2^2 + (x + 1)*t2 + t1 (4 terms) by g = a*t2 + b, with a
    of 10 terms and b of 9: the loops above form 603 monomial products in
    ``prem`` and 685 in ``pseudo_divmod``, the reductum updates 303 and
    385: the 300 products of leading terms, which cancel, are gone."""
    a = ((X + T1 + 2) ** 3).numer
    b = ((X * T1 - 3 * X + T1 + 1) ** 2).numer
    g = a * T2.numer + b
    f = (T2**2 + (X + 1) * T2 + T1).numer
    counts = []
    for divide in (lambda: f.prem(g, 2), lambda: reference_prem(f, g, 2),
                   lambda: pseudo_divmod(f, g, 2), lambda: reference_pseudo_divmod(f, g, 2)):
        products["monomials"] = 0
        divide()
        counts.append(products["monomials"])
    assert counts == [303, 603, 385, 685]


# -- projections and splitting -----------------------------------------------


@REFERENCE_EXAMPLES
@given(seed=seeds)
def test_split_proper_poly_matches_reference(seed):
    T, f = paper_and_random_element(seed)
    for f in [f, T.diff(f)]:
        for v in range(T.n + 1):
            proper, poly = split_proper_poly(f, v)
            ref_proper, ref_poly = ref_split_proper_poly(f, v)
            assert exact(proper) == exact(ref_proper)
            assert same_poly(poly, ref_poly)


@REFERENCE_EXAMPLES
@given(seed=seeds)
def test_projections_and_head_data_match_reference(seed):
    T, f = paper_and_random_element(seed)
    for f in [f, T.diff(f), f * T.gens[-1] ** 2]:
        proj = project_value(T, f)
        assert [exact(p) for p in proj] == [exact(p) for p in ref_project_value(T, f)]
        hd = head_data_value(T, level_pieces(T, f))
        hm_i, hc_i = ref_head_coefficients(T, f)
        assert list(hd.hm_i) == hm_i
        # head coefficients are built for the index set only
        assert sorted(hd.hc_i) == sorted(hd.index_set)
        assert {i: exact(c) for i, c in hd.hc_i.items()} == {
            i: exact(hc_i[i]) for i in hd.index_set
        }


# -- gcd, xgcd, squarefree decomposition and resultant ----------------------


@REFERENCE_EXAMPLES
@given(seed=seeds)
def test_gcd_and_xgcd_match_reference(seed):
    rng = random.Random(seed)
    v = rng.randint(1, 2)
    common = random_unipoly(rng, v, rng.randint(0, 1))
    a = random_unipoly(rng, v, rng.randint(0, 2)) * common
    b = random_unipoly(rng, v, rng.randint(0, 2)) * common
    assert same_poly(unipoly_gcd(a, b), ref_unipoly_gcd(ref_from(a), ref_from(b)))
    g, s = unipoly_xgcd(a, b)
    ref_g, ref_s, _ = ref_unipoly_xgcd(ref_from(a), ref_from(b))
    assert same_poly(g, ref_g) and same_poly(s, ref_s)
    assert ((s * a - g) % b).is_zero()


def ring_unipoly(rng, v, degree):
    """A random UniPoly of the given degree in v whose coefficients are
    polynomials, each an integer or an integer times another variable."""
    gen = F3.gens[v]
    others = [g for i, g in enumerate(F3.gens) if i != v]
    f = F3.zero
    for k in range(degree + 1):
        c = F3.one * (rng.choice([1, -1, 2, 3]) if k == degree else rng.randint(-3, 3))
        if rng.random() < 0.5:
            c *= rng.choice(others)
        f += c * gen**k
    return UniPoly(F3, v, f.numer, f.denom)


@REFERENCE_EXAMPLES
@given(seed=seeds)
def test_xgcd_matches_reference_on_longer_remainder_sequences(seed):
    """Euclid on the numerators carries a's cofactor unreduced over several
    steps and reduces it once; s and g still equal the reference's, on
    moduli of degree 3 and 4 and on a pair whose gcd has positive degree.
    The moduli have polynomial coefficients, which keeps the reference's
    field arithmetic fast."""
    rng = random.Random(seed)
    v = rng.randint(1, 2)
    common = random_unipoly(rng, v, 1)
    for a, b in [
        (random_unipoly(rng, v, 2), ring_unipoly(rng, v, 3)),
        (ring_unipoly(rng, v, 3), ring_unipoly(rng, v, 4)),
        (random_unipoly(rng, v, 2) * common, random_unipoly(rng, v, 2) * common),
    ]:
        g, s = unipoly_xgcd(a, b)
        ref_g, ref_s, _ = ref_unipoly_xgcd(ref_from(a), ref_from(b))
        assert same_poly(g, ref_g) and same_poly(s, ref_s)
    assert g.degree > 0


@REFERENCE_EXAMPLES
@given(seed=seeds)
def test_squarefree_decomposition_matches_reference(seed):
    rng = random.Random(seed)
    v = rng.randint(1, 2)
    p = random_coeff(rng, v, allow_zero=False)
    for mult in rng.choice([[1], [2], [3], [1, 2], [1, 3], [2, 1]]):
        p *= random_unipoly(rng, v, 1).to_frac() ** mult
    P = p.numer
    got = squarefree_decomposition(P, v)
    ref = ref_squarefree_decomposition(ref_from(UniPoly(F3, v, P)))
    assert [m for _, m in got] == [m for _, m in ref]
    # ring factors: each is the reference's monic factor times a factor
    # free of v, and their product leaves a quotient free of v
    product = P.ring.one
    for (fac, m), (ref_fac, _) in zip(got, ref):
        assert same_poly(UniPoly(F3, v, fac, fac.coeff_wrt(v, fac.degree(v))), ref_fac)
        product *= fac**m
    assert P.exquo(product).degree(v) == 0


def sylvester_resultant(A, B, v):
    """Determinant of the Sylvester matrix of two ring polynomials in v, by
    elimination over their fraction field, as a ring polynomial."""
    F = make_field(A.ring.names)[0]
    m, n = A.degree(v), B.degree(v)
    if m == 0 and n == 0:
        return A.ring.one
    ca, cb = coeffs(UniPoly(F, v, A)), coeffs(UniPoly(F, v, B))
    size = m + n
    rows = [[ca.get(m - (c - r), F.zero) for c in range(size)] for r in range(n)]
    rows += [[cb.get(n - (c - r), F.zero) for c in range(size)] for r in range(m)]
    det = F.one
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return A.ring.zero
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    assert det.denom.is_one
    return det.numer


FZ = make_field(["z"])[0]


def random_ring_poly(rng, F, v, degree):
    """A random polynomial of degree ``degree`` in v: the numerator of a
    random UniPoly of F3, or an integer polynomial of Z[z] with
    coefficients in [-5, 5]."""
    if F is F3:
        return random_unipoly(rng, v, degree).num
    coeffs = [rng.randint(-5, 5) for _ in range(degree)] + [rng.choice([-3, -1, 1, 2, 5])]
    return FZ.ring.from_dict({(k,): c for k, c in enumerate(coeffs)})


def test_resultant_sign_of_degrees_one_and_three():
    for F, v in ((F3, 2), (FZ, 0)):
        z, one = F.gens[v].numer, F.ring.one
        a, b = z - one, z**3
        assert unipoly_resultant(a, b, v) == one == sylvester_resultant(a, b, v)
        assert unipoly_resultant(b, a, v) == -one == sylvester_resultant(b, a, v)


@given(seed=seeds)
def test_resultant_matches_reference_and_sylvester(seed):
    """The resultant of two ring polynomials in Z[x, t1, t2] or Z[z] is the
    Euclidean reference's over the fraction field, with denominator 1, and
    the Sylvester determinant."""
    rng = random.Random(seed)
    F, v = (FZ, 0) if rng.random() < 0.3 else (F3, rng.randint(1, 2))
    a = random_ring_poly(rng, F, v, rng.randint(0, 3))
    b = random_ring_poly(rng, F, v, rng.randint(0, 2))
    if rng.random() < 0.2:
        b = b * random_ring_poly(rng, F, v, 1) if a.degree(v) < 1 else a * b
    res = unipoly_resultant(a, b, v)
    ref = ref_unipoly_resultant(ref_from(UniPoly(F, v, a)), ref_from(UniPoly(F, v, b)))
    assert exact(ref) == (res, F.ring.one)
    assert res == sylvester_resultant(a, b, v)


# -- cancel counts -------------------------------------------------------------


@pytest.fixture
def cancels(monkeypatch):
    calls = []
    cancel = Poly.cancel

    def counting(self, g):
        calls.append(1)
        return cancel(self, g)

    monkeypatch.setattr(Poly, "cancel", counting)
    return calls


def test_squarefree_test_runs_no_cancel(cancels):
    T = li_tower()
    x, t1, t2, t3 = T.gens
    cases = [
        (1 / (t1 * t2), 2),
        (1 / (t2 + x) ** 2, 2),
        ((t1 + 1) / ((t1 - x) ** 3 * (t1 + 2)), 1),
        (1 / (x**2 - 1), 0),
        (1 / x**2, 0),
    ]
    reasons = []
    for f, level in cases:
        cancels.clear()
        reasons.append(not_simple_reason(T, f, level))
        assert not cancels
    repeated = "has a non-squarefree denominator"
    assert reasons == ["", repeated, repeated, "", repeated]


def test_split_proper_poly_cancel_count(cancels):
    """The split cancels at most once, for its proper part."""
    rng = random.Random(7)
    T = nested_tower()
    for _ in range(20):
        f = random_element(T, rng, max_terms=4, max_exp=3)
        for v in range(T.n + 1):
            cancels.clear()
            split_proper_poly(f, v)
            assert len(cancels) <= 1


def test_split_proper_poly_of_a_proper_element_runs_no_gcd(gcds):
    """An element already proper in v is its own proper part, with no
    cancel and no gcd, and its polynomial part is zero."""
    T = nested_tower()
    x, t1, t2, t3 = T.gens
    cases = [
        (1 / (x**2 + 1), 0),
        ((x + t1) / (t1**2 + x), 1),
        (t1 / (t2 * x + 1), 2),
        ((t2 * t3 + x) / (3 * t3**2 + t1), 3),
    ]
    for f, v in cases:
        gcds.clear()
        proper, poly = split_proper_poly(f, v)
        assert proper is f and poly.is_zero()
        assert not gcds


# -- normalize_generators projects each generator derivative once -----------


@pytest.mark.parametrize("make", [li_tower, nested_tower])
def test_normalize_generators_projects_once_per_generator(monkeypatch, make):
    import towerdecomp.matryoshka as matryoshka

    T = make()
    calls = []
    project = matryoshka.project_value

    def counting(*args):
        calls.append(1)
        return project(*args)

    monkeypatch.setattr(matryoshka, "project_value", counting)
    normalize_generators(T)
    assert len(calls) == T.n


def test_ground_scaling_keeps_exact_coefficients():
    u = UniPoly(F3, 1, (X * T1**2 + 1).numer, (X + 1).numer)
    scaled = u.scale(F3.ground(Fraction(2, 3)))
    assert coeffs(scaled) == {2: 2 * X / (3 * X + 3), 0: 2 / (3 * X + 3)}
