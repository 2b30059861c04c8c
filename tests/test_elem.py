import contextlib
import importlib
import random
import signal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given

from towerdecomp import (
    NO,
    UNDECIDED,
    YES,
    TowerBuilder,
    add_decomp_in_field,
    elementary_integrability,
)
from towerdecomp import elem
from towerdecomp.arith import free_of, make_field, unipoly_resultant
from towerdecomp.errors import InternalVerificationError
from towerdecomp.matryoshka import not_simple_reason, project_value
from towerdecomp.tower import Tower

from conftest import (
    coupled_tower,
    li_tower,
    nested_tower,
    random_element,
    random_s_primitive_tower,
    seeds,
    sympy_calls,
    u_tower,
)


def _verify(T, verdict, f):
    """Re-differentiate the full witness and compare with the remainder."""
    total = T.F.zero
    for j, c in enumerate(verdict.span_coeffs):
        total += T.F.one * c.numerator / c.denominator * T.derivs[j]
    for c, arg in verdict.witness:
        total += T.F.one * c.numerator / c.denominator * T.diff(arg.value) / arg.value
    assert total == verdict.decomposition.r.value


def test_recognizer_single_log(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    verdict = elementary_integrability(T.element(1 / (t1 * t2)))
    assert verdict.status == YES
    assert [(c, a.value) for c, a in verdict.witness] == [(Fraction(1), t2)]
    assert not any(verdict.span_coeffs)


def test_recognizer_nonconstant_residue():
    b = TowerBuilder(["t1"])
    T = b.log(b.x).build()
    x, t1 = T.gens
    verdict = elementary_integrability(T.element(1 / t1))
    assert verdict.status == NO and "non-constant residue" in verdict.reason
    # the residue of 1/t1 at t1 = 0 is 1/t1' = x: the monic residue
    # polynomial z - x has the non-constant coefficient -x
    assert verdict.certificate.value == -x


def test_recognizer_zero_and_simple_precondition(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    zero = elementary_integrability(T.element(0))
    assert zero.status == YES and not zero.witness and not zero.span_coeffs
    # a non-simple input is reduced first, not rejected:
    # 1/t1^2 = (-x/t1)' + 1/t1 and 1/t1 = t2'
    verdict = elementary_integrability(T.element(1 / t1**2))
    assert verdict.status == YES and not verdict.witness
    assert verdict.decomposition.g.value == t2 - x / t1
    assert not verdict.remainder


def test_recognizer_rational_residues(tower_li):
    T = tower_li
    x = T.gens[0]
    f = 1 / (x**2 - 1)
    verdict = elementary_integrability(T.element(f))
    assert verdict.status == YES
    combos = sorted((c, a.value) for c, a in verdict.witness)
    assert combos == [(Fraction(-1, 2), x + 1), (Fraction(1, 2), x - 1)]
    _verify(T, verdict, f)


def test_recognizer_irrational_residues(tower_li):
    T = tower_li
    x = T.gens[0]
    verdict = elementary_integrability(T.element(1 / (x**2 - 2)))
    assert verdict.status == UNDECIDED and "irrational" in verdict.reason


def test_elementary_running_example(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    f = 1 / (t1 * t2) + (t2 - 2 * x * t1) / t1**2 + t3
    verdict = elementary_integrability(T.element(f))
    assert verdict.status == YES
    assert [(c, a.value) for c, a in verdict.witness] == [(Fraction(1), t2)]
    _verify(T, verdict, f)


def test_elementary_logarithmic_integral_is_not():
    b = TowerBuilder(["t1"])
    T = b.log(b.x).build()
    t1 = T.gens[1]
    verdict = elementary_integrability(T.element(1 / t1))
    assert verdict.status == NO
    assert verdict.certificate is not None
    assert T.diff(verdict.certificate.value)  # certificate is non-constant


def test_elementary_zero(tower_li):
    verdict = elementary_integrability(tower_li.element(0))
    assert verdict.status == YES and not verdict.witness


def test_elementary_span_only(tower_u):
    T = tower_u
    x, u1, u2, u3 = T.gens
    # u3'/u3 shape pole: remainder u3'/u3? use 1/(x*u1*u3) = (u3)'/u3
    f = 1 / (x * u1 * u3)
    verdict = elementary_integrability(T.element(f))
    assert verdict.status == YES
    _verify(T, verdict, f)


def test_elementary_undecided(tower_li):
    T = tower_li
    x = T.gens[0]
    verdict = elementary_integrability(T.element(1 / (x**2 - 2)))
    assert verdict.status == UNDECIDED


def test_elementary_rejects_monomial_remainder(tower_u):
    T = tower_u
    x, u1, u2, u3 = T.gens
    verdict = elementary_integrability(T.element(u2 / (x * u1)))
    assert verdict.status == NO
    assert "monomial" in verdict.reason


def test_elementary_mixed_span_and_logs(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    f = 2 / (t1 * t2) + 3 / t1 + 1 / (x**2 - 1)
    verdict = elementary_integrability(T.element(f))
    assert verdict.status == YES
    _verify(T, verdict, f)


def test_constant_certificate_is_an_internal_error(monkeypatch):
    b = TowerBuilder(["t1"])
    T = b.log(b.x).build()
    x, t1 = T.gens
    # the first residue coefficient of 1/(x*t1) is -1, so the certificate
    # that a patched is_ground lets through is constant
    monkeypatch.setattr(elem, "is_ground", lambda c: False)
    with pytest.raises(InternalVerificationError, match="non-ground coefficient is constant"):
        elementary_integrability(T.element(1 / (x * t1)))


def test_true_no_cancel_count(tower_li, gcds):
    """1/(t1 + x) has the non-constant residue at t1 = -x; once the tower's
    caches are warm its verdict cancels once, in the residue analysis, for
    the certificate -x/(x + 1), the monic residue polynomial's z^0
    coefficient (the resultant is a ring polynomial, and the certificate's
    derivative is never formed).  f lies in level 1 alone, so the
    decomposition's one pass takes f itself for its head coefficient, and
    Hermite's gcd(D, dD/dt1) proves it simple; the remainder is that same
    element, which the remainder test takes as it is for its head
    coefficient and whose squarefreeness it reads from Hermite's gcd.  The
    reconstruction check adds f, -h and r over their one denominator, with
    no f - r.  It runs 5 gcds (``cofactors``), 4 of them constant.  A check
    that canonicalizes more fails here."""
    T = tower_li
    x, t1, t2, t3 = T.gens
    f = T.element(1 / (t1 + x))
    elementary_integrability(f)
    gcds.clear()
    verdict = elementary_integrability(f)
    assert gcds["cancel"] == 1
    assert gcds["cofactors"] == 5 and gcds["coprime"] == 4
    assert verdict.status == NO and verdict.certificate.value == -x / (x + 1)


@given(seed=seeds)
def test_quotient_by_factors_is_the_canonical_quotient_by_their_product(seed):
    """Cancelling num against each factor in turn gives exactly F.new of num
    over the product, on factors that share parts with num and with each
    other, with integer content, and with num a constant multiple of the
    first factor."""
    rng = random.Random(seed)
    F = li_tower().F

    def poly():
        return random_element(li_tower(), rng).numer or F.ring.one

    for _ in range(4):
        factors = [poly() for _ in range(rng.randint(1, 4))]
        factors += [rng.choice(factors).mul_ground(rng.choice([1, -2, 3]))]
        num = poly()
        for p in rng.sample(factors, rng.randint(0, 2)):
            num *= p
        for num in [num, factors[0].mul_ground(rng.choice([-3, 2]))]:
            product = F.ring.one
            for p in factors:
                product *= p
            got = elem._quotient(F, num, factors)
            want = F.new(num, product)
            assert (got.numer, got.denom) == (want.numer, want.denom)


def test_content_bearing_denominators_are_elementary(tower_nested):
    """1/(2*x) + 1/(3*x*t1) = ((t1 + 2*t2)/6)' on nested: both denominators
    carry integer content that the span step must divide out."""
    T = tower_nested
    x, t1, t2, t3 = T.gens
    f = 1 / (2 * x) + 1 / (3 * x * t1)
    verdict = elementary_integrability(T.element(f))
    assert verdict.status == YES
    dec = verdict.decomposition
    assert dec.g.value == (t1 + 2 * t2) / 6 and not dec.r


def test_readme_input_never_leaves_the_integers(tower_li):
    """No sympy function runs, and every polynomial of the decomposition
    and of the verdict's witness has integer coefficients."""
    T = tower_li
    x, t1, t2, t3 = T.gens
    f = T.element(1 / (t1 * t2) + (t2 - 2 * x * t1) / t1**2 + t3)
    with sympy_calls() as calls:
        dec = add_decomp_in_field(f)
        verdict = elementary_integrability(f)
    assert calls == [] and verdict.status == YES
    values = [dec.g.value, dec.r.value] + [arg.value for _, arg in verdict.witness]
    for value in values:
        for p in (value.numer, value.denom):
            assert all(type(c) is int for c in p.values())


def test_span_after_a_failed_residue_step():
    """On t1 = log x, t2 = log(t1*(x + 1)), 1/(x*t1) = t2' - 1/(x + 1): the
    span step at level 0 fails, the residue step finds -1 at x = -1, and
    the second span step takes t2' for the rest."""
    b = TowerBuilder(["t1", "t2"])
    x, t1, t2 = b.gens
    T = b.log(x).log(t1 * (x + 1)).build()
    verdict = elementary_integrability(T.element(1 / (x * t1)))
    assert verdict.status == YES
    assert verdict.span_coeffs == (0, 1)
    assert [(c, a.value) for c, a in verdict.witness] == [(-1, x + 1)]
    _verify(T, verdict, None)


def test_span_after_the_witness_at_level_zero():
    """t1' = 1/(x^2 - 2): 1/x + 1/(x^2 - 2) is t1' plus log(x)', reached by
    the span step after the witness."""
    b = TowerBuilder(["t1"])
    x, t1 = b.gens
    T = b.prim(1 / (x**2 - 2)).build()
    verdict = elementary_integrability(T.element(1 / x + 1 / (x**2 - 2)))
    assert verdict.status == YES
    assert verdict.span_coeffs == (1,)
    assert [(c, a.value) for c, a in verdict.witness] == [(1, x)]
    _verify(T, verdict, None)


@pytest.mark.parametrize(
    "make, status, witness, certificate",
    [
        (lambda x, t: 1 / (t + x), NO, [], "(-x)/(x + 1)"),
        (lambda x, t: 1 / (x * t), YES, [(1, "t")], None),
        (lambda x, t: 1 / (x * (t + 1)) + 2 / x, YES, [(1, "t + 1")], None),
    ],
)
def test_a_generator_named_like_the_root_variable(make, status, witness, certificate):
    """A generator t = log x named _z, as the residue ring's root variable
    is, gets the verdict, witness and certificate of one named t1."""
    for name in ["t1", "_z"]:
        b = TowerBuilder([name])
        x, t = b.gens
        T = b.log(x).build()
        verdict = elementary_integrability(T.element(make(x, t)))
        assert verdict.status == status
        assert [(c, str(a.value).replace(name, "t")) for c, a in verdict.witness] == witness
        assert (verdict.certificate and str(verdict.certificate.value)) == certificate


def _doubled_witness(T, value, i, roots, _witness=elem._witness_from_roots):
    items, combined = _witness(T, value, i, roots)
    return [(2 * c, arg) for c, arg in items], combined


# (name patched in elem, its stand-in, the input on li, the check's message);
# each stand-in breaks one step, and the check after it must fire
TAMPERED_STEPS = {
    "vanishing-resultant": (
        "unipoly_resultant", lambda A, B, v: A.ring.zero, lambda x, t1: 1 / (t1 + x),
        "^residue resultant vanished$",
    ),
    "projections-read-as-zero": (
        "project_value", lambda T, value: [T.F.zero] * (T.n + 1), lambda x, t1: 1 / (t1 + x),
        "^elementary residual did not vanish$",
    ),
    "witness-coefficients-doubled": (
        "_witness_from_roots", _doubled_witness, lambda x, t1: 1 / (x * (t1 + 1)),
        "^elementary witness failed verification$",
    ),
    "witness-dropped": (
        "_witness_from_roots", lambda T, value, i, roots: ([], T.F.zero),
        lambda x, t1: 1 / (x * (t1 + 1)),
        "^a rational residue outlived its witness$",
    ),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_STEPS))
def test_a_tampered_step_fails_its_check(case, tower_li, monkeypatch):
    """On li, 1/(t1 + x) gets a residue analysis and 1/(x*(t1 + 1)) the
    witness 1*log(t1 + 1), whose residue 1 is the whole residue polynomial.
    Dropping that witness would leave a nonzero level-1 projection with no
    residue left to certify a no."""
    name, stand_in, make, message = TAMPERED_STEPS[case]
    x, t1 = tower_li.gens[:2]
    monkeypatch.setattr(elem, name, stand_in)
    with pytest.raises(InternalVerificationError, match=message):
        elementary_integrability(tower_li.element(make(x, t1)))


# -- the residue polynomial against the resultant on the whole denominator ----


def reference_residue_polynomial(T, value, i):
    """The monic residue polynomial of a t_i-simple value p/q, z^0 first:
    res_{t_i}(p - z*q', q) on the whole denominator q, content included,
    with q' = dn/dd: the resultant of the numerators P = p*dd - z*dn and q,
    divided by dd^deg q, made monic in Q(x, t_1, ..., t_n, _z) with one
    cancel per coefficient and moved into ``T.F``."""
    F = T.F
    Fz = make_field(T.names + ["_z"])[0]
    ring = Fz.ring
    dn, dd = T.diff_pair(value.denom, i)
    dd = dd.set_ring(ring)
    P = value.numer.set_ring(ring) * dd - dn.set_ring(ring).mul_gen(T.n + 1, 1)
    q = value.denom.set_ring(ring)
    R = Fz.new(unipoly_resultant(P, q, i), dd ** q.degree(i))
    assert R.denom.free_of([T.n + 1])
    Rz = R.numer.coeff_polys(T.n + 1)
    lc = Rz[max(Rz)]
    out = []
    for k in range(max(Rz) + 1):
        c = Fz.new(Rz.get(k, ring.zero), lc)
        out.append(F.raw_new(c.numer.set_ring(F.ring), c.denom.set_ring(F.ring)))
    return out


def simple_projections(T, r):
    """(level, projection) for each nonzero projection of r that lies in
    its own level and is simple there, as the residue analysis takes it."""
    for i, h in enumerate(project_value(T, r)):
        if h and free_of(h, range(i + 1, T.n + 1)) and not not_simple_reason(T, h, i):
            yield i, h


def assert_residue_polynomial_matches(T, h, i):
    got = list(elem._residue_polynomial(T, h, i))
    assert got == reference_residue_polynomial(T, h, i)
    for c in got:
        assert c.field is T.F


def _log_x():
    b = TowerBuilder(["t1"])
    return b.log(b.x).build()


# (tower, value, level, the content of the denominator in t_level, verdict)
RESIDUE_CASES = {
    # q = x*t1: the content x is not ground; the one residue is 1
    "non-ground-content": (_log_x, lambda x, t1: 1 / (x * t1), 1, "x", "constant"),
    # q = 2*t1 + 2*x: the content 2 is ground and left in the PRS; the
    # residue x/(2*(x + 1)) is not constant
    "ground-content-2": (_log_x, lambda x, t1: 1 / (2 * t1 + 2 * x), 1, "1", "nonconstant"),
    # q = x*(x + 1)*(t1^2 - 1): the content x^2 + x, residues +-1/(2*(x + 1))
    # and the monic residue polynomial z^2 - 1/(4*(x + 1)^2), whose z^1
    # coefficient is 0
    "quadratic-over-a-content": (
        _log_x, lambda x, t1: 1 / (x * (x + 1) * (t1**2 - 1)), 1, "x^2 + x", "nonconstant",
    ),
    # q = x*(t1^2 - 1): the residue 1/2 at both t1 = 1 and t1 = -1, so the
    # monic residue polynomial is (z - 1/2)^2
    "two-rational-residues": (
        _log_x, lambda x, t1: t1 / (x * (t1**2 - 1)), 1, "x", "constant",
    ),
}


@pytest.mark.parametrize("case", sorted(RESIDUE_CASES))
def test_residue_polynomial_on_named_contents(case):
    make_tower, make, i, content, verdict = RESIDUE_CASES[case]
    T = make_tower()
    h = make(*T.gens)
    assert str(elem._content(h.denom, i)) == content
    assert_residue_polynomial_matches(T, h, i)
    assert elem._residue_analysis(T, h, i)[0] == verdict


# tower -> gcd of the derivative pair (dn, dd) = (L*q0', L) of q0 = t3^2 +
# t1*t3 + x at level 3, where L is the lcm of the generator derivatives'
# denominators up to t3
RESIDUE_PAIR_CASES = {
    # L = x*(x + 1)*u1 carries u2' = 1/(x + 1), and L*q0' keeps that factor
    "u-shares-x+1": (u_tower, "x + 1"),
    # L = x*t1 and L*q0' = 2*t3 + t1*t3 + t1 + x*t1 are coprime
    "li-coprime": (li_tower, "1"),
}


@pytest.mark.parametrize("case", sorted(RESIDUE_PAIR_CASES))
def test_residue_polynomial_on_a_reduced_derivative_pair(case, monkeypatch):
    """The PRS gets p*dd - w*dn with dn/dd = D(q0) in lowest terms.  A
    factor that dn and dd share scales every coefficient of R(w) alike, so
    the monic coefficients are the reference's either way."""
    make_tower, common = RESIDUE_PAIR_CASES[case]
    T = make_tower()
    x, t1, _, t3 = T.gens
    h = 1 / (t3**2 + t1 * t3 + x)
    dn, dd = T.diff_pair(h.denom, 3)
    assert str(dn.cofactors(dd)[0]) == common
    firsts = []
    resultant = elem.unipoly_resultant

    def recording(A, B, v):
        firsts.append(A)
        return resultant(A, B, v)

    monkeypatch.setattr(elem, "unipoly_resultant", recording)
    assert_residue_polynomial_matches(T, h, 3)
    # p = 1, so the w^0 and w^1 coefficients of the PRS's input are dd and -dn
    (P,) = firsts
    dd0, dn1 = (P.coeff_wrt(T.n + 1, k) for k in (0, 1))
    assert dd0.gcd(dn1).is_ground


def test_residue_polynomial_on_the_paper_mix_pool(monkeypatch):
    """Every simple projection of the remainder of every element the
    benchmark's paper-mix pool asks about, on the four paper towers."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    workloads = importlib.import_module("workloads")
    setup, pool, _ = workloads.WORKLOADS["paper-mix"]
    wl = pool(setup(workloads.POOL_SEED), workloads.POOL_SEED)
    asked = []

    class Asked(Exception):
        pass

    def record(T, value):
        asked.append((T, value))
        raise Asked

    # each request turns its input into a TowerElement first: record it
    # there and run nothing more
    with monkeypatch.context() as m:
        m.setattr(Tower, "element", record)
        for request in wl.requests:
            with pytest.raises(Asked):
                request.call()
    seen = set()  # (content ground?, verdict)
    for T, value in asked:
        r = add_decomp_in_field(T.element(value)).r.value
        for i, h in simple_projections(T, r):
            assert_residue_polynomial_matches(T, h, i)
            seen.add((elem._content(h.denom, i).is_ground, elem._residue_analysis(T, h, i)[0]))
    assert len(asked) == len(wl.requests)
    # the pool reaches both verdicts over a ground and a non-ground content
    assert seen == {(g, v) for g in (True, False) for v in ("constant", "nonconstant")}


@given(seed=seeds)
def test_residue_polynomial_on_random_towers(seed):
    rng = random.Random(seed)
    towers = [li_tower, nested_tower, u_tower, coupled_tower]
    if rng.random() < 0.6:
        T = random_s_primitive_tower(rng, rng.randint(1, 3))
    else:
        T = rng.choice(towers)()
    r = add_decomp_in_field(T.element(random_element(T, rng))).r.value
    for i, h in simple_projections(T, r):
        assert_residue_polynomial_matches(T, h, i)


# -- metamorphic: adding a derivative keeps the verdict ----------------------


class DrawTimeout(Exception):
    """A draw ran past its time limit."""


@contextlib.contextmanager
def time_limit(seconds):
    """Raise DrawTimeout in the block once it has run for seconds."""

    def expire(signum, frame):
        raise DrawTimeout(f"a draw ran past its limit of {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# a draw whose inputs hold more terms than this is not run, whatever it
# would answer; the bound is read before the program runs
MAX_DRAW_TERMS = 40


@given(seed=seeds)
def test_the_verdict_is_invariant_under_adding_a_derivative(seed):
    """Adding c*t_j' or h' to f changes no antiderivative's elementarity, so
    the status of f's verdict stays, on the all-log towers nested, u and
    coupled, where no false ``no`` of a non-logarithmic primitive arises.
    c is an integer in [-2, 2] and h a small random element."""
    rng = random.Random(seed)
    for T in (nested_tower(), u_tower(), coupled_tower()):
        f = random_element(T, rng)
        c, j = rng.randint(-2, 2), rng.randint(1, T.n)
        h = random_element(T, rng, max_terms=2, max_exp=1)
        for g in (f + c * T.derivs[j - 1], f + T.diff(h)):
            if max(len(e.numer) + len(e.denom) for e in (f, g)) > MAX_DRAW_TERMS:
                continue
            with time_limit(10):
                before = elementary_integrability(T.element(f)).status
                after = elementary_integrability(T.element(g)).status
            assert before == after, (T, f, g)
