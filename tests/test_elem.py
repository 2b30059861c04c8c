from fractions import Fraction

import pytest

from towerdecomp import (
    NO,
    UNDECIDED,
    YES,
    TowerBuilder,
    add_decomp_in_field,
    elementary_integrability,
)
from towerdecomp import elem
from towerdecomp.errors import InternalVerificationError

from conftest import sympy_calls


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
    caches are warm its verdict cancels 8 times: 5 in the decomposition
    and its checks, one projection, and 2 in the residue analysis (the
    resultant and the monic coefficient; the certificate is that
    coefficient moved out of the residue ring, and its derivative is never
    cancelled).  A check that canonicalizes more fails here."""
    T = tower_li
    x, t1, t2, t3 = T.gens
    f = T.element(1 / (t1 + x))
    elementary_integrability(f)
    gcds.clear()
    verdict = elementary_integrability(f)
    assert gcds["cancel"] == 8
    assert verdict.status == NO and verdict.certificate.value == -x / (x + 1)


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
