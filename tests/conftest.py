import contextlib
import os
import random
import signal
import sys

import pytest
from hypothesis import settings, strategies as st

from towerdecomp import FormalProduct, TowerBuilder
from towerdecomp.arith import substitute, sum_pairs
from towerdecomp.polys import Poly

# Property tests draw from a fixed derandomized stream, so that every run of
# the suite checks the same examples in bounded time.
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, max_examples=25
)
settings.load_profile("deterministic")

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def li_tower():
    """log x, the logarithmic integral, log log x."""
    b = TowerBuilder(["t1", "t2", "t3"])
    t1 = b.gens[1]
    return b.log(b.x).prim(1 / t1).log(t1).build()


def nested_tower(base="x"):
    """log x, log(x*t1), log((x+1)(t1+1)t2), x named base."""
    b = TowerBuilder(["t1", "t2", "t3"], base_name=base)
    x, t1, t2 = b.x, b.gens[1], b.gens[2]
    return (
        b.log(x)
        .log(FormalProduct([(x, 1), (t1, 1)]))
        .log(FormalProduct([(x + 1, 1), (t1 + 1, 1), (t2, 1)]))
        .build()
    )


def u_tower():
    """log x, log(x+1), log u1."""
    b = TowerBuilder(["u1", "u2", "u3"])
    x, u1 = b.x, b.gens[1]
    return b.log(x).log(x + 1).log(u1).build()


def coupled_tower():
    """log x, log t1, log((x+1)*t1)."""
    b = TowerBuilder(["t1", "t2", "t3"])
    x, t1 = b.x, b.gens[1]
    return b.log(x).log(t1).log(FormalProduct([(x + 1, 1), (t1, 1)])).build()


@pytest.fixture
def tower_li():
    return li_tower()


@pytest.fixture
def tower_nested():
    return nested_tower()


@pytest.fixture
def tower_u():
    return u_tower()


def random_element(T, rng, max_terms=3, max_exp=2, coeff_range=5):
    """Small random element: sparse numerator over a sparse denominator."""
    return random_fraction(T.F, rng, max_terms, max_exp, coeff_range)


def random_fraction(F, rng, max_terms=3, max_exp=2, coeff_range=5):
    """Small random element of the field F."""
    gens = list(F.gens)

    def poly(allow_zero):
        out = F.zero
        for _ in range(rng.randint(1, max_terms)):
            c = rng.randint(-coeff_range, coeff_range)
            if not c:
                continue
            term = F.one * c
            for g in rng.sample(gens, rng.randint(0, min(2, len(gens)))):
                term *= g ** rng.randint(1, max_exp)
            out += term
        if not allow_zero and not out:
            out = F.one
        return out

    return poly(True) / poly(False)


def random_log_tower(rng, n):
    """A random validated logarithmic tower with n generators."""
    while True:
        b = TowerBuilder([f"t{i}" for i in range(1, n + 1)])
        x = b.x
        for i in range(n):
            choices = [x, x + 1, x + 2, x**2 + 1, 2 * x + 3]
            for g in b.gens[1 : i + 1]:
                choices.append(g)
                choices.append(g + 1)
                choices.append(g + x)
            factors = rng.sample(choices, rng.randint(1, min(2, len(choices))))
            product = FormalProduct([(f, rng.choice([1, 1, 2])) for f in factors])
            b.log(product)
        T = b.build()
        if T.validate_s_primitive().ok:
            return T


def random_s_primitive_tower(rng, n):
    """Random S-primitive tower mixing logarithmic and explicit generators."""
    while True:
        b = TowerBuilder([f"t{i}" for i in range(1, n + 1)])
        x = b.x
        try:
            for i in range(n):
                if rng.random() < 0.6 or i == 0:
                    pool = [x, x + 1, x + 2] + [
                        g for g in b.gens[1 : i + 1]
                    ] + [g + 1 for g in b.gens[1 : i + 1]]
                    b.log(rng.choice(pool))
                else:
                    # explicit primitive with a simple derivative
                    den = rng.choice([x, x + 1] + list(b.gens[1 : i + 1]))
                    num = rng.randint(1, 3)
                    b.prim(num / den)
            T = b.build()
        except Exception:
            continue
        if T.validate_s_primitive().ok:
            return T


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


def assert_images_commute(T, N, images):
    """images, those in the tower N of x, t_1, ..., t_n of T, commute with
    the derivations on every generator."""
    for j, d in enumerate(T.derivs, start=1):
        assert N.diff(images[j]) == substitute(d, N.F, images)


def summed(F, reduction):
    """(g, h) from a Hermite reduction's (pieces, h), g the sum of the
    pieces as one element of F."""
    pieces, h = reduction
    return sum_pairs(F, pieces), h


def quotient_rule_pair(T, N, D, level=None):
    """Reference derivative of N/D: the unreduced quotient rule
    (L*N'*D - N*L*D', L*D^2), with L*N' and L*D' from ``Tower.diff_pair``."""
    dN, L = T.diff_pair(N, level)
    dD, _ = T.diff_pair(D, level)
    return dN * D - N * dD, L * D**2


def sympy_dict(p):
    """A towerdecomp polynomial as sympy's ``PolyElement`` holds it: a dict
    from exponent tuples, not packed monomials, to ints."""
    return dict(p.terms())


@pytest.fixture
def rng():
    return random.Random(20250825)


@pytest.fixture
def gcds(monkeypatch):
    """Counts of the tower polynomials' gcd, lcm, cancel and cofactors
    calls; every multivariate gcd goes through cofactors.  ``coprime``
    counts the cofactors calls whose gcd is a constant, each of which
    proves its operands coprime up to an integer."""
    counts = {}
    for name in ["gcd", "lcm", "cancel", "cofactors"]:
        orig = getattr(Poly, name)

        def counting(self, *args, _orig=orig, _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            result = _orig(self, *args)
            if _name == "cofactors" and result[0].is_ground:
                counts["coprime"] = counts.get("coprime", 0) + 1
            return result

        monkeypatch.setattr(Poly, name, counting)
    return counts


@pytest.fixture
def products(monkeypatch):
    """The count of monomial products that the tower polynomials' products
    and squares form: len(p)*len(q) for p*q, len(p)*(len(p) + 1)/2 for a
    square, and none for a product with an int."""
    counts = {"monomials": 0}
    mul, square = Poly.__mul__, Poly.square

    def counting_mul(p, q):
        if isinstance(q, Poly):
            counts["monomials"] += len(p) * len(q)
        return mul(p, q)

    def counting_square(p):
        counts["monomials"] += len(p) * (len(p) + 1) // 2
        return square(p)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    monkeypatch.setattr(Poly, "square", counting_square)
    return counts


@contextlib.contextmanager
def sympy_calls():
    """The names of the Python functions of sympy's package that
    run while the block does, recorded by a profile hook."""
    import sympy

    root = os.path.dirname(sympy.__file__) + os.sep
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(None)
