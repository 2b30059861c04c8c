import functools
import random

import pytest
from hypothesis import given, strategies as st

from towerdecomp import (
    FormalProduct,
    TowerBuilder,
    add_decomp_in_field,
    apply_homomorphism,
    associated_matrix,
    elementary_integrability,
    embed_well_generated,
    is_well_generated,
    normalize_tower,
    significant_data,
)
from towerdecomp import decomp, elem, embed, tower
from towerdecomp.arith import free_of, substitute
from towerdecomp.cli import main
from towerdecomp.embed import normalization_images
from towerdecomp.exprio import parse_tower_file, render_tower_file
from towerdecomp.tower import LOG, Tower
from towerdecomp.errors import (
    InternalVerificationError,
    NotLogarithmic,
    PreconditionCLIMI,
    TowerNotSPrimitive,
)

from conftest import (
    MAX_DRAW_TERMS,
    assert_images_commute,
    coupled_tower,
    nested_tower,
    random_element,
    random_log_tower,
    seeds,
    time_limit,
    u_tower,
)


@pytest.fixture
def tower_coupled():
    return coupled_tower()


def test_associated_matrix_nested(tower_nested):
    T = tower_nested
    x, t1, t2, t3 = T.gens
    M = associated_matrix(T)
    expected = [
        [1 / x, 1 / x, 1 / (x + 1)],
        [T.F.zero, 1 / (x * t1), 1 / (x * (t1 + 1))],
        [T.F.zero, T.F.zero, (1 + t1) / (x * t1 * t2)],
    ]
    for i in range(3):
        for j in range(1, 4):
            assert M.entry(i, j).value == expected[i][j - 1]


def test_associated_matrix_single_log():
    b = TowerBuilder(["t1"])
    T = b.log(b.x).build()
    M = associated_matrix(T)
    assert M.entry(0, 1).value == 1 / T.gens[0]


def test_significant_data_coupled(tower_coupled):
    T = tower_coupled
    x, t1 = T.gens[0], T.gens[1]
    data = significant_data(T)
    assert data.sv == (0, 1, 1)
    assert [s.value for s in data.sc] == [1 / x, 1 / (x * t1), 1 / (x * t1)]


def test_is_well_generated_reports_failures(tower_coupled, tower_nested):
    ok, why = is_well_generated(tower_coupled)
    assert not ok and "depends" in why
    ok, why = is_well_generated(tower_nested)
    assert not ok and "column" in why


def test_normalize_coupled(tower_coupled):
    T2, change_log = normalize_tower(tower_coupled)
    assert significant_data(T2).sv == (0, 0, 1)
    assert is_well_generated(T2)[0]
    kinds = [(g.kind, g.argument.collapse()) for g in T2.generators]
    x, g1, g2, g3 = T2.gens
    assert kinds[0][1] == x
    assert kinds[1][1] == x + 1
    assert kinds[2][1] == g1
    steps = [step[0] for step in change_log]
    assert steps == ["eliminate", "swap"]


def test_normalize_identity_on_well_generated(tower_u):
    T2, change_log = normalize_tower(tower_u)
    assert change_log == []
    assert [g.name for g in T2.generators] == [g.name for g in tower_u.generators]


def test_normalize_requires_logarithmic(tower_li):
    with pytest.raises(NotLogarithmic):
        normalize_tower(tower_li)


def test_normalize_rejects_dependent_input():
    b = TowerBuilder(["t1", "t2"])
    x = b.x
    T = b.log(x).log(FormalProduct([(x, 2)])).build()
    with pytest.raises(TowerNotSPrimitive):
        normalize_tower(T)


# t4 reads t3, which the elimination t3 -> t3 - 2*t1 replaces
ELIMINATED_FILE = """var x
gen t1 : log((x^2+1)^2)
gen t2 : log(t1*(x+1))
gen t3 : log(t1^2)
gen t4 : log((x+t3)^2*(x+t1)^2)
"""


def test_an_elimination_rewrites_the_later_arguments():
    T = parse_tower_file(ELIMINATED_FILE)
    N, change_log = normalize_tower(T)
    assert change_log == [("eliminate", 3, (0, 2)), ("swap", 2)]
    assert_images_commute(T, N, normalization_images(N, change_log))


def test_embed_reads_the_expression_in_the_tower_of_the_file(tmp_path, capsys):
    path = tmp_path / "eliminated.tower"
    path.write_text(ELIMINATED_FILE)
    assert main(["embed", "--tower", str(path), "--expr", "t4"]) == 0
    assert "gen u5 : log((x^2 + 4*x*u3 + 4*u3^2)/(4))" in capsys.readouterr().out.splitlines()


@given(n=st.integers(2, 4), seed=seeds)
def test_normalization_images_commute_with_the_derivation(n, seed):
    T = random_log_tower(random.Random(seed), n)
    N, change_log = normalize_tower(T)
    assert_images_commute(T, N, normalization_images(N, change_log))


def test_embed_nested(tower_nested):
    T = tower_nested
    E = embed_well_generated(T)
    assert E.w == 5
    assert E.ell == (1, 3, 5)
    u = E.target.gens
    assert [img.value for img in E.images] == [u[1], u[1] + u[3], u[2] + u[4] + u[5]]
    ok, why = is_well_generated(E.target)
    assert ok, why
    # the target matrix has exactly the expected staircase of nonzero entries
    M = associated_matrix(E.target)
    x = u[0]
    expected_nonzero = {
        (0, 1): 1 / x,
        (0, 2): 1 / (x + 1),
        (1, 3): 1 / (x * u[1]),
        (1, 4): 1 / (x * (u[1] + 1)),
        (3, 5): (u[1] + 1) / (x * u[1] * (u[1] + u[3])),
    }
    for i in range(5):
        for j in range(1, 6):
            want = expected_nonzero.get((i, j), E.target.F.zero)
            assert M.entry(i, j).value == want


def test_embed_requires_precondition(tower_coupled):
    with pytest.raises(PreconditionCLIMI):
        embed_well_generated(tower_coupled)


def test_non_monotone_significant_vector():
    # log x, log t1, log(x+1): independent significant components, sv (0, 1, 0)
    b = TowerBuilder(["t1", "t2", "t3"])
    x, t1 = b.x, b.gens[1]
    T = b.log(x).log(t1).log(x + 1).build()
    assert T.validate_s_primitive().ok
    assert significant_data(T).sv == (0, 1, 0)
    assert is_well_generated(T) == (
        False, "significant vector decreases at generator 3"
    )
    with pytest.raises(PreconditionCLIMI, match="not monotone"):
        embed_well_generated(T)
    T2, log = normalize_tower(T)
    assert log == [("swap", 2)]
    assert T2.names == ["x", "t1", "t3", "t2"]
    assert significant_data(T2).sv == (0, 0, 1)
    assert is_well_generated(T2) == (True, "")
    E = embed_well_generated(T2)
    assert [img.value for img in E.images] == list(E.target.gens[1:])


def test_dependence_reported_before_decrease():
    # sv (0, 1, 0, 1) decreases at generator 3, and the significant
    # component 1/(x*t1) of generator 4 repeats that of generator 2
    b = TowerBuilder(["t1", "t2", "t3", "t4"])
    x, t1 = b.x, b.gens[1]
    T = (
        b.log(x).log(t1).log(x + 1)
        .log(FormalProduct([(x + 2, 1), (t1, 1)]))
        .build()
    )
    assert T.validate_s_primitive().ok
    assert significant_data(T).sv == (0, 1, 0, 1)
    assert is_well_generated(T) == (
        False, "significant component of generator 4 depends on earlier ones"
    )
    with pytest.raises(PreconditionCLIMI, match="constant-linearly dependent"):
        embed_well_generated(T)
    T2, log = normalize_tower(T)
    assert [step[0] for step in log] == ["eliminate", "swap", "swap"]
    assert log[0] == ("eliminate", 4, (0, 1, 0))
    assert is_well_generated(T2) == (True, "")


def test_embed_identity_on_well_generated(tower_u):
    E = embed_well_generated(tower_u)
    assert E.w == 3
    assert [img.value for img in E.images] == list(E.target.gens[1:])


def test_embed_single_generator():
    b = TowerBuilder(["t1"])
    T = b.log(b.x).build()
    E = embed_well_generated(T)
    assert E.w == 1 and E.ell == (1,)


def test_embed_tower_without_generators_is_the_identity():
    T = TowerBuilder([]).build()
    E = embed_well_generated(T)
    assert E.w == 0 and E.ell == () and E.images == () and E.basis == ()
    assert E.target.n == 0 and E.target.names == T.names
    f = T.element(1 / T.gens[0])
    assert apply_homomorphism(E, f).value == E.target.element(1 / E.target.gens[0]).value
    assert normalize_tower(T)[1] == []


def test_apply_homomorphism_images(tower_nested):
    T = tower_nested
    x, t1, t2, t3 = T.gens
    E = embed_well_generated(T)
    u = E.target.gens
    xe = u[0]
    f1 = ((t1 + 1) ** 2 + t1 * t2) / (x * t1 * (t1 + 1) * t2)
    img1 = apply_homomorphism(E, T.element(f1))
    assert img1.value == ((u[1] + 1) ** 2 + u[1] * (u[1] + u[3])) / (
        xe * u[1] * (u[1] + 1) * (u[1] + u[3])
    )
    img2 = apply_homomorphism(E, T.element(t3 / x))
    assert img2.value == (u[2] + u[4] + u[5]) / xe
    const = apply_homomorphism(E, T.element(7))
    assert const.value == 7


def test_apply_homomorphism_rejects_another_towers_element(tower_nested):
    """f is read by ``E.source.element``: an element of another tower is a
    TypeError, even one of a tower with fewer or more generators."""
    E = embed_well_generated(tower_nested)
    b = TowerBuilder(["t1"])
    short = b.log(b.x + 5).build()
    long = random_log_tower(random.Random(0), 4)
    for other in (short, long):
        with pytest.raises(TypeError, match="^expected an element of"):
            apply_homomorphism(E, other.element(other.gens[-1]))
        with pytest.raises(TypeError, match="^expected an element of"):
            apply_homomorphism(E, other.gens[-1])
    x, t1 = tower_nested.gens[:2]
    u = E.target.gens
    assert apply_homomorphism(E, 7).value == 7
    assert apply_homomorphism(E, t1 / x).value == u[1] / u[0]


@pytest.mark.parametrize(
    "base, prefix", [("u1", "v"), ("u5", "v"), ("u6", "u"), ("v1", "u")]
)
def test_target_names_avoid_the_base_variable(base, prefix, rng):
    """The target's generators are u1..uw unless the base variable is one
    of those names; then they are v1..vw."""
    T = nested_tower(base)
    E = embed_well_generated(T)
    assert E.target.names == [base] + [f"{prefix}{k}" for k in range(1, 6)]
    assert E.ell == (1, 3, 5)
    for _ in range(10):
        f = random_element(T, rng)
        lhs = apply_homomorphism(E, T.diff(f))
        assert lhs.value == E.target.diff(apply_homomorphism(E, f).value)


def test_finer_remainders_nested(tower_nested):
    T = tower_nested
    x, t1, t2, t3 = T.gens
    E = embed_well_generated(T)
    f1 = T.element(((t1 + 1) ** 2 + t1 * t2) / (x * t1 * (t1 + 1) * t2))
    r1 = add_decomp_in_field(f1).r
    assert r1 == f1
    assert not add_decomp_in_field(apply_homomorphism(E, f1)).r
    f2 = T.element(t3 / x)
    r2 = add_decomp_in_field(f2).r
    assert r2.value == -t1 / (x + 1) + 1 / (x * (t1 + 1)) - (t1 + 1) / (x * t2)
    u = E.target.gens
    r2e = add_decomp_in_field(apply_homomorphism(E, f2)).r
    assert r2e.value == -u[1] / (u[0] + 1) - (u[1] + 1) / (u[0] * (u[1] + u[3]))


def test_homomorphism_commutes_with_derivation(tower_nested, rng):
    T = tower_nested
    E = embed_well_generated(T)
    for _ in range(25):
        f = random_element(T, rng)
        lhs = apply_homomorphism(E, T.element(T.diff(f)))
        rhs = E.target.diff(apply_homomorphism(E, T.element(f)).value)
        assert lhs.value == rhs


def test_w_bound_on_random_towers(rng):
    for _ in range(8):
        n = rng.randint(1, 3)
        T = random_log_tower(rng, n)
        normalized, _ = normalize_tower(T)
        E = embed_well_generated(normalized)
        m = normalized.n
        assert m <= E.w <= m * (m + 1) // 2
        assert is_well_generated(E.target)[0]


@functools.cache
def embedded_source(index):
    """(N, E) for source tower index, normalized and embedded once: nested,
    u and coupled, then six random logarithmic towers of 2 and 3
    generators."""
    named = [nested_tower, u_tower, coupled_tower]
    T = named[index]() if index < 3 else random_log_tower(random.Random(index), 2 + index % 2)
    N = normalize_tower(T)[0]
    return N, embed_well_generated(N)


@given(index=st.integers(0, 8), seed=seeds)
def test_the_verdict_and_integrability_are_invariant_under_phi(index, seed):
    """phi is an injective differential homomorphism, so a verdict or an
    r = 0 that moved between f and phi(f) would be wrong on one side: both
    get the same status, and r(f) = 0 exactly when r(phi(f)) = 0."""
    N, E = embedded_source(index)
    f = random_element(N, random.Random(seed))
    if len(f.numer) + len(f.denom) > MAX_DRAW_TERMS:
        return
    with time_limit(10):
        before = elementary_integrability(N.element(f))
        after = elementary_integrability(apply_homomorphism(E, N.element(f)))
    assert before.status == after.status, (index, f)
    assert (not before.decomposition.r) == (not after.decomposition.r), (index, f)


PAPER_SOURCES = [nested_tower(), u_tower(), normalize_tower(coupled_tower())[0]]


def assert_coefficient_identity(E):
    """t_j' = b_{ell_j} + sum(c_{j,k} * b_k), exactly, for every j."""
    basis = [b.value for b in E.basis]
    for d, lj, coeffs in zip(E.source.derivs, E.ell, E.coeffs):
        assert len(coeffs) == lj - 1
        combined = basis[lj - 1]
        for b, c in zip(basis, coeffs):
            combined += E.source.F.ground(c) * b
        assert d == combined


@pytest.mark.parametrize("T", PAPER_SOURCES, ids=["nested", "u", "coupled-normalized"])
def test_coefficients_rebuild_the_generator_derivatives(T):
    assert_coefficient_identity(embed_well_generated(T))


@given(n=st.integers(1, 3), seed=seeds)
def test_coefficients_rebuild_the_generator_derivatives_on_random_towers(n, seed):
    T = normalize_tower(random_log_tower(random.Random(seed), n))[0]
    assert_coefficient_identity(embed_well_generated(T))


def assert_target_is_built_from_the_basis(E):
    """u_k' = phi(b_k), and every base of u_k's argument is free of u_k,
    ..., u_w, for every k."""
    Ft = E.target.F
    values = [Ft.gens[0]] + [img.value for img in E.images]
    pairs = zip(E.basis, E.target.derivs, E.target.generators)
    for k, (b, d, g) in enumerate(pairs, start=1):
        assert d == substitute(b.value, Ft, values)
        assert all(free_of(base, range(k, E.w + 1)) for base, _ in g.argument.factors)


@pytest.mark.parametrize("T", PAPER_SOURCES, ids=["nested", "u", "coupled-normalized"])
def test_target_derivatives_are_the_images_of_the_basis(T):
    assert_target_is_built_from_the_basis(embed_well_generated(T))


@given(n=st.integers(1, 3), seed=seeds)
def test_target_derivatives_are_the_images_of_the_basis_on_random_towers(n, seed):
    T = normalize_tower(random_log_tower(random.Random(seed), n))[0]
    assert_target_is_built_from_the_basis(embed_well_generated(T))


def test_an_embedding_builds_one_tower_and_solves_in_its_scans(tower_nested, monkeypatch):
    """A warm embedding of nested constructs the target and no other tower:
    the log arguments are recovered in the source.  The solver runs 2 times
    in the precondition scan, 6 in the basis scan (one per nonzero entry),
    4 in the target's validation and 4 in its well-generation scan; a
    second solve of the generator derivatives fails here."""
    embed_well_generated(tower_nested)
    counts = {"towers": 0, "solves": 0}
    init, solve = tower.Tower.__init__, decomp.solve_constant_combination_values

    def counting_init(self, *args):
        counts["towers"] += 1
        init(self, *args)

    def counting_solve(*args):
        counts["solves"] += 1
        return solve(*args)

    monkeypatch.setattr(tower.Tower, "__init__", counting_init)
    monkeypatch.setattr(decomp, "solve_constant_combination_values", counting_solve)
    monkeypatch.setattr(embed, "solve_constant_combination_values", counting_solve)
    embed_well_generated(tower_nested)
    assert counts == {"towers": 1, "solves": 16}


def _moved_significant_vector(sv):
    """Report the significant vector sv for the real matrix, past the
    precondition scan that would reject it first."""

    def tamper(monkeypatch, T):
        cols = embed.derivative_projections(T)[0]
        monkeypatch.setattr(embed, "_scan_significant", lambda T, cols, sv: None)
        monkeypatch.setattr(embed, "derivative_projections", lambda T: (cols, sv))

    return tamper


def _no_basis(monkeypatch, T):
    monkeypatch.setattr(embed, "_scan_significant", lambda T, cols, sv: None)
    monkeypatch.setattr(embed, "solve_constant_combination_values", lambda F, target, basis: [])


def _leaky_arguments(monkeypatch, T):
    """Every base that ``FormalProduct.substitute`` maps gains the last
    generator of its field."""

    def leaky(f, F, values, _substitute=tower.substitute):
        return _substitute(f, F, values) + F.gens[-1]

    monkeypatch.setattr(tower, "substitute", leaky)


def _shifted_images(monkeypatch, T):
    """phi(t_j') in the commute check is off by 1."""

    def shifted(f, F, values, _substitute=embed.substitute):
        return _substitute(f, F, values) + 1

    monkeypatch.setattr(embed, "substitute", shifted)


def _patch(module, name, stand_in):
    return lambda monkeypatch, T: monkeypatch.setattr(module, name, stand_in)


# on the nested tower (w = 5, ell = (1, 3, 5), significant vector (0, 1, 2)),
# each tamper breaks one step of the embedding, and the check after it fires
TAMPERED_EMBEDDINGS = {
    "no-basis-entry": (_no_basis, "^basis size out of range$"),
    "significant-component-outside-the-basis": (
        _moved_significant_vector((0, 0, 2)),
        "^significant component did not enter the basis$",
    ),
    "positions-not-staircase": (
        _moved_significant_vector((0, 1, 0)),
        "^basis positions are not staircase$",
    ),
    "no-combination-found": (
        _patch(embed, "solve_constant_combination_values", lambda F, target, basis: None),
        "^target is not S-primitive: derivative of u2 depends on earlier derivatives$",
    ),
    "target-derivative-with-later-generators": (
        _leaky_arguments, "^target argument involves later generators$"
    ),
    "non-constant-residue": (
        _patch(elem, "_residue_analysis", lambda T, value, i: ("nonconstant", value)),
        "^basis entry is not a logarithmic derivative$",
    ),
    "witness-short-of-the-entry": (
        _patch(elem, "_witness_from_roots", lambda T, value, i, roots: ([], T.F.zero)),
        "^basis entry is not a logarithmic derivative$",
    ),
    "target-not-well-generated": (
        _patch(embed, "is_well_generated", lambda T: (False, "forced")),
        "^target not well generated: forced$",
    ),
    "images-off-by-one": (
        _shifted_images, "^homomorphism does not commute with derivation$"
    ),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_EMBEDDINGS))
def test_a_tampered_embedding_fails_its_check(case, tower_nested, monkeypatch):
    tamper, message = TAMPERED_EMBEDDINGS[case]
    tamper(monkeypatch, tower_nested)
    with pytest.raises(InternalVerificationError, match=message):
        embed_well_generated(tower_nested)


def test_a_normalization_step_that_changes_nothing_is_an_internal_error(
    tower_coupled, monkeypatch
):
    """Every step must lower the significant vector; a rebuild that gives
    back the same tower does not."""
    monkeypatch.setattr(embed, "change_generators", lambda specs, F, values: tower_coupled)
    with pytest.raises(InternalVerificationError, match="^significant vector failed to decrease$"):
        normalize_tower(tower_coupled)


def test_normalization_images_that_do_not_commute_are_an_internal_error(
    tower_coupled, tmp_path, monkeypatch, capsys
):
    """normalize_tower checks its composite images before it returns; the
    identity misses the elimination t3 -> t3 - t2."""
    monkeypatch.setattr(embed, "normalization_images", lambda N, change_log: list(N.F.gens))
    message = "normalization does not commute with derivation"
    with pytest.raises(InternalVerificationError, match=f"^{message}$"):
        normalize_tower(tower_coupled)
    path = tmp_path / "coupled.tower"
    path.write_text(render_tower_file(tower_coupled))
    assert main(["embed", "--tower", str(path)]) == 3
    assert capsys.readouterr().err == f"internal error: {message}\n"


def _rejected_rebuild(specs, F, values):
    """A rebuilt tower whose t3' = 2/x is twice t1'."""
    x = F.gens[0]
    args = [FormalProduct.single(x), FormalProduct.single(x + 1), FormalProduct([(x, 2)])]
    return Tower(F, [(LOG, a) for a in args])


def test_a_rebuilt_tower_that_fails_validation_is_an_internal_error(
    tower_coupled, monkeypatch
):
    monkeypatch.setattr(embed, "change_generators", _rejected_rebuild)
    with pytest.raises(
        InternalVerificationError,
        match="^rebuilt tower is not S-primitive: derivative of t3 depends on earlier derivatives$",
    ):
        normalize_tower(tower_coupled)


@pytest.mark.parametrize(
    "make, tamper, message",
    [
        (
            nested_tower,
            _patch(embed, "solve_constant_combination_values", lambda F, target, basis: None),
            "target is not S-primitive",
        ),
        (
            coupled_tower,
            _patch(embed, "change_generators", _rejected_rebuild),
            "rebuilt tower is not S-primitive",
        ),
    ],
    ids=["target", "rebuilt-tower"],
)
def test_a_built_tower_that_fails_validation_exits_3(make, tamper, message, tmp_path, monkeypatch, capsys):
    """A tower the package built itself is never the user's fault: the
    command ends as an internal error, not as a validation error."""
    path = tmp_path / "source.tower"
    path.write_text(render_tower_file(make()))
    tamper(monkeypatch, None)
    assert main(["embed", "--tower", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"internal error: {message}: derivative of ")
