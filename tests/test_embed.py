import pytest

from towerdecomp import (
    FormalProduct,
    TowerBuilder,
    add_decomp_in_field,
    apply_homomorphism,
    associated_matrix,
    embed_well_generated,
    is_well_generated,
    normalize_tower,
    significant_data,
)
from towerdecomp.errors import NotLogarithmic, PreconditionCLIMI, TowerNotSPrimitive

from conftest import coupled_tower, random_element, random_log_tower


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
