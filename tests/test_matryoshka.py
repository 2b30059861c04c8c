import pytest

from towerdecomp import NO, YES, elementary_integrability
from towerdecomp.errors import InternalVerificationError, NotProper
from towerdecomp.hermite import _hermite_core, hermite_reduce_proper_value
from towerdecomp.matryoshka import (
    NOT_SQUAREFREE,
    head_data_value,
    improper_reason,
    indicator,
    is_simple_value,
    level_pieces,
    mono_key,
    not_simple_reason,
    order_key_value,
    project_value,
)

from conftest import li_tower, nested_tower, summed, u_tower


def test_projections_of_running_example(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    f = 1 / (t1 * t2) + (t2 - 2 * x * t1) / t1**2 + t3
    proj = project_value(T, f)
    assert proj[0] == t3
    assert proj[1] == (t2 - 2 * x * t1) / t1**2
    assert proj[2] == 1 / (t1 * t2)
    assert not proj[3]
    assert sum(proj) == f


def test_projection_of_polynomial_part(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    f = x * t2 + 1 / x + t2 / t1
    proj = project_value(T, f)
    assert proj[0] == x * t2 + 1 / x
    assert proj[1] == t2 / t1


def test_head_data(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    f = 1 / (t1 * t2) + (t2 - 2 * x * t1) / t1**2 + t3
    hd = head_data_value(T, level_pieces(T, f))
    assert hd.hm == (0, 0, 1)
    assert sum(hd.hc_i.values()) == 1
    assert hd.index_set == frozenset({0})
    # two projections sharing the head monomial add their coefficients
    g = t2 / x + t2 / t1
    hd2 = head_data_value(T, level_pieces(T, g))
    assert hd2.hm == (0, 1, 0)
    assert hd2.index_set == frozenset({0, 1})
    assert sum(hd2.hc_i.values()) == 1 / x + 1 / t1


@pytest.mark.parametrize("make", [li_tower, nested_tower, u_tower])
def test_an_element_in_one_level_is_handed_on_as_itself(make, monkeypatch):
    """An element that lies in one level alone is that level's one piece,
    at the unit monomial, and its projection and head coefficient there are
    the element itself, with no cancel; an element over two levels has
    unreduced pairs for pieces."""
    T = make()
    x, gens = T.gens[0], T.gens[1:]
    unit = (0,) * T.n
    cases = [(0, 1 / (x + 1))] + [(i, 1 / (t + x)) for i, t in enumerate(gens, start=1)]
    spread = 1 / (x + 1) + 1 / (gens[0] + x)
    news = []
    new = T.F.new

    def counting_new(*args):
        news.append(args)
        return new(*args)

    monkeypatch.setattr(T.F, "new", counting_new)
    for i, f in cases:
        pieces = level_pieces(T, f)
        assert pieces[i][unit] is f
        assert project_value(T, f)[i] is f
        assert head_data_value(T, pieces).hc_i[i] is f
    assert not news
    monkeypatch.undo()
    pieces = level_pieces(T, spread)
    assert [len(level) for level in pieces[:2]] == [1, 1]
    assert all(isinstance(piece, tuple) for level in pieces for piece in level.values())


def test_monomial_order_reversed_lex():
    assert mono_key((3, 0, 0)) <= mono_key((0, 1, 0))
    assert mono_key((0, 5, 0)) <= mono_key((0, 0, 1))
    assert not mono_key((0, 0, 1)) <= mono_key((4, 2, 0))


def test_indicator():
    assert indicator((0, 2, 1), 3) == 2
    assert indicator((1, 0, 0), 3) == 1
    assert indicator((0, 0, 0), 3) == 3


def test_order_key_and_compare(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    f = t3**2
    g = t3

    def key(e):
        return order_key_value(T, level_pieces(T, e))

    assert key(f) > key(g)
    assert key(g) < key(f)
    assert key(f) == key(f)
    # distinct elements may share a key: it reads the denominator degree and
    # the head monomial, not the head coefficient
    assert key(2 * g) == key(g)
    # the denominator degree counts powers of the top generator only
    assert key(1 / t3).den_degree == 1
    assert key(1 / (t1 * t2)).den_degree == 0


def test_is_simple(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    assert is_simple_value(T, 1 / (t1 * t2))[0]
    assert is_simple_value(T, T.F.zero)[0]
    assert not is_simple_value(T, t3)[0]  # projection 0 not proper
    assert not is_simple_value(T, 1 / t1**2)[0]  # denominator not squarefree


def test_simple_rejects_higher_generator_in_projection(tower_li):
    T = tower_li
    x, t1, t2, t3 = T.gens
    # t2/t1 sits in projection 1 with a higher-generator numerator
    assert not is_simple_value(T, t2 / t1)[0]


def _outcome(call):
    """The result of call(), or (exception class, message) when it raises."""
    try:
        return call()
    except (NotProper, InternalVerificationError) as exc:
        return type(exc), str(exc)


def _level_one_table():
    """One element per row of the level tests, each at level 1 of the li
    tower, with what every caller of the shared tests makes of it."""
    T = li_tower()
    x, t1, t2, t3 = T.gens
    zero = T.F.zero
    above = "involves generators above level 1"
    improper = "is not proper at its level"
    not_proper = (NotProper, "input is not proper at level 1")
    output_improper = (InternalVerificationError, "Hermite output is not proper")
    # columns: element, improper_reason, not_simple_reason, is_simple_value,
    # elementary_integrability (as status and g; it decomposes first, so no
    # level test rejects its input), hermite_reduce_proper_value, _hermite_core
    rows = [
        (zero, "", "", (True, ""), (YES, zero), (zero, zero), (zero, zero)),
        # 1/(x*t1) = t3'
        (
            1 / (x * t1), "", "", (True, ""), (YES, t3),
            (zero, 1 / (x * t1)), (zero, 1 / (x * t1)),
        ),
        # projecting splits t1/(t1+1) into 1, not proper at level 0, and
        # -1/(t1+1)
        (
            t1 / (t1 + 1), improper, improper,
            (False, f"projection 0 {improper}"), (NO, x), not_proper,
            output_improper,
        ),
        (
            1 / t1**2, "", NOT_SQUAREFREE,
            (False, "projection 1 has a non-squarefree denominator"),
            (YES, t2 - x / t1),
            (-x / t1, 1 / t1), (-x / t1, 1 / t1),
        ),
        (
            t2 / t1, above, above, (False, f"projection 1 {above}"),
            (YES, t2**2 / 2), not_proper, output_improper,
        ),
    ]
    return T, rows


@pytest.mark.parametrize("row", range(5))
def test_level_tests_agree_across_callers(row):
    T, rows = _level_one_table()
    f, improper, not_simple, simple, verdict, reduced, core = rows[row]
    assert improper_reason(T, f, 1) == improper
    assert not_simple_reason(T, f, 1) == not_simple
    assert is_simple_value(T, f) == simple
    got = elementary_integrability(T.element(f))
    assert (got.status, got.decomposition.g.value) == verdict
    assert _outcome(lambda: summed(T.F, hermite_reduce_proper_value(T, f, 1))) == reduced
    assert _outcome(lambda: summed(T.F, _hermite_core(T, f, 1))) == core
