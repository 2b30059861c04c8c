"""The package's record types: construction, equality, hash, repr and
immutability, field by field."""

import copy
from fractions import Fraction

import pytest

from towerdecomp.decomp import Decomposition, InFieldIntegral
from towerdecomp.elem import ElementaryVerdict
from towerdecomp.embed import AssociatedMatrix, Embedding, SignificantData
from towerdecomp.matryoshka import HeadData, OrderKey
from towerdecomp.tower import Generator, TowerElement, ValidationResult

from conftest import li_tower

# type -> (field names in order, the defaults of the trailing fields)
RECORDS = {
    Decomposition: (("g", "r", "input"), {}),
    InFieldIntegral: (("antiderivative", "certificate"), {}),
    ElementaryVerdict: (
        ("status", "witness", "span_coeffs", "reason", "certificate", "decomposition"),
        {"witness": (), "span_coeffs": (), "reason": "", "certificate": None, "decomposition": None},
    ),
    AssociatedMatrix: (("tower", "entries"), {}),
    SignificantData: (("sv", "sc"), {}),
    Embedding: (("source", "target", "basis", "ell", "coeffs", "images"), {}),
    HeadData: (("hm_i", "hc_i", "hm", "index_set"), {}),
    OrderKey: (("den_degree", "hm_marker", "hm_rev", "head"), {"head": None}),
    Generator: (("name", "kind", "derivative", "argument"), {"argument": None}),
    ValidationResult: (
        ("status", "reason", "generator", "certificate"),
        {"reason": "", "generator": None, "certificate": None},
    ),
    TowerElement: (("value", "tower"), {}),
}
# fields left out of ==, hash and repr
HIDDEN = {OrderKey: {"head"}}
TYPES = list(RECORDS)


def _values(cls):
    """Hashable, distinct values for every field of cls."""
    return [(0, k) for k in range(len(RECORDS[cls][0]))]


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_construction_positional_keyword_and_defaults(cls):
    names, defaults = RECORDS[cls]
    vals = _values(cls)
    by_position = cls(*vals)
    by_keyword = cls(**dict(zip(names, vals)))
    for obj in (by_position, by_keyword):
        assert [getattr(obj, n) for n in names] == vals
    required = [n for n in names if n not in defaults]
    bare = cls(*vals[: len(required)])
    for n, v in defaults.items():
        assert getattr(bare, n) == v
    with pytest.raises(TypeError):
        cls(*vals[: len(required) - 1])
    with pytest.raises(TypeError):
        cls(*vals, "one too many")
    with pytest.raises(TypeError):
        cls(*vals[: len(required)], no_such_field=1)


@pytest.mark.parametrize("cls", [c for c in TYPES if c is not TowerElement], ids=lambda c: c.__name__)
def test_equality_and_hash_read_the_compared_fields(cls):
    names = RECORDS[cls][0]
    compared = [i for i, n in enumerate(names) if n not in HIDDEN.get(cls, ())]
    vals = _values(cls)
    a, b = cls(*vals), cls(*vals)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(vals[i] for i in compared))
    for i in range(len(names)):
        other = list(vals)
        other[i] = ("changed", i)
        if i in compared:
            assert a != cls(*other)
        else:
            assert a == cls(*other) and hash(a) == hash(cls(*other))
    assert a != tuple(vals) and a != tuple(vals[i] for i in compared)
    assert a != object()


def test_records_with_unhashable_fields_refuse_hash():
    with pytest.raises(TypeError):
        hash(HeadData((), {}, None, frozenset()))
    with pytest.raises(TypeError):
        hash(Decomposition([], 1, 2))


def test_tower_element_equality_is_by_tower_identity():
    T, U = li_tower(), li_tower()
    x = T.gens[0]
    a, b = TowerElement(x, T), TowerElement(x, T)
    assert a == b and hash(a) == hash(b) == hash(x)
    assert a != TowerElement(U.gens[0], U)  # equal text, another tower
    assert a != TowerElement(T.gens[1], T)
    assert a == x and a != T.gens[1]  # a raw value compares with the value
    assert TowerElement(T.F.zero, T) == 0
    assert not TowerElement(T.F.zero, T) and TowerElement(x, T)


def test_equal_constants_hash_alike():
    """A constant compares equal to its int or Fraction and so hashes as
    it: a set holds one of each pair."""
    T = li_tower()
    F = T.F
    half = Fraction(1, 2)
    pairs = [
        (F.one * 3, 3),
        (F.ground(half), half),
        (T.element(3), 3),
        (T.element(3), F.one * 3),
        (F.ring.ground_new(3), 3),
        (F.ring.zero, 0),
    ]
    for a, b in pairs:
        assert a == b and len({a, b}) == 1


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    names = RECORDS[cls][0]
    obj = cls(*_values(cls))
    for n in names:
        with pytest.raises(AttributeError):
            setattr(obj, n, "new")
        with pytest.raises(AttributeError):
            delattr(obj, n)
        assert getattr(obj, n) != "new"
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_copy_gives_an_equal_record(cls):
    obj = cls(*_values(cls))
    dup = copy.copy(obj)
    names = RECORDS[cls][0]
    assert type(dup) is cls
    assert [getattr(dup, n) for n in names] == [getattr(obj, n) for n in names]


def test_repr_text():
    T = li_tower()
    x = TowerElement(T.gens[0], T)
    zero = TowerElement(T.F.zero, T)
    assert repr(x) == "TowerElement(x)"
    assert repr(Decomposition(x, zero, x)) == (
        "Decomposition(g=TowerElement(x), r=TowerElement(0), input=TowerElement(x))"
    )
    assert repr(InFieldIntegral(None, x)) == "InFieldIntegral(antiderivative=None, certificate=TowerElement(x))"
    assert repr(ElementaryVerdict("no", reason="r", certificate=x)) == (
        "ElementaryVerdict(status='no', witness=(), span_coeffs=(), reason='r', "
        "certificate=TowerElement(x), decomposition=None)"
    )
    assert repr(AssociatedMatrix(1, ((x,),))) == "AssociatedMatrix(tower=1, entries=((TowerElement(x),),))"
    assert repr(SignificantData((0,), (x,))) == "SignificantData(sv=(0,), sc=(TowerElement(x),))"
    assert repr(Embedding(1, 2, (x,), (1,), ((),), (zero,))) == (
        "Embedding(source=1, target=2, basis=(TowerElement(x),), ell=(1,), "
        "coeffs=((),), images=(TowerElement(0),))"
    )
    assert repr(HeadData((None,), {}, (1,), frozenset({1}))) == (
        "HeadData(hm_i=(None,), hc_i={}, hm=(1,), index_set=frozenset({1}))"
    )
    head = HeadData((), {}, None, frozenset())
    assert repr(OrderKey(1, 1, (0, 2), head)) == "OrderKey(den_degree=1, hm_marker=1, hm_rev=(0, 2))"
    assert repr(Generator("t1", "log", 1)) == "Generator(name='t1', kind='log', derivative=1, argument=None)"
    assert repr(ValidationResult("rejected", "why", 2, (1, 2))) == (
        "ValidationResult(status='rejected', reason='why', generator=2, certificate=(1, 2))"
    )


def test_order_key_orders_by_its_fields_and_ignores_head():
    h1 = HeadData((), {}, None, frozenset())
    h2 = HeadData((1,), {}, (1,), frozenset({1}))
    a, b = OrderKey(1, 1, (0, 2), h1), OrderKey(1, 1, (0, 2), h2)
    assert a == b and not a < b and not b < a and a <= b and a >= b
    assert OrderKey(0, 1, (5,), h2) < OrderKey(1, 0, (), None) < OrderKey(1, 1, (0,), h1)
    assert OrderKey(1, 1, (0, 1), h2) < OrderKey(1, 1, (0, 2), h1)
    assert OrderKey(2, 0, ()) > OrderKey(1, 1, (9,)) >= OrderKey(1, 1, (9,), h1)
    keys = [OrderKey(1, 1, (2,)), OrderKey(0, 0, ()), OrderKey(1, 0, ())]
    assert [k.hm_marker for k in sorted(keys)] == [0, 0, 1]
    with pytest.raises(TypeError):
        a < (1, 1, (0, 2))


def test_derived_properties():
    T = li_tower()
    x = TowerElement(T.gens[0], T)
    dec = Decomposition(x, x, x)
    assert dec.tower is T
    assert InFieldIntegral(x, 0).integrable and not InFieldIntegral(None, x).integrable
    assert ElementaryVerdict("yes", decomposition=dec).remainder is x
    assert ElementaryVerdict("no").remainder is None
    assert Embedding(1, 2, (3, 4, 5), (), (), ()).w == 3
    assert AssociatedMatrix(T, ((1, 2), (3, 4))).entry(1, 2) == 4
    assert ValidationResult("s-primitive").ok and not ValidationResult("rejected").ok
