"""The package namespace holds the documented API and nothing else, and
each of its functions refuses an argument of the wrong kind.

``perfbench/workloads.py`` drives the library through ``td.<name>``; every
such name must stay exported.
"""

import inspect
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

import towerdecomp
from towerdecomp.arith import make_field

from conftest import li_tower, nested_tower

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

API = [
    # entry points
    "TowerBuilder",
    "add_decomp_in_field",
    "integrate_in_field",
    "elementary_integrability",
    "normalize_tower",
    "embed_well_generated",
    "apply_homomorphism",
    "associated_matrix",
    "significant_data",
    "is_well_generated",
    # their types
    "Tower",
    "TowerElement",
    "FormalProduct",
    "Decomposition",
    "InFieldIntegral",
    "ElementaryVerdict",
    "YES",
    "NO",
    "UNDECIDED",
    "Embedding",
    "AssociatedMatrix",
    "SignificantData",
    "differentiate",
    # the errors they raise
    "TowerDecompError",
    "ExprSyntaxError",
    "ZeroArgument",
    "TowerNotSPrimitive",
    "NotLogarithmic",
    "PreconditionCLIMI",
    "InternalVerificationError",
]


def test_all_is_the_documented_api():
    assert sorted(towerdecomp.__all__) == sorted(API)
    assert len(towerdecomp.__all__) == len(API) == 30


def test_dir_lists_the_names_not_yet_loaded():
    assert set(towerdecomp.__all__) <= set(dir(towerdecomp))


def test_every_exported_name_resolves():
    for name in towerdecomp.__all__:
        assert getattr(towerdecomp, name) is not None, name


def test_benchmark_uses_only_exported_names():
    used = set(re.findall(r"\btd\.([A-Za-z_]\w*)", WORKLOADS.read_text()))
    assert used
    assert used <= set(towerdecomp.__all__), used - set(towerdecomp.__all__)


# -- the boundary: every public function refuses a value of the wrong kind --

ELEMENT = "a TowerElement"
TOWER = "a Tower"
# function -> what its one tower-or-element argument must be
ARGUMENT = {
    "add_decomp_in_field": ELEMENT,
    "integrate_in_field": ELEMENT,
    "elementary_integrability": ELEMENT,
    "differentiate": ELEMENT,
    "apply_homomorphism": "an element of the embedding's source",
    "normalize_tower": TOWER,
    "embed_well_generated": TOWER,
    "associated_matrix": TOWER,
    "significant_data": TOWER,
    "is_well_generated": TOWER,
}

# the class of __all__ whose first argument goes through the same gate
CONSTRUCTOR = {"Tower": "a FracField"}

_BOUNDARY = {}


def _boundary():
    """The nested tower, its embedding, and values of the wrong kind: a raw
    element of its field, an element of another field, the tower and one
    of its elements, and an element of another tower."""
    if not _BOUNDARY:
        T, other = nested_tower(), li_tower()
        _BOUNDARY.update(
            T=T,
            E=towerdecomp.embed_well_generated(T),
            values=[
                T.gens[1] + 1,
                make_field(["y", "s"])[1][1],
                T,
                T.element(T.gens[1]),
                other.element(other.gens[2]),
            ],
        )
    return _BOUNDARY


def test_every_public_function_has_its_argument_kind():
    functions = {
        name
        for name in towerdecomp.__all__
        if inspect.isfunction(getattr(towerdecomp, name))
    }
    assert functions == set(ARGUMENT)


@given(
    name=st.sampled_from(sorted(ARGUMENT) + sorted(CONSTRUCTOR)),
    value=st.one_of(
        st.integers(),
        st.text(max_size=4),
        st.none(),
        st.integers(0, 4).map(lambda i: _boundary()["values"][i]),
    ),
)
def test_a_value_of_the_wrong_kind_is_a_type_error(name, value):
    """Each public function, given an int, a str, None, a raw field element
    or another field's, or a tower where an element is expected and an
    element where a tower is, raises TypeError naming what it expected and
    returns no answer.  apply_homomorphism refuses each value as its
    embedding, and reads its element as ``E.source.element`` does, so an int
    or an element of the source is valid there.  The ``Tower`` constructor
    refuses each value as its field F.  Draws that are valid arguments are
    skipped."""
    b = _boundary()
    kind = ARGUMENT.get(name) or CONSTRUCTOR[name]
    is_element = isinstance(value, towerdecomp.TowerElement)
    if kind == ELEMENT:
        assume(not is_element)
    if kind == TOWER:
        assume(not isinstance(value, towerdecomp.Tower))
    if name == "apply_homomorphism":
        # no drawn value is an embedding
        with pytest.raises(TypeError, match="^expected an Embedding, got "):
            towerdecomp.apply_homomorphism(value, b["T"].element(1))
        source = is_element and value.tower is b["T"]
        assume(not (source or isinstance(value, (int, b["T"].F.dtype))))
        args, expected = (b["E"], value), "an element"
    elif name in CONSTRUCTOR:
        args, expected = (value, []), kind
    else:
        args, expected = (value,), kind
    with pytest.raises(TypeError, match="^expected " + expected):
        getattr(towerdecomp, name)(*args)
