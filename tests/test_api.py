"""The package namespace holds the documented API and nothing else.

``perfbench/workloads.py`` drives the library through ``td.<name>``; every
such name must stay exported.
"""

import re
from pathlib import Path

import towerdecomp

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
