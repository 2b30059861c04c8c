"""Exact additive decomposition and integrability in primitive
differential towers over Q(x).

The package namespace holds the documented entry points, their types and
the errors they raise.  The finer-grained layers live in their modules and
take a tower and a raw field element, ``(T, f.value)``:
``towerdecomp.hermite``, ``towerdecomp.matryoshka`` and the text I/O in
``towerdecomp.exprio``.
"""

from .decomp import (
    Decomposition,
    InFieldIntegral,
    add_decomp_in_field,
    integrate_in_field,
)
from .errors import (
    ExprSyntaxError,
    InternalVerificationError,
    NotLogarithmic,
    PreconditionCLIMI,
    TowerDecompError,
    TowerNotSPrimitive,
    ZeroArgument,
)
from .tower import FormalProduct, Tower, TowerBuilder, TowerElement, differentiate

# Every command needs the modules above.  The elementary decision and the
# embeddings load on first use of their module or of one of their names, so
# that a command which runs neither does not compile them.
_LAZY = {
    **dict.fromkeys(
        ("elem", "elementary_integrability", "ElementaryVerdict", "YES", "NO", "UNDECIDED"),
        "elem",
    ),
    **dict.fromkeys(
        (
            "embed",
            "normalize_tower",
            "embed_well_generated",
            "apply_homomorphism",
            "associated_matrix",
            "significant_data",
            "is_well_generated",
            "Embedding",
            "AssociatedMatrix",
            "SignificantData",
        ),
        "embed",
    ),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, which -X importtime reports; it binds
    # the submodule in this namespace
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "1.0.0"

__all__ = [
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
    "TowerDecompError",
    "ExprSyntaxError",
    "ZeroArgument",
    "TowerNotSPrimitive",
    "NotLogarithmic",
    "PreconditionCLIMI",
    "InternalVerificationError",
]
