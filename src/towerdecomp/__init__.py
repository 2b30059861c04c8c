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
from .elem import NO, UNDECIDED, YES, ElementaryVerdict, elementary_integrability
from .embed import (
    AssociatedMatrix,
    Embedding,
    SignificantData,
    apply_homomorphism,
    associated_matrix,
    embed_well_generated,
    is_well_generated,
    normalize_tower,
    significant_data,
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
