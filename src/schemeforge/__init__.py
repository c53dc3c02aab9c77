"""schemeforge: exact tools for the 4-class hemisystem association schemes.

Parameter derivation from a Krein array, triple intersection number
systems, a concrete generalized quadrangle of order (9, 3) carrying a
hemisystem, the induced relation scheme as a counting oracle, and the
reconstruction of the quadrangle and hemisystem back from the scheme.
"""

__version__ = "0.1.0"

from .geometry import (
    GQ,
    Hemisystem,
    build_hermitian_gq,
    find_hemisystem,
    verify_gq,
    verify_hemisystem,
)
from .reconstruct import (
    Clique,
    ReconstructedGQ,
    all_cliques,
    reconstruct_gq,
    recover_hemisystem,
    verify_dual_hemisystem,
)
from .relation_scheme import (
    RelationScheme,
    scheme_from_hemisystem,
    verify_scheme,
)
from .scheme_params import (
    KreinArray,
    SchemeParameters,
    ValidationReport,
    closed_form_parameters,
    derive_parameters,
    hemisystem_krein_array,
    validate,
)
from .triples import (
    TripleConfig,
    TripleSolution,
    VacuousConfig,
    direct_triple_counts,
    forced_triple_values,
    nonneg_force,
    solve,
    widened_system,
)

__all__ = [
    "GQ",
    "Hemisystem",
    "build_hermitian_gq",
    "find_hemisystem",
    "verify_gq",
    "verify_hemisystem",
    "Clique",
    "ReconstructedGQ",
    "all_cliques",
    "reconstruct_gq",
    "recover_hemisystem",
    "verify_dual_hemisystem",
    "RelationScheme",
    "scheme_from_hemisystem",
    "verify_scheme",
    "KreinArray",
    "SchemeParameters",
    "ValidationReport",
    "closed_form_parameters",
    "derive_parameters",
    "hemisystem_krein_array",
    "validate",
    "TripleConfig",
    "TripleSolution",
    "VacuousConfig",
    "direct_triple_counts",
    "forced_triple_values",
    "nonneg_force",
    "solve",
    "widened_system",
    "__version__",
]
