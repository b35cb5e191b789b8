"""Iterated monodromy groups of the quadratic map x -> 2/(x-1)^2.

Exact computation with binary tree automorphisms, the self-similar
geometric group and its arithmetic extension, iterate resultants and
discriminants, level-4 arboreal maximality certificates, and numerical
verification of the nested-radical identities that pin down the
constant field extension.

`import imgroups` loads the exact layers only.  The numeric layer
`constantfield` and the claim suite `verify`, which need mpmath, are
imported when one of the names re-exported from them is first read here,
or when they are imported by name.
"""

from importlib import import_module

__version__ = "0.1.0"

from .arithmodel import (
    ArithLevelModel,
    GrowthReport,
    MaximalSubgroup,
    build_model,
    brute_model_cross_check,
    constant_field_quotient,
    cycle_type_table,
    frattini_subgroup,
    maximal_subgroups,
    odometer_elements,
    order_growth_report,
)
from .errors import (
    BadPrimeError,
    DegenerateTreeError,
    ExcludedBasePointError,
    InsufficientDataError,
    ModelConstructionError,
    ModelInconsistencyError,
    ResourceLimitError,
    ShapeViolationError,
)
from .maximality import (
    BasePoint,
    EliminationReport,
    FrobeniusObservation,
    MaximalityVerdict,
    ResidueLabelling,
    SquareClassReport,
    cycle_blind_subgroups,
    eliminate_maximal_subgroups,
    maximality_verdict,
    recheck_certificate,
    residue_cosets,
    sample_frobenius,
    square_class_test,
)
from .polyarith import (
    DiscriminantShape,
    IntPoly,
    X,
    discriminant_shape,
    factor_degrees_mod_p,
    iterate_metadata,
    iterate_pair,
    resultant,
    resultant_modular,
    specialize_numerator,
    squarefree_part,
)
from .selfsim import (
    LevelGroup,
    RecursionSystem,
    abelian_invariants,
    builtin_system_f,
    centralizer,
    closure,
    commutator_subgroup,
    generating_set,
    geometric_group,
    load_level_group,
    normal_closure,
    omega_group,
    save_level_group,
    subgroup_H,
    subgroup_U,
    subgroup_index,
    verify_geometric_presentation,
    verify_triple_theorem,
)
from .treeauto import (
    Portrait,
    adding_machine,
    are_conjugate,
    conjugacy_class,
    identity,
    iter_all,
    pair,
    sigma,
)

# name -> the submodule that defines it, imported when the name is first read
_DEFERRED = {
    **dict.fromkeys(("PreimageTreeNumeric", "RadicalReport",
                     "branch_flip_invariance", "preimage_tree",
                     "sample_points", "verify_radical_identities"),
                    "constantfield"),
    **dict.fromkeys(("CLAIMS", "ClaimResult", "VerifyCaps", "run_claims"),
                    "verify"),
}


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_DEFERRED[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_DEFERRED})

__all__ = [
    "ArithLevelModel",
    "BadPrimeError",
    "BasePoint",
    "CLAIMS",
    "ClaimResult",
    "DegenerateTreeError",
    "DiscriminantShape",
    "EliminationReport",
    "ExcludedBasePointError",
    "FrobeniusObservation",
    "GrowthReport",
    "InsufficientDataError",
    "IntPoly",
    "LevelGroup",
    "MaximalSubgroup",
    "MaximalityVerdict",
    "ModelConstructionError",
    "ModelInconsistencyError",
    "Portrait",
    "PreimageTreeNumeric",
    "RadicalReport",
    "RecursionSystem",
    "ResidueLabelling",
    "ResourceLimitError",
    "ShapeViolationError",
    "SquareClassReport",
    "VerifyCaps",
    "X",
    "abelian_invariants",
    "adding_machine",
    "are_conjugate",
    "branch_flip_invariance",
    "brute_model_cross_check",
    "build_model",
    "builtin_system_f",
    "centralizer",
    "closure",
    "commutator_subgroup",
    "conjugacy_class",
    "constant_field_quotient",
    "cycle_blind_subgroups",
    "cycle_type_table",
    "discriminant_shape",
    "eliminate_maximal_subgroups",
    "factor_degrees_mod_p",
    "frattini_subgroup",
    "generating_set",
    "geometric_group",
    "identity",
    "iter_all",
    "iterate_metadata",
    "iterate_pair",
    "load_level_group",
    "maximal_subgroups",
    "maximality_verdict",
    "normal_closure",
    "odometer_elements",
    "omega_group",
    "order_growth_report",
    "pair",
    "preimage_tree",
    "recheck_certificate",
    "residue_cosets",
    "resultant",
    "resultant_modular",
    "run_claims",
    "sample_frobenius",
    "sample_points",
    "save_level_group",
    "sigma",
    "specialize_numerator",
    "square_class_test",
    "squarefree_part",
    "subgroup_H",
    "subgroup_U",
    "subgroup_index",
    "verify_geometric_presentation",
    "verify_radical_identities",
    "verify_triple_theorem",
]
