"""Finitely presented B-, C-, E- and CE-systems.

Height-truncated presentations of the four structures, exhaustive axiom
checkers for each, the translations between them, and verification of
the round-trip isomorphisms and the derived pairing calculus on concrete
instances.
"""

from .bsys import (
    BFrame,
    BFrameHom,
    BSystem,
    build_finset_bsystem,
    check_preservation,
    slice_bframe,
    validate_bframe,
    validate_bframe_hom,
    validate_bsystem,
    validate_bsystem_hom,
)
from .cesys import (
    CEHom,
    CESystem,
    build_finset_cesystem,
    validate_ce_hom,
    validate_cesystem,
)
from .core import (
    Arrow,
    FinCat,
    FunctorData,
    RootedTree,
    SliceCat,
    Stratification,
    StratFailure,
    free_cat_of_tree,
    slice_category,
    stratify,
    validate_fincat,
    validate_functor,
    validate_tree,
)
from .csys import CSystem, validate_csystem
from .esys import (
    EHom,
    ESystem,
    SliceFunctorT,
    TermCat,
    build_group_structure,
    build_nat_esystem,
    check_pairing,
    internal_hom_cat,
    projections,
    s3_table,
    term_extension,
    validate_ehom,
    validate_esystem,
    vertical_compose,
)
from .report import Report, Truncated, Violation
from .serialize import LoadError, load_structure, save_structure
from .syntax import (
    BindingSignature,
    RawExpr,
    build_syntactic_bframe,
    enumerate_raw,
    parse_signature,
)
from .xlate import (
    IsoWitness,
    adjunction_witnesses,
    b_roundtrip_iso,
    b_to_e,
    c_to_ce,
    casce_iso,
    ce_to_c,
    ce_to_e,
    compose_equivalence,
    e_to_b,
    e_to_ce,
    grand_roundtrip_iso,
)

__version__ = "0.1.0"
