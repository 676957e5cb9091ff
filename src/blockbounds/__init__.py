"""Exact bounds on block character counts from local invariants."""

from .exactmat import (
    CartanData,
    DomainError,
    InconsistentDataError,
    InternalInvariantError,
    RationalMatrix,
    ShapeError,
    SingularMatrixError,
    determinant,
    inverse,
    is_positive_definite,
    kron,
    matrix_from_record,
    matrix_to_record,
    rank,
)
from .lattice import (
    GramForm,
    LatticeMinimum,
    form_minimum,
    lll_reduce,
)
from .weights import (
    CertificationError,
    PermutationAction,
    WeightMatrix,
    block_tridiagonal_weight,
    certified_weight,
    from_quadratic_form,
    symmetrize,
    wada_weight,
    weight_candidates,
)
from .bounds import (
    BoundReport,
    ComparisonReport,
    PreconditionError,
    SubsectionSpec,
    classical_bounds,
    compare_all,
    dade_cyclic_bound,
    hks_bound,
    inverse_cartan_bound,
    k0_semidirect,
    kw_bound,
    subsection_k_bound,
    subsection_k0_bound,
)
from .gendec import (
    CyclotomicInteger,
    GenDecData,
    VerificationReport,
    cyc_reduce,
    fourier_split,
    height_zero_valuation_check,
    neg_residue_index,
    rank_check,
    verify_all,
    verify_gram_identity,
    verify_orthogonality,
)

__version__ = "0.1.0"
