"""Exact-arithmetic similarity analysis of polynomial matrix families.

The package decides and constructs local holomorphic similarity, computes
Jordan-stability loci and commutant structure, and machine-verifies an
explicit counterexample family separating finitely-smooth similarity from
holomorphic similarity.  All core computations are exact over the Gaussian
rationals.
"""

from .algebra import (
    AlgebraError,
    GaussianRational,
    GR_I,
    GR_ONE,
    GR_ZERO,
    Poly,
    PolyMatrix,
    RationalFunction,
    SimilitudeError,
    format_polynomial,
    generic_rank,
    parse_gaussian_rational,
    parse_polynomial,
)
from .jordan import (
    InstabilityCandidates,
    JordanError,
    JordanProfile,
    StabilityVerdict,
    is_jordan_stable,
    jordan_instability_candidates,
    segre_at,
    stable_normalization,
)
from .rigidity import (
    CounterexampleFamily,
    Cusp,
    FullPlane,
    JetRigidityResult,
    Lines,
    RigidityError,
    build_family,
    clutching_invertibility,
    index_sets,
    jet_rigidity,
    vandermonde_check,
    verify_division_identity,
    verify_smooth_similarity,
    winding_number,
)
from .similarity import (
    ConstructionError,
    LocalSimilarity,
    SimilarityError,
    WasowReport,
    local_similarity,
    pointwise_similar,
    wasow_check,
)
from .smith import (
    KernelProjection,
    SmithError,
    SmithFactorization,
    holomorphic_kernel_section,
    invariant_factors,
    kernel_projection,
    local_smith,
)
from .sylvester import (
    CommutantBasis,
    SylvesterError,
    commutant_basis_at,
    generic_intertwiner_dim,
    intertwiner_dim_at,
    invertible_member,
    path_to_identity,
    sylvester_matrix,
)

__version__ = "0.1.0"
