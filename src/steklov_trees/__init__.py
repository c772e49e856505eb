"""Steklov (Dirichlet-to-Neumann) spectra of finite trees with boundary.

The boundary of a tree is its degree-one vertices; the Steklov spectrum
is that of the map sending boundary data to the normal derivative of its
harmonic extension.  This package computes those spectra exactly enough
to certify the sharp eigenvalue bounds that hold on trees, constructs
the partition-based test functions realizing them, and ships a seeded
harness that re-verifies the whole chain on random trees.
"""

from types import ModuleType as _ModuleType

from .bounds import (
    BOUND_VALUES,
    LAM2_BOUNDARY,
    LAM2_DIAMETER,
    LAM2_VOLUME,
    LAMK_BOUNDARY,
    LAMK_VOLUME,
    LEMMA_DV,
    PROP_L,
    BoundReport,
    DecayReport,
    asymptotic_decay_check,
    audit,
    bound_report,
    bound_value,
    lemma_dv_check,
    prop_l_check,
)
from .config import DEFAULT_TOL, Tolerances, tolerances_from_env
from .errors import (
    BadIndexError,
    BadParamsError,
    BadVertexError,
    DimensionMismatchError,
    HarmonicResidualError,
    InfeasibleDegreeCapError,
    InfeasibleKError,
    InvariantViolationError,
    MalformedError,
    NoExtremalShapeFoundError,
    NotAPathError,
    NotATreeError,
    NotOrthogonalError,
    NotSymmetricError,
    PartTooSmallError,
    SteklovTreeError,
    TooSmallError,
    ZeroFunctionError,
)
from .generators import (
    FAMILIES,
    family_label,
    gen_ball,
    gen_extremal_middle,
    gen_path,
    gen_random_interior3,
    gen_random_tree,
    gen_refined,
    generate_family,
)
from .graph_core import (
    BoundaryTree,
    DiameterPath,
    SubtreeRef,
    branch_components,
    build_tree,
    component_avoiding,
    diameter,
    make_subtree,
    tree_from_json,
    tree_from_json_dict,
    tree_from_text,
    tree_to_json_dict,
    tree_to_text,
)
from .harmonic import (
    BoundaryFunction,
    DtnMatrix,
    VertexFunction,
    dtn_matrix,
    harmonic_extension,
    laplacian_apply,
    normal_derivative,
)
from .partitions import (
    PartitionCertificate,
    diameter_test_function,
    gradient_supports_disjoint,
    multiway_test_functions,
    partition_k,
    partition_two,
    partition_two_optimal,
    two_level_rayleigh_exact,
    two_level_test_function,
)
from .spectra import (
    SteklovSpectrum,
    eigendecompose_symmetric,
    rayleigh_quotient,
    steklov_eigenvalue_bisect,
    steklov_lambda,
    steklov_spectrum,
    variational_upper_check,
)
from .verify import VerificationReport, VerifyConfig, run_verification

__version__ = "0.1.0"

# the public names, without the submodules that the imports above bind
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))
