"""Certified linear algebra over semifields.

Solve A·w = b over four exact carriers (boolean, min-plus tropical,
nonnegative rationals, rationals), returning either a solution or a
kernel-pair refutation certificate; extend linear functionals from finitely
generated row spaces; classify carriers by left exactness; verify the whole
story with exhaustive and randomized suites.
"""

from .classify import (
    DichotomyReport,
    ExactnessReason,
    ExactnessVerdict,
    ExhaustiveReport,
    ShapeReport,
    boolean_exhaustive_check,
    classify,
    randomized_dichotomy_suite,
)
from .cli import format_instance, parse_instance, run_command
from .errors import (
    DimensionMismatchError,
    InternalInvariantError,
    InvalidDescriptorError,
    InvertZeroError,
    MembershipDetectedError,
    NotApplicableError,
    NotZeroSumFreeError,
    ParseError,
    TagMismatchError,
    TooFewElementsError,
    ToolkitError,
    UnsupportedCarrierError,
    ZeroColumnError,
)
from .matrices import (
    ColVec,
    Matrix,
    NormalizedSystem,
    RowVec,
    col_sums,
    col_vec,
    identity_matrix,
    inflate_solution,
    is_column_stochastic,
    is_row_stochastic,
    mat_mul,
    matrix,
    normalize,
    ones_row,
    row_sums,
    row_vec,
    transpose,
    unit_row,
    unscale_certificate,
    vec_add,
    zeros_col,
    zeros_row,
)
from .semirings import (
    INF,
    Element,
    SemiringDescriptor,
    SemiringTag,
    add,
    descriptor,
    element,
    element_not_below_one,
    format_element,
    inv,
    mul,
    nat_geq,
    one,
    parse_element,
    zero,
)
from .solver import (
    CertifiedSolveResult,
    ExtensionKind,
    ExtensionResult,
    SolveKind,
    extend_functional,
    field_solve,
    membership_certified,
    principal_solution,
)
from .witness import (
    alternative_ones_preimage,
    boolean_kernel_witness,
    check_certificate,
    kernel_witness,
    non_exactness_instance,
)

__version__ = "0.1.0"
