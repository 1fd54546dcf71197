"""Exact multigraded Hilbert series of the Grassmannian of planes.

The coordinate ring of G(2,n) degenerates to the semigroup algebra of
path multisets on a trivalent tree with n leaves.  This package computes
the resulting n-graded Hilbert series by four independent routes, the
canonical decomposition in the path semigroup, the quadratic ideal
relations of a tree, and a Riemann-Roch consistency check against the
4-point blow-up of the projective plane.
"""

from .delpezzo import (
    base_change,
    divisor_family,
    euler_characteristic,
    fit_quadratic_form,
    kapranov_grading,
    verify_against_series,
)
from .fixtures import GOLDEN_RANGE, golden_numerator
from .hilbert import (
    CapacityError,
    CrossReport,
    NumeratorResult,
    cross_validate,
    embracing_configurations,
    excluded_configurations,
    numerator_inclusion_exclusion,
    numerator_symmetric_recursion,
    series_by_recursion,
    series_from_numerator,
)
from .polyring import (
    DimensionError,
    IntPolynomial,
    PrecisionError,
    TruncatedSeries,
    complete_homogeneous,
    elementary_symmetric,
    format_terms,
    geometric_expand,
    permute_variables,
)
from .semigroup import (
    NotInSemigroupError,
    PathMultiset,
    SemigroupElement,
    count_gradation,
    decompose,
    enumerate_gradation_elements,
    gradation,
    is_member,
)
from .trees import (
    IdealRelation,
    PathVector,
    Tree,
    TreeParseError,
    caterpillar,
    classify_intersection,
    ideal_relations,
    parse_tree,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CrossReport",
    "DimensionError",
    "GOLDEN_RANGE",
    "IdealRelation",
    "IntPolynomial",
    "NotInSemigroupError",
    "NumeratorResult",
    "PathMultiset",
    "PathVector",
    "PrecisionError",
    "SemigroupElement",
    "Tree",
    "TreeParseError",
    "TruncatedSeries",
    "base_change",
    "caterpillar",
    "classify_intersection",
    "complete_homogeneous",
    "count_gradation",
    "cross_validate",
    "decompose",
    "divisor_family",
    "elementary_symmetric",
    "embracing_configurations",
    "enumerate_gradation_elements",
    "euler_characteristic",
    "excluded_configurations",
    "fit_quadratic_form",
    "format_terms",
    "geometric_expand",
    "golden_numerator",
    "gradation",
    "ideal_relations",
    "is_member",
    "kapranov_grading",
    "numerator_inclusion_exclusion",
    "numerator_symmetric_recursion",
    "parse_tree",
    "permute_variables",
    "series_by_recursion",
    "series_from_numerator",
    "verify_against_series",
    "__version__",
]
