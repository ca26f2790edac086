"""Exact lattice computations on resolution dual graphs.

Decides, from the weighted dual graph of the minimal resolution of a
normal surface singularity, the two sufficient conditions for
bijectivity of the Nash map, with integer witness divisors, vanishing
criteria, and rationality classification. All arithmetic is exact.
"""

from .classify import (
    ClassificationReport,
    NashVerdict,
    StructuralReport,
    an_witness_divisors,
    arithmetic_genus,
    enumerate_graphs,
    is_rational_artin,
    make_family,
    nash_verdict,
    structural_rationality,
)
from .conditions import (
    StarCertificate,
    StarStarReport,
    check_star,
    check_star_star,
    halfspace_coverage,
    star_witness,
)
from .cone import (
    ConeStatus,
    Divisor,
    fundamental_cycle,
    lipman_status,
    pair,
    strict_interior_divisor,
)
from .errors import (
    GraphFormatError,
    InternalInvariantError,
    NashconeError,
    NoMultiplierGuarantee,
)
from .graph import (
    IntersectionMatrix,
    ResolutionGraph,
    ValidationReport,
    canonical_intersections,
    graph_to_json_dict,
    is_negative_definite,
    load_graph,
    parse_graph,
    parse_graph_json,
    serialize_graph,
    serialize_graph_json,
    validate,
)
from .vanishing import (
    CriterionResult,
    laufer_criterion,
    min_realizing_multiple,
    realization_criterion,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "ConeStatus",
    "CriterionResult",
    "Divisor",
    "GraphFormatError",
    "IntersectionMatrix",
    "InternalInvariantError",
    "NashVerdict",
    "NashconeError",
    "NoMultiplierGuarantee",
    "ResolutionGraph",
    "StarCertificate",
    "StarStarReport",
    "StructuralReport",
    "ValidationReport",
    "an_witness_divisors",
    "arithmetic_genus",
    "canonical_intersections",
    "check_star",
    "check_star_star",
    "enumerate_graphs",
    "fundamental_cycle",
    "graph_to_json_dict",
    "halfspace_coverage",
    "is_negative_definite",
    "is_rational_artin",
    "laufer_criterion",
    "lipman_status",
    "load_graph",
    "make_family",
    "min_realizing_multiple",
    "nash_verdict",
    "pair",
    "parse_graph",
    "parse_graph_json",
    "realization_criterion",
    "serialize_graph",
    "serialize_graph_json",
    "star_witness",
    "strict_interior_divisor",
    "structural_rationality",
    "validate",
    "__version__",
]
