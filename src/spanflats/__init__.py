"""Exact-arithmetic enumeration of spanned flats and bichromatic
point-hyperplane incidences, plus the extremal constructions and counting
formulas they are checked against."""

from .kernel import (
    Flat,
    GeometryError,
    Point,
    affine_hull,
    affine_rank,
    format_rational,
    hyperplane,
    parse_rational,
)
from .spans import (
    CoverCertificate,
    SpannedSet,
    is_r_degenerate,
    max_cover_plane_or_two_lines,
    max_degenerate_subset,
    rank_sum_cover,
    spanned_flats,
)
from .incidence import (
    BiArrangement,
    CountReport,
    EnvelopeTerms,
    bound_envelope,
    count_bichromatic,
)
from .constructions import (
    BichromaticConstruction,
    ConstructionError,
    LineGrid2D,
    ThetaMkConstruction,
    bichromatic_lower_construction,
    erdos_grid_2d,
    purdy_counterexample,
    theta_mk_construction,
    verify_covering_lines,
)
from .formulas import (
    AllocationPreconditionError,
    FormulaDomainError,
    PurdyCounts,
    pigeonhole_check,
    purdy_counts,
    purdy_crossover,
)

__all__ = [
    "AllocationPreconditionError",
    "BiArrangement",
    "BichromaticConstruction",
    "ConstructionError",
    "CountReport",
    "CoverCertificate",
    "EnvelopeTerms",
    "Flat",
    "FormulaDomainError",
    "GeometryError",
    "LineGrid2D",
    "Point",
    "PurdyCounts",
    "SpannedSet",
    "ThetaMkConstruction",
    "affine_hull",
    "affine_rank",
    "bichromatic_lower_construction",
    "bound_envelope",
    "count_bichromatic",
    "erdos_grid_2d",
    "format_rational",
    "hyperplane",
    "is_r_degenerate",
    "max_cover_plane_or_two_lines",
    "max_degenerate_subset",
    "parse_rational",
    "pigeonhole_check",
    "purdy_counterexample",
    "purdy_counts",
    "purdy_crossover",
    "rank_sum_cover",
    "spanned_flats",
    "theta_mk_construction",
    "verify_covering_lines",
]

__version__ = "0.1.0"
