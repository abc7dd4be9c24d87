"""Exact polymatroid invariants: the cave polynomial by four independent
routes (``algorithms``), checked against each other and the paper's
identities (``genverify``), and the Snapper polynomial (``polyalg``)."""

from .algorithms import (
    MobiusTable,
    Stalactite,
    box_polynomial,
    box_summands,
    cave_polynomial,
    mobius_interval,
    mobius_polynomial,
    mobius_table,
    snapper_eur_larson,
    snapper_from_cave,
    stalactite_counts,
    stalactite_decomposition,
    stalactite_polynomial,
)
from .core import (
    LexOrder,
    Polymatroid,
    RankFunction,
    is_m_convex,
    points_from_rank,
    rank_from_points,
    validate_rank_function,
)
from .errors import (
    AxiomViolation,
    CavepolyError,
    DimensionMismatch,
    EmptyInput,
    GenerationExhausted,
    InternalInvariantFailure,
    NegativeExponent,
    NotComparable,
    NotInIndependence,
    NotMConvex,
    ParseError,
    UnknownFamily,
)
from .genverify import (
    CampaignReport,
    GeneratorConfig,
    VerificationReport,
    named_family,
    random_polymatroid,
    shrink_instance,
    verify_campaign,
    verify_instance,
)
from .geometry import (
    CaveReport,
    IndependenceSet,
    independence_points,
    is_cave,
    truncate,
)
from .polyalg import (
    BinomialBasisPoly,
    MultiPoly,
    RationalPoly,
    binomial_map,
    canonical_string,
    expand_binomial,
)

__version__ = "0.1.0"
