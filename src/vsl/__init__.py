"""Exact computation of graded Betti tables for degree-d embeddings of
projective space, with blockwise Koszul rank reduction, verified range
predictions, and cycle-level contraction maps."""

from .bounds import (
    InvariantViolation,
    RangePrediction,
    Source,
    VeroneseParams,
    binom,
    duality_partner,
    el_range,
    gb_bound,
    green_vanishing_bound,
    h0,
    linear_conj_bound,
    main_thm_bound,
    projection_codim,
    qn_thm_bound,
    range_predictions,
)
from .betti import (
    BettiTable,
    Engine,
    ResourceLimits,
    ResourceRefusal,
    betti_table,
    duality_check,
    euler_check,
)
from .cache import BlockCache, CacheCorruption, cache_gc, cache_stats
from .harness import VerificationReport, selftest, verify
from .linalg import PINNED_PRIMES, FieldSpec, PrimeDisagreement
from .syzygy import (
    ChainSpace,
    GenericityError,
    KoszulClass,
    cycle_basis,
    ev_D,
    projection_factor_check,
    sample_general_points,
    theorem_chain_check,
    twist_identification_check,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "BlockCache",
    "CacheCorruption",
    "ChainSpace",
    "Engine",
    "FieldSpec",
    "GenericityError",
    "InvariantViolation",
    "KoszulClass",
    "PINNED_PRIMES",
    "PrimeDisagreement",
    "RangePrediction",
    "ResourceLimits",
    "ResourceRefusal",
    "Source",
    "VerificationReport",
    "VeroneseParams",
    "betti_table",
    "binom",
    "cache_gc",
    "cache_stats",
    "cycle_basis",
    "duality_check",
    "duality_partner",
    "el_range",
    "euler_check",
    "ev_D",
    "gb_bound",
    "green_vanishing_bound",
    "h0",
    "linear_conj_bound",
    "main_thm_bound",
    "projection_codim",
    "projection_factor_check",
    "qn_thm_bound",
    "range_predictions",
    "sample_general_points",
    "selftest",
    "theorem_chain_check",
    "twist_identification_check",
    "verify",
]
