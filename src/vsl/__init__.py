"""Exact computation of graded Betti tables for degree-d embeddings of
projective space, with blockwise Koszul rank reduction, verified range
predictions, and cycle-level contraction maps.

Importing vsl loads numpy with one OpenBLAS thread, unless
OPENBLAS_NUM_THREADS is set: vsl does no float linear algebra, and an idle
OpenBLAS worker spins for tens of milliseconds of CPU after numpy loads.
The variable is set only for the length of that import; os.environ is
left as it was.  If numpy was imported before vsl, nothing changes.
"""


def _load_numpy_single_threaded() -> None:
    # OpenBLAS reads its thread count once, when numpy loads it
    import os

    key = "OPENBLAS_NUM_THREADS"
    user_set = key in os.environ
    os.environ.setdefault(key, "1")
    try:
        import numpy  # noqa: F401
    finally:
        if not user_set:
            del os.environ[key]


_load_numpy_single_threaded()

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
