"""Exact continued-fraction arithmetic over GF(2)((1/z)).

Word families built by center insertion (P) and paired doubling (G),
their continued fractions under letter-to-polynomial specialization,
matrix product towers with full valuation bookkeeping, randomized
verification of the tower identities over GF(2^m), and checks of the
degree bounds 2^n and 2^k: both families' relations are derived exactly
over GF(2)(z), P's from its letters and G's as a norm, and a one-round
algebraic-relation search looks where no theorem derives one.
Polynomials over GF(2) are bit-packed ints throughout.
"""

from .gf2m import Gf2m, field
from .laurent import LaurentSeries
from .mat2 import Mat2, SeriesField
from .relations import AlgRelation, find_relation
from .theorems import (
    check_corollary_chain,
    check_theorem_g,
    check_theorem_p,
    explore_inverse_sigma,
)
from .towers import (
    DegenerateDraw,
    GQuantities,
    HypothesisViolation,
    PTower,
    SpecMap,
    cf_series,
    convergent_pair,
    convergent_series,
    g_cf_series,
    g_limits,
    p_cf_series,
    p_limits,
    pair_tower,
)
from .words import (
    DegeneratePeriodic,
    GSpec,
    PSpec,
    WordStats,
    complement,
    g_normalize,
    g_prefix,
    g_sigma,
    p_prefix,
    p_to_g,
    sigma_inv_word,
    sigma_word,
    word_stats,
)

__all__ = [
    "AlgRelation", "DegenerateDraw", "DegeneratePeriodic", "Gf2m",
    "GQuantities", "GSpec", "HypothesisViolation", "LaurentSeries", "Mat2",
    "PSpec", "PTower", "SeriesField", "SpecMap", "WordStats",
    "cf_series", "check_corollary_chain",
    "check_theorem_g", "check_theorem_p", "complement", "convergent_pair",
    "convergent_series", "explore_inverse_sigma", "field", "find_relation",
    "g_cf_series", "g_limits", "g_normalize", "g_prefix", "g_sigma",
    "p_cf_series", "p_limits", "p_prefix", "p_to_g", "pair_tower",
    "sigma_inv_word", "sigma_word", "word_stats",
]

__version__ = "0.1.0"
