"""Exact-arithmetic toolkit for terminating hypergeometric series.

The package evaluates pFq series exactly in rational arithmetic, recognizes
hypergeometric terms from their consecutive-term ratios, applies Whipple's
second theorem to the specially-poised 4F3(-1), and certifies a binomial
sum identity by checking that three independent evaluation pathways agree
exactly.
"""

from .errors import HypergeometricError, TermBudgetExceeded
from .hyper_series import (
    Classification,
    HypSeries,
    PrefactoredSeries,
    SeriesKind,
    classify,
    eval_exact,
    eval_numeric,
    parametric_excess,
    pochhammer,
)
from .sesma_identity import (
    IdentityReport,
    lhs_sum,
    lhs_term,
    rewrite,
    sesma_ratio,
    sweep,
    verify,
)
from .term_recognize import IntPolynomial, TermRatio, recognize, term_at
from .whipple import WhippleMatch, log_gamma, match_whipple, rhs_exact_terminating, rhs_numeric

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "HypSeries",
    "HypergeometricError",
    "IdentityReport",
    "IntPolynomial",
    "PrefactoredSeries",
    "SeriesKind",
    "TermBudgetExceeded",
    "TermRatio",
    "WhippleMatch",
    "classify",
    "eval_exact",
    "eval_numeric",
    "lhs_sum",
    "lhs_term",
    "log_gamma",
    "match_whipple",
    "parametric_excess",
    "pochhammer",
    "recognize",
    "rewrite",
    "rhs_exact_terminating",
    "rhs_numeric",
    "sesma_ratio",
    "sweep",
    "term_at",
    "verify",
]
