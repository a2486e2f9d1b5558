"""Exact-arithmetic toolkit for terminating hypergeometric series.

The package evaluates pFq series exactly in rational arithmetic, recognizes
hypergeometric terms from their consecutive-term ratios, applies Whipple's
second theorem to the specially-poised 4F3(-1), and certifies a binomial
sum identity by checking that three independent evaluation pathways agree
exactly.

Each module's ``__all__`` is its public surface; the package exports their
union.
"""

from . import errors, hyper_series, sesma_identity, term_recognize, whipple
from .errors import *  # noqa: F403
from .hyper_series import *  # noqa: F403
from .sesma_identity import *  # noqa: F403
from .term_recognize import *  # noqa: F403
from .whipple import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name for module in (errors, hyper_series, sesma_identity, term_recognize, whipple) for name in module.__all__
)
