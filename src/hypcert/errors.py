"""The error policy of the library and the CLI.

A ``ValueError`` means a malformed argument: a negative index, ``k < m``,
a job count below 1, a tolerance that is not positive and finite, or bad
rational text.  The CLI maps it to exit code 2.

A :class:`HypergeometricError` means a well-formed input with no answer: a
series that does not terminate or diverges, a pole, a term ratio with no
pFq shape, a closed form outside its regime, a value too long to print
or past the float range, a sweep worker process that ended before the
sweep finished.  The CLI maps it to exit code 1.  Its subclass :class:`TermBudgetExceeded`
comes only from ``hyper_series.check_budget``: ``<count> = <n> is over the
budget of <DEFAULT_MAX_TERMS> steps`` (``<count> of <bits> bits ...`` for an
n too long to print), before the first step, in eval_exact, eval_numeric,
verify (m, then k), sweep, rhs_exact_terminating, recognize (root
isolation steps) and term_at.
"""

__all__ = ["HypergeometricError", "TermBudgetExceeded"]


class HypergeometricError(Exception):
    """A well-formed input with no answer."""


class TermBudgetExceeded(HypergeometricError):
    """Work over the term budget, refused before its first step."""
