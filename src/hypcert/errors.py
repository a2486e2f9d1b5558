"""The error policy of the library and the CLI.

A ``ValueError`` means a malformed argument: a negative index, ``k < m``,
a k, m, ``k_max``, job count or term index that is not an integer, a job
count below 1, a tolerance or log-gamma argument that is not positive and
finite, a polynomial coefficient that is not an integer, an exact value that
is not an int or a Fraction, or bad rational text.  The CLI maps it to exit
code 2.

A :class:`HypergeometricError` means a well-formed input with no answer: a
series that does not terminate or diverges, a pole, a term ratio with no
pFq shape, a closed form outside its regime, a value too long to print
or past the float range, a sweep worker process that ended before the
sweep finished.  The CLI maps it to exit code 1.  Its subclass :class:`TermBudgetExceeded`
comes only from ``hyper_series.check_budget``: ``<count> = <n> is over the
budget of <DEFAULT_MAX_TERMS> steps`` (``<count> of <bits> bits ...`` for an
n too long to print), before the first step; the README's term-budget list
names each count and the functions that refuse it.
"""

__all__ = ["HypergeometricError", "TermBudgetExceeded"]


class HypergeometricError(Exception):
    """A well-formed input with no answer."""


class TermBudgetExceeded(HypergeometricError):
    """Work over the term budget, refused before its first step."""
