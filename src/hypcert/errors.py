"""The error policy of the library and the CLI.

A ``ValueError`` means a malformed argument; the CLI maps it to exit code 2.
A :class:`HypergeometricError` means a well-formed input with no answer; the
CLI maps it to exit code 1.  The README's "Errors" section lists the cases
of each kind.  The subclass :class:`TermBudgetExceeded` comes only from
``hyper_series.check_budget``: ``<count> = <n> is over the budget of
<DEFAULT_MAX_TERMS> steps`` (``<count> of <bits> bits ...`` for an n too
long to print), before the first step; the README's term-budget list names
each count and the functions that refuse it.
"""

__all__ = ["HypergeometricError", "TermBudgetExceeded"]


class HypergeometricError(Exception):
    """A well-formed input with no answer."""


class TermBudgetExceeded(HypergeometricError):
    """Work over the term budget, refused before its first step."""
