"""The error policy of the library and the CLI.

A ``ValueError`` means a malformed argument: a negative index, ``k < m``,
a tolerance <= 0, or bad rational text.  The CLI maps it to exit code 2.

A :class:`HypergeometricError` means a well-formed input with no answer: a
series that does not terminate or diverges, a pole, a term ratio with no
pFq shape, a closed form outside its regime.  The CLI maps it to exit
code 1.  Its one subclass, :class:`TermBudgetExceeded`, is the refusal of
work over ``DEFAULT_MAX_TERMS`` steps.
"""


class HypergeometricError(Exception):
    """A well-formed input with no answer."""


class TermBudgetExceeded(HypergeometricError):
    """A terminating series or term index needs more steps than the term budget."""
