"""Exception types raised by the exact evaluation and recognition machinery.

Plain domain errors on scalar preconditions (negative Pochhammer shift,
non-positive log-gamma argument, ...) raise the builtin ``ValueError``;
the classes here cover failures that are properties of a *series* or a
*term ratio* rather than of a single scalar.
"""


class HypergeometricError(Exception):
    """Base class for series-level failures."""


class NotTerminating(HypergeometricError):
    """An exact evaluation was requested for a series that does not terminate."""


class PoleEncountered(HypergeometricError):
    """A lower parameter hits a nonpositive integer before the series terminates."""


class DivergentSeries(HypergeometricError):
    """Numeric evaluation was requested for a divergent series."""


class NonConvergedWithinBudget(HypergeometricError):
    """Numeric summation did not settle within the configured term budget."""


class TermBudgetExceeded(HypergeometricError):
    """A terminating series or term index needs more steps than the term budget."""


class NotRationallyFactorable(HypergeometricError):
    """A term-ratio polynomial has an irreducible factor with no rational roots."""


class PoleOnPath(HypergeometricError):
    """The term-ratio denominator vanishes at an index reached before termination."""


class PoleInClosedForm(HypergeometricError):
    """A closed-form Pochhammer denominator evaluates to zero."""

