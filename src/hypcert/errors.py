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


class VerificationError(HypergeometricError):
    """One or more certification pathways failed for a given (k, m).

    Carries every collected diagnostic so a failure is never reported as a
    silent partial result.
    """

    def __init__(self, k: int, m: int, failures: dict[str, str]):
        self.k = k
        self.m = m
        self.failures = dict(failures)
        detail = "; ".join(f"{name}: {msg}" for name, msg in self.failures.items())
        super().__init__(f"verification failed at (k={k}, m={m}): {detail}")

    def __reduce__(self):
        # args holds only the message, which __init__ does not accept
        return self.__class__, (self.k, self.m, self.failures)
