"""Generalized hypergeometric series: representation, classification, evaluation.

A pFq series is given by numerator parameters a_1..a_p, denominator
parameters b_1..b_q, and an argument z, all rational.  Terms follow
t_0 = 1, t_{n+1} = t_n * prod(a_i + n) / prod(b_j + n) * z / (n + 1).

Terminating series are summed exactly in rational arithmetic; convergent
nonterminating series can be summed numerically with a tolerance gate.
Values are ``Fraction``; floats appear only on the numeric paths.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from enum import Enum
from fractions import Fraction

from .errors import HypergeometricError, TermBudgetExceeded
from .record import Record

__all__ = [
    "HypSeries",
    "PrefactoredSeries",
    "Classification",
    "SeriesKind",
    "classify",
    "parametric_excess",
    "eval_exact",
    "eval_numeric",
    "pochhammer",
]

DEFAULT_MAX_TERMS = 100_000


def check_budget(steps: int, what: str) -> None:
    """Refuse work of more than DEFAULT_MAX_TERMS steps; ``what`` names the
    count, by its bit length when it is past the int-to-str digit limit."""
    if steps > DEFAULT_MAX_TERMS:
        try:
            count = f"= {steps}"
        except ValueError:
            count = f"of {steps.bit_length()} bits"
        raise TermBudgetExceeded(f"{what} {count} is over the budget of {DEFAULT_MAX_TERMS} steps")


def pochhammer(x: Fraction | int, n: int) -> Fraction:
    """Rising factorial x(x+1)...(x+n-1) of an int or Fraction x; equals 1
    for n = 0."""
    if n < 0:
        raise ValueError(f"pochhammer shift must be nonnegative, got {n}")
    # (p/q + j) = (p + j*q)/q: one integer product plus a constant power of q.
    p, q = x.numerator, x.denominator
    num = 1
    for j in range(n):
        num *= p + j * q
    return Fraction(num, q**n)


def as_fraction(value) -> Fraction:
    """An exact record field's value: a Fraction as is, an int as a Fraction, else a ValueError."""
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(operator.index(value))
    except TypeError:
        raise ValueError(f"an exact value must be an int or a Fraction, got {value!r}") from None


class HypSeries(Record):
    """A pFq series: upper parameters, lower parameters, argument z.

    Parameter order is preserved as given (evaluation is order-independent);
    :meth:`canonical` sorts each list ascending for display and reports.
    """

    __slots__ = ("upper", "lower", "z")
    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    z: Fraction

    def __init__(self, upper: Iterable, lower: Iterable, z) -> None:
        object.__setattr__(self, "upper", tuple(map(as_fraction, upper)))
        object.__setattr__(self, "lower", tuple(map(as_fraction, lower)))
        object.__setattr__(self, "z", as_fraction(z))

    def canonical(self) -> "HypSeries":
        return HypSeries(sorted(self.upper), sorted(self.lower), self.z)

    def __str__(self) -> str:
        up = ",".join(str(a) for a in self.upper)
        lo = ",".join(str(b) for b in self.lower)
        return f"{len(self.upper)}F{len(self.lower)}({up}; {lo}; {self.z})"


class PrefactoredSeries(Record):
    """A constant prefactor times a pFq series; the prefactor is the
    initial term t_0 of the concrete sum the series was derived from."""

    __slots__ = ("prefactor", "series")
    prefactor: Fraction
    series: HypSeries

    def __init__(self, prefactor: Fraction, series: HypSeries) -> None:
        object.__setattr__(self, "prefactor", as_fraction(prefactor))
        object.__setattr__(self, "series", series)


class SeriesKind(Enum):
    TERMINATING = "terminating"
    CONVERGENT = "nonterminating_convergent"
    DIVERGENT = "nonterminating_divergent"
    ILL_POSED = "ill_posed"


class Classification(Record):
    """Outcome of :func:`classify`.

    ``index`` is the termination index N for TERMINATING (minimal N with
    some upper parameter equal to -N) or the pole index M for ILL_POSED
    (minimal M with some lower parameter equal to -M, reached strictly
    before any termination).
    """

    __slots__ = ("kind", "index")
    kind: SeriesKind
    index: int | None

    def __init__(self, kind: SeriesKind, index: int | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)

    def __str__(self) -> str:
        if self.index is None:
            return self.kind.value
        return f"{self.kind.value}({self.index})"


def min_termination_index(params: Iterable[Fraction]) -> int | None:
    """Least N >= 0 with -N among params (where a series stops), or None."""
    hits = [-p.numerator for p in params if p.denominator == 1 and p.numerator <= 0]
    return min(hits) if hits else None


def classify(s: HypSeries) -> Classification:
    """Decide how (and whether) the series can be summed.

    A lower-parameter pole strictly below every termination index makes the
    series ill-posed; a pole at or beyond the termination index is harmless
    because summation stops before reaching it.  Nonterminating series are
    split by the standard convergence rule: p <= q converges everywhere,
    p = q + 1 inside the unit circle plus the parametric-excess conditions
    on its boundary, and p > q + 1 only at z = 0.
    """
    n_term = min_termination_index(s.upper)
    n_pole = min_termination_index(s.lower)
    if n_pole is not None and (n_term is None or n_pole < n_term):
        return Classification(SeriesKind.ILL_POSED, n_pole)
    if n_term is not None:
        return Classification(SeriesKind.TERMINATING, n_term)

    p, q = len(s.upper), len(s.lower)
    z = s.z
    if z == 0 or p <= q:
        return Classification(SeriesKind.CONVERGENT)
    if p > q + 1:
        return Classification(SeriesKind.DIVERGENT)
    # p == q + 1: radius of convergence 1
    if abs(z) < 1:
        return Classification(SeriesKind.CONVERGENT)
    if abs(z) > 1:
        return Classification(SeriesKind.DIVERGENT)
    excess = parametric_excess(s)
    if z == 1:
        good = excess > 0
    else:  # z == -1
        good = excess > -1
    return Classification(SeriesKind.CONVERGENT if good else SeriesKind.DIVERGENT)


def parametric_excess(s: HypSeries) -> Fraction:
    """(sum of lower parameters) - (sum of upper parameters)."""
    return sum(s.lower, Fraction(0)) - sum(s.upper, Fraction(0))


def eval_exact(s: HypSeries) -> Fraction:
    """Exact rational sum of a terminating series.

    A series whose termination index N exceeds ``DEFAULT_MAX_TERMS`` is
    refused with :class:`TermBudgetExceeded` before any term is computed.

    With t_{n+1}/t_n = P(n)/Q(n) the sum is taken in nested (Horner) form
    from the last term back,

        1 + P(0)/Q(0) * (1 + P(1)/Q(1) * (... (1 + P(N-1)/Q(N-1)))),

    carrying the inner value as one integer fraction A/D: D <- Q(n) D,
    A <- D + P(n) A.  Two wide-by-small multiplies per term, a single gcd
    reduction at the end, no floating point.
    """
    cls = classify(s)
    if cls.kind is SeriesKind.ILL_POSED:
        raise HypergeometricError(f"lower-parameter pole at index {cls.index} in {s}")
    if cls.kind is not SeriesKind.TERMINATING:
        raise HypergeometricError(f"series {s} is {cls}, exact summation needs termination")
    n_terms = cls.index  # sum runs n = 0..N
    check_budget(n_terms, "termination index")
    up = [(a.numerator, a.denominator) for a in s.upper]
    lo = [(b.numerator, b.denominator) for b in s.lower]
    # t_{n+1}/t_n = P(n)/Q(n) with
    #   P(n) = prod(p_i + n q_i) * prod(s_j) * z_num
    #   Q(n) = prod(r_j + n s_j) * prod(q_i) * z_den * (n + 1)
    # Q(n) != 0 for n < N: a lower pole below N makes the series ill-posed.
    p_const = math.prod(q for _, q in lo) * s.z.numerator
    q_const = math.prod(q for _, q in up) * s.z.denominator
    acc_num = 1
    acc_den = 1
    for n in range(n_terms - 1, -1, -1):
        p_n = p_const
        for num, den in up:
            p_n *= num + n * den
        q_n = q_const * (n + 1)
        for num, den in lo:
            q_n *= num + n * den
        acc_den *= q_n
        acc_num = acc_den + p_n * acc_num
    return Fraction(acc_num, acc_den)


def eval_numeric(s: HypSeries, tol: float) -> float:
    """Floating-point sum with compensated (Kahan) accumulation.

    Terminating series sum their N+1 terms outright; an N above
    ``DEFAULT_MAX_TERMS`` is refused with :class:`TermBudgetExceeded`, as
    :func:`eval_exact` refuses it.  Nonterminating convergent series stop
    once three consecutive terms fall below tol * max(1, |partial sum|); a
    single small term is not trusted because alternating series at z = -1
    can have one accidental near-cancellation.  A nonterminating sum is
    stopped and refused after ``DEFAULT_MAX_TERMS`` terms, and a sum that
    is not a finite float (an overflow, or a NaN from inf - inf) is refused.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    cls = classify(s)
    if cls.kind is SeriesKind.ILL_POSED:
        raise HypergeometricError(f"lower-parameter pole at index {cls.index} in {s}")
    if cls.kind is SeriesKind.DIVERGENT:
        raise HypergeometricError(f"series {s} diverges at z = {s.z}")
    if cls.kind is SeriesKind.TERMINATING:
        check_budget(cls.index, "termination index")
    if s.z == 0:  # every term after t_0 has a factor z: no float work
        return 1.0

    try:
        upper = [float(a) for a in s.upper]
        lower = [float(b) for b in s.lower]
        z = float(s.z)
    except OverflowError:
        raise HypergeometricError("a parameter or z is past the float range of the numeric path") from None
    total = 0.0
    comp = 0.0
    term = 1.0
    small_streak = 0
    for n in range(DEFAULT_MAX_TERMS if cls.index is None else cls.index + 1):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if not math.isfinite(total):
            raise HypergeometricError(f"the sum of {s} is past the float range")
        if n == cls.index:
            break  # a lower pole AT the index would make t_{N+1} a 0/0
        num = math.prod(a + n for a in upper)
        den = math.prod(b + n for b in lower) * (n + 1)
        if den == 0:  # a lower parameter whose float rounds onto a pole
            raise HypergeometricError("a parameter or z is past the float range of the numeric path")
        term *= num / den * z
        if cls.index is None:
            if abs(term) < tol * max(1.0, abs(total)):
                small_streak += 1
                if small_streak >= 3:
                    break
            else:
                small_streak = 0
    else:
        raise HypergeometricError(f"no convergence after {DEFAULT_MAX_TERMS} terms of {s} at tolerance {tol}")
    return total

