"""Detection and closed-form evaluation of the specially-poised 4F3(-1)
summed by Whipple's second theorem:

    4F3(a, 1+a/2, b, c; a/2, a-b+1, a-c+1; -1)
        = Gamma(a-b+1) Gamma(a-c+1) / (Gamma(a+1) Gamma(a-b-c+1))

Both closed forms hold only where :func:`classify` finds the matched
series terminating at the shorter of -b and -c or, when neither is a
nonpositive integer, convergent; that one rule decides the domain of each.
Terminating instances evaluate exactly as a Pochhammer ratio.  The numeric
form goes through log-gamma and further needs all four Gamma arguments
positive and a finite float result.  Anything else is refused rather than
analytically continued.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import HypergeometricError
from .hyper_series import (
    Classification, HypSeries, SeriesKind, as_fraction, check_budget, classify, min_termination_index
)
from .record import Record

__all__ = ["WhippleMatch", "match_whipple", "rhs_exact_terminating", "log_gamma", "rhs_numeric"]


class WhippleMatch(Record):
    """Parameters (a, b, c) of a matched Whipple-shaped 4F3 at z = -1."""

    __slots__ = ("a", "b", "c")
    a: Fraction
    b: Fraction
    c: Fraction

    def __init__(self, a: Fraction, b: Fraction, c: Fraction) -> None:
        object.__setattr__(self, "a", as_fraction(a))
        object.__setattr__(self, "b", as_fraction(b))
        object.__setattr__(self, "c", as_fraction(c))


def _plus_one_minus(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a - b + 1 for reduced (numerator, denominator) pairs, reduced."""
    (p, q), (r, t) = a, b
    num, den = p * t - r * q + q * t, q * t
    g = math.gcd(num, den)
    return num // g, den // g


def match_whipple(s: HypSeries) -> WhippleMatch | None:
    """Try to present the series as 4F3(a, 1+a/2, b, c; a/2, a-b+1, a-c+1; -1).

    Parameters are compared as reduced (numerator, denominator) int pairs,
    so every multiset test is tuple equality.  Every upper parameter is
    tried as the candidate a, largest first; the companion 1+a/2 must also
    sit in the upper list and a/2 in the lower list (multiset removal, so
    repeated values are honored).  For a fixed a the two remaining upper
    parameters are b <= c, so the first full match is the one with the
    largest a, then the smallest b; the closed-form value itself does not
    depend on the choice.
    """
    if len(s.upper) != 4 or len(s.lower) != 3 or s.z != -1:
        return None
    upper = sorted(s.upper, reverse=True)
    pairs = [(x.numerator, x.denominator) for x in upper]
    lower = [(x.numerator, x.denominator) for x in s.lower]
    for i, (p, q) in enumerate(pairs):
        half = (p // 2, q) if p % 2 == 0 else (p, 2 * q)
        companion = (half[0] + half[1], half[1])
        rest = pairs[:i] + pairs[i + 1 :]
        if half not in lower or companion not in rest:
            continue
        rest.remove(companion)
        c, b = rest  # still in descending order
        rest_lower = list(lower)
        rest_lower.remove(half)
        if sorted([_plus_one_minus(pairs[i], b), _plus_one_minus(pairs[i], c)]) == sorted(rest_lower):
            return WhippleMatch(upper[i], Fraction(*b), Fraction(*c))
    return None


def _check_regime(m: WhippleMatch, shift: int | None) -> None:
    """Refuse a match whose series does not :func:`classify` as terminating
    at ``shift`` or, for a ``shift`` of None, as convergent."""
    need = Classification(SeriesKind.CONVERGENT if shift is None else SeriesKind.TERMINATING, shift)
    cls = classify(HypSeries((m.a, 1 + m.a / 2, m.b, m.c), (m.a / 2, m.a - m.b + 1, m.a - m.c + 1), -1))
    if cls != need:
        raise HypergeometricError(f"the series is {cls}, the closed form needs {need}")


def rhs_exact_terminating(m: WhippleMatch) -> Fraction:
    """Closed form for a terminating match, reduced to a Pochhammer ratio.

    The series must stop at M, the shorter of -b and -c; the Gamma ratio,
    symmetric in b and c, is (a+1)_M / (a-c+1)_M at b = -M.  The series must
    :func:`classify` as terminating at M; it is asked only for an a <= 0, which
    can stop the series sooner or put a pole at a/2, or for a zero (a-c+1)_M,
    the one other pole before M (a-b+1 = a+M+1 > 0).  An M over the term budget raises :class:`TermBudgetExceeded` first.
    """
    shift = min_termination_index((m.b, m.c))
    if shift is None:
        raise HypergeometricError(f"neither b = {m.b} nor c = {m.c} is a nonpositive integer")
    check_budget(shift, "Pochhammer length")
    c = m.c if m.b == -shift else m.b
    # (a+1)_M and (a-c+1)_M from reduced int pairs, as one integer ratio reduced once
    a = m.a.as_integer_ratio()
    (p, q), (r, t) = _plus_one_minus(a, (0, 1)), _plus_one_minus(a, c.as_integer_ratio())
    num, den = math.prod(range(p, p + shift * q, q)), math.prod(range(r, r + shift * t, t))
    if m.a <= 0 or den == 0:
        _check_regime(m, shift)
    return Fraction(num * t**shift, den * q**shift)


# Lanczos approximation with g = 607/128 and 15 coefficients (the classic
# double-precision set); relative error of the rational sum is below 1e-15
# across the positive axis, comfortably inside the 1e-12 contract.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LN_SQRT_2PI = 0.9189385332046727
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for finite x > 0.

    Arguments below 0.5 are lifted through ln Gamma(x) = ln Gamma(x+1) - ln x
    so the Lanczos sum only ever runs on its well-conditioned range.
    """
    if not 0 < x < math.inf:
        raise ValueError(f"log_gamma requires a positive finite argument, got {x}")
    if x < 0.5:
        return log_gamma(x + 1.0) - math.log(x)
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def rhs_numeric(m: WhippleMatch) -> float:
    """Gamma-ratio closed form evaluated in floating point.

    All four Gamma arguments must be strictly positive, and the series must
    stop at the shorter of -b and -c or, when neither is a nonpositive
    integer, converge; sign bookkeeping via the reflection formula is
    deliberately out of scope.  A ratio past the float range is refused.
    """
    args = (m.a - m.b + 1, m.a - m.c + 1, m.a + 1, m.a - m.b - m.c + 1)
    if any(arg <= 0 for arg in args):
        raise HypergeometricError(f"nonpositive Gamma argument among {tuple(str(a) for a in args)}")
    _check_regime(m, min_termination_index((m.b, m.c)))
    try:
        num1, num2, den1, den2 = (float(arg) for arg in args)
    except OverflowError:
        raise HypergeometricError("a Gamma argument is past the float range") from None
    if not min(num1, num2, den1, den2) > 0:  # a positive argument whose float is 0.0
        raise HypergeometricError("a Gamma argument is past the float range")
    log_ratio = log_gamma(num1) + log_gamma(num2) - log_gamma(den1) - log_gamma(den2)
    if not log_ratio < _LOG_FLOAT_MAX:  # also a NaN from inf - inf
        raise HypergeometricError("the Gamma ratio is past the float range")
    return math.exp(log_ratio)
