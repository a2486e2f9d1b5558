"""Oracles for the tests: each value is built from Pochhammer products and
factorials alone, never from ``eval_exact`` or ``recognize``.  They use two
names of the package: the ``HypSeries`` record, and ``pochhammer``, which no
exact path of the package calls."""

import math
from fractions import Fraction

from hypcert.hyper_series import HypSeries, pochhammer


def series_term(prefactor, s: HypSeries, n: int) -> Fraction:
    """Term n of prefactor * pFq(s.upper; s.lower; s.z)."""
    value = prefactor * Fraction(s.z) ** n / math.factorial(n)
    for a in s.upper:
        value *= pochhammer(a, n)
    for b in s.lower:
        value /= pochhammer(b, n)
    return value


def whipple_series(a, b, c) -> HypSeries:
    """The 4F3 of Whipple's second theorem:
    4F3(a, 1 + a/2, b, c; a/2, a - b + 1, a - c + 1; -1)."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return HypSeries(
        upper=(a, 1 + a / 2, b, c),
        lower=(a / 2, a - b + 1, a - c + 1),
        z=Fraction(-1),
    )
