"""Exact integer and rational kernel: the rational type and Pochhammer symbols.

``Rational`` is ``fractions.Fraction``: arbitrary precision, always stored
with a positive denominator and gcd-reduced, so equality is structural.
Everything downstream (series evaluation, term recognition, certification)
computes in this type; floats only ever appear in the explicitly numeric
cross-check paths.

Pochhammer symbols are exact integer products, never Gamma-function
detours; the Gamma route lives in :mod:`hypcert.whipple` as the independent
floating-point side of the cross-checks.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction

__all__ = ["Rational", "pochhammer", "is_nonpositive_integer"]


def pochhammer(x: Rational | int, n: int) -> Rational:
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


def is_nonpositive_integer(x: Rational | int) -> bool:
    """True when the int or Fraction x is an integer <= 0 (the series
    termination/pole test)."""
    return x.denominator == 1 and x.numerator <= 0
