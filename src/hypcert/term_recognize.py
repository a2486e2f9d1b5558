"""Recognize a hypergeometric term, given by its consecutive-term ratio
t(n+1)/t(n) = P(n)/Q(n), as prefactor * pFq in canonical form.

P and Q are integer-coefficient polynomials.  Recognition splits each of
them once into its rational roots with multiplicities (integer-root
isolation on a monic transform, then exact integer deflation) and a
cofactor without rational roots.  Roots shared by P and Q cancel as a
multiset difference; the ratio is accepted only when the two cofactors are
proportional, so that they cancel too.  The remaining roots of P give the
upper parameters, those of Q the lower ones, and z is lead(P)/lead(Q).  One
root of Q at n = -1 plays the role of the n! factor of the pFq normal form;
if it is missing, an (n+1) factor is installed on both sides, which adds
the upper parameter 1.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import HypergeometricError
from .hyper_series import HypSeries, PrefactoredSeries, SeriesKind, as_fraction, check_budget, classify
from .record import Record

__all__ = [
    "IntPolynomial",
    "TermRatio",
    "recognize",
    "term_at",
]


class IntPolynomial(Record):
    """Dense integer polynomial; coefficients[i] is the coefficient of n**i.

    The zero polynomial is the empty coefficient tuple; otherwise the
    leading coefficient is nonzero.  A coefficient that is not an integer
    (``operator.index`` refuses it) is a ``ValueError``, never truncated.
    """

    __slots__ = ("coefficients",)
    coefficients: tuple[int, ...]

    def __init__(self, coefficients: Iterable[int]) -> None:
        coeffs = []
        for i, c in enumerate(coefficients):
            try:
                coeffs.append(operator.index(c))
            except TypeError:
                raise ValueError(f"polynomial coefficient {i} is not an integer: {c!r}") from None
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @classmethod
    def from_linear_factors(cls, factors: Sequence[tuple[int, int]]) -> "IntPolynomial":
        """Product of factors (c0 + c1*n); a constant c is the factor (c, 0)."""
        poly = cls([1])
        for c0, c1 in factors:
            poly = poly * cls([c0, c1])
        return poly

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def leading(self) -> int:
        if self.is_zero:
            return 0
        return self.coefficients[-1]

    def __call__(self, x: Fraction | int) -> Fraction | int:
        """p(x) by Horner's rule: an int for an int x, a Fraction for a Fraction."""
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntPolynomial(out)


def _deflate(coeffs: list[int], root: Fraction) -> list[int] | None:
    """Quotient of coeffs by the primitive factor (d*n - c) of root = c/d,
    or None when that factor does not divide.

    By Gauss's lemma the quotient of an integer polynomial by a primitive
    factor is integral, so a step that does not divide by d already rules
    the root out.
    """
    c, d = root.numerator, root.denominator
    quotient = [0] * (len(coeffs) - 1)
    carry = 0
    for i in range(len(coeffs) - 1, 0, -1):
        carry, rem = divmod(coeffs[i] + c * carry, d)
        if rem:
            return None
        quotient[i - 1] = carry
    return quotient if coeffs[0] + c * carry == 0 else None


def _root_floors(f: IntPolynomial, bound: int) -> set[int]:
    """Integers that include floor(r) for every real root r of f, given
    that every root lies in (-bound, bound).

    The floors of the real roots of f' (found the same way, one degree
    down) cut [-bound, bound] into unit pieces [c, c+1] around the critical
    points, whose floors c are kept as they are, and integer pieces between
    them, on each of which f is monotone and so has at most one root.  A
    piece whose ends do not have opposite signs or a zero has no root;
    otherwise an integer sign bisection finds its floor.
    """
    if f.degree < 1:
        return set()
    critical = sorted(_root_floors(IntPolynomial([i * c for i, c in enumerate(f.coefficients)][1:]), bound))
    floors = set(critical)
    for lo, hi in zip([-bound] + [c + 1 for c in critical], critical + [bound]):
        f_lo, f_hi = f(lo), f(hi)
        if f_lo == 0:
            floors.add(lo)
            continue
        if f_hi != 0 and (f_hi > 0) == (f_lo > 0):
            continue
        # the root r lies in (lo, hi]: f(lo) keeps its sign, f(hi) does not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if (f_mid := f(mid)) and (f_mid > 0) == (f_lo > 0):
                lo = mid
            else:
                hi, f_hi = mid, f_mid
        floors.add(hi if f_hi == 0 else lo)
    return floors


def _split(p: IntPolynomial) -> tuple[Counter, list[int]]:
    """Rational roots of p with their multiplicities, and the cofactor of p
    (ascending integer coefficients) that has no rational roots.

    Every rational root c/d of the primitive part of p, of degree D and
    leading coefficient L, has d | L, so y = L*x is an integer root of the
    monic q(y) = L**(D-1) * p(y/L).  Each coefficient c_i * L**(D-1-i) of q
    below its leading 1 is under 2**bits, with bits read off the bit lengths
    of c_i and L alone, so |y| < 1 + max |q_i| <= B = 2**bits (Cauchy's
    bound).  :func:`_root_floors` finds a superset of these y in about
    D**2 * log2(B) evaluations, refused with :class:`TermBudgetExceeded`
    when over the term budget before q is built.  Exact division alone
    decides each y: y/L is divided out of p until it no longer divides.
    """
    if p.is_zero:
        raise ValueError("rational roots of the zero polynomial")
    roots: Counter = Counter()
    zeros = next(i for i, c in enumerate(p.coefficients) if c)
    if zeros:
        roots[Fraction(0)] = zeros
    coeffs = list(p.coefficients[zeros:])
    degree = len(coeffs) - 1
    content = math.gcd(*coeffs)
    primitive = [c // content for c in coeffs]
    lead = primitive[-1]
    lead_bits = (abs(lead) - 1).bit_length()  # |lead| <= 2**lead_bits; 0 for lead = ±1
    bits = max((c.bit_length() + (degree - 1 - i) * lead_bits for i, c in enumerate(primitive[:-1]) if c), default=0)
    bound = 1 << bits
    check_budget(degree**2 * bound.bit_length(), "root isolation steps")
    q = IntPolynomial([c * lead ** (degree - 1 - i) for i, c in enumerate(primitive[:-1])] + [1])
    for y in _root_floors(q, bound):
        root = Fraction(y, lead)
        while (quotient := _deflate(coeffs, root)) is not None:
            coeffs = quotient
            roots[root] += 1
    return roots, coeffs


class TermRatio(Record):
    """A hypergeometric term: t(n+1)/t(n) = num(n)/den(n), starting at t0."""

    __slots__ = ("num", "den", "t0")
    num: IntPolynomial
    den: IntPolynomial
    t0: Fraction

    def __init__(self, num: IntPolynomial, den: IntPolynomial, t0) -> None:
        if den.is_zero:
            raise HypergeometricError("term-ratio denominator must not be the zero polynomial")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "t0", as_fraction(t0))


def term_at(r: TermRatio, n: int) -> Fraction:
    """t_n = t0 * prod_{j<n} num(j)/den(j), evaluated exactly.

    An index n over the term budget is refused with
    :class:`TermBudgetExceeded` before any factor is computed.
    """
    if n < 0:
        raise ValueError(f"term index must be nonnegative, got {n}")
    check_budget(n, "term index")
    value = r.t0
    for j in range(n):
        q = r.den(j)
        if q == 0:
            raise HypergeometricError(f"denominator vanishes at n = {j}")
        value = value * r.num(j) / q
    return value


def _proportional(a: list[int], b: list[int]) -> bool:
    return len(a) == len(b) and all(x * b[-1] == y * a[-1] for x, y in zip(a, b))


def recognize(r: TermRatio) -> PrefactoredSeries:
    """Factor the ratio into canonical prefactor * pFq form.

    P and Q are split once each into rational roots and a cofactor without
    rational roots.  Shared roots cancel as a multiset difference: it is the
    ratio, not any parameter list, that defines the term.  The cofactors
    must be proportional; else the refusal names the longer one (the
    numerator's on a tie), which cannot divide the other side.  A pole before
    the term stops is refused as :func:`classify` finds it among the roots of
    the given Q, so a root shared with P, a 0/0, is one too.  Parameters are
    reported sorted ascending.
    """
    if r.num.is_zero:
        raise HypergeometricError("zero ratio numerator: the term dies at n = 0 and has no pFq shape")
    p_roots, p_rest = _split(r.num)
    q_roots, q_rest = _split(r.den)
    if not _proportional(p_rest, q_rest):
        side, rest = ("denominator", q_rest) if len(q_rest) > len(p_rest) else ("numerator", p_rest)
        raise HypergeometricError(f"{side} factor {','.join(map(str, rest))} has no rational root and does not cancel")
    upper = [-root for root in (p_roots - q_roots).elements()]
    lower = [-root for root in (q_roots - p_roots).elements()]

    z = Fraction(r.num.leading, r.den.leading)
    cls = classify(HypSeries(upper, [-root for root in q_roots], z))
    if cls.kind is SeriesKind.ILL_POSED:
        raise HypergeometricError(f"denominator vanishes at n = {cls.index}")

    if Fraction(1) in lower:
        lower.remove(Fraction(1))  # the n! factor of the normal form
    else:
        upper.append(Fraction(1))  # install (n+1) on both sides
    series = HypSeries(sorted(upper), sorted(lower), z)
    return PrefactoredSeries(prefactor=r.t0, series=series)
