"""Recognize a hypergeometric term, given by its consecutive-term ratio
t(n+1)/t(n) = P(n)/Q(n), as prefactor * pFq in canonical form.

P and Q are integer-coefficient polynomials.  Recognition splits each of
them once into its rational roots with multiplicities (rational-root
theorem with exact integer deflation) and a cofactor without rational
roots.  Roots shared by P and Q cancel as a multiset difference; the ratio
is accepted only when the two cofactors are proportional, so that they
cancel too.  The remaining roots of P give the upper parameters, those of
Q the lower ones, and z is lead(P)/lead(Q).  One root of Q at n = -1 plays
the role of the n! factor of the pFq normal form; if it is missing, an
(n+1) factor is installed on both sides, which adds the upper parameter 1.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import HypergeometricError
from .hyper_series import HypSeries, PrefactoredSeries, check_budget
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
    leading coefficient is nonzero.
    """

    __slots__ = ("coefficients",)
    coefficients: tuple[int, ...]

    def __init__(self, coefficients: Iterable[int]) -> None:
        coeffs = [int(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @classmethod
    def from_linear_factors(cls, factors: Sequence[tuple[int, int]], scale: int = 1) -> "IntPolynomial":
        """Product of factors (c0 + c1*n) times an integer scale."""
        poly = cls([scale])
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

    def __call__(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntPolynomial(out)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            term = "1" if (abs(c) == 1 and i > 0) else str(abs(c))
            if i == 1:
                term = f"{term}*n" if term != "1" else "n"
            elif i > 1:
                term = f"{term}*n^{i}" if term != "1" else f"n^{i}"
            parts.append(("-" if c < 0 else "+") + term)
        joined = " ".join(parts)
        return joined.lstrip("+").strip()


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


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


def _split(p: IntPolynomial) -> tuple[Counter, list[int]]:
    """Rational roots of p with their multiplicities, and the cofactor of p
    (ascending integer coefficients) that has no rational roots.

    Candidates come from the rational-root theorem (divisors of the trailing
    nonzero coefficient over divisors of the leading one, both signs); each
    confirmed root is divided out until it no longer divides.  The divisor
    scan (sqrt |c| steps per coefficient c) and then the candidate count are
    each refused with :class:`TermBudgetExceeded` when over the term budget.
    """
    if p.is_zero:
        raise ValueError("rational roots of the zero polynomial")
    coeffs = list(p.coefficients)
    roots: Counter = Counter()
    while coeffs[0] == 0:
        coeffs.pop(0)
        roots[Fraction(0)] += 1
    if len(coeffs) == 1:
        return roots, coeffs
    # candidates once, from p without its zero roots: dividing out roots
    # only shrinks the set
    check_budget(math.isqrt(abs(coeffs[0])) + math.isqrt(abs(coeffs[-1])), "divisor scan length")
    trailing, leading = _divisors(coeffs[0]), _divisors(coeffs[-1])
    check_budget(2 * len(trailing) * len(leading), "root candidate count")
    candidates = {Fraction(sign * c, l) for c in trailing for l in leading for sign in (1, -1)}
    for root in sorted(candidates):
        while len(coeffs) > 1 and (quotient := _deflate(coeffs, root)) is not None:
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
        object.__setattr__(self, "t0", Fraction(t0))


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
    rational roots.  Shared roots cancel as a multiset difference, so
    coincidental parameter collisions never survive into the output: it is
    the ratio, not any particular parameter list, that defines the term.
    The ratio is accepted only when the two cofactors are proportional, so
    that they cancel too.  Parameters are reported sorted ascending.
    """
    if r.num.is_zero:
        raise HypergeometricError("zero ratio numerator: the term dies at n = 0 and has no pFq shape")
    p_roots, p_rest = _split(r.num)
    q_roots, q_rest = _split(r.den)
    if not _proportional(p_rest, q_rest):
        # name a side that keeps a cofactor, with the shared linear factors divided out
        side, poly = ("numerator", r.num) if len(p_rest) > 1 else ("denominator", r.den)
        coeffs = list(poly.coefficients)
        for root in (p_roots & q_roots).elements():
            coeffs = _deflate(coeffs, root)
        raise HypergeometricError(f"{side} {IntPolynomial(coeffs)} has an irreducible nonlinear cofactor")
    upper_roots, lower_roots = p_roots - q_roots, q_roots - p_roots

    # poles on the summation path: the ORIGINAL denominator must not vanish
    # at any integer 0 <= n < termination index (anywhere, if the reduced
    # term never terminates); this also rejects shared integer roots of
    # P and Q, where the given ratio itself is a 0/0 and not a valid term
    n_term = min((int(x) for x in upper_roots if x.denominator == 1 and x >= 0), default=None)
    for root in sorted(q_roots):
        if root.denominator == 1 and root >= 0 and (n_term is None or root < n_term):
            raise HypergeometricError(f"denominator vanishes at n = {root}")

    upper = [-root for root in upper_roots.elements()]
    lower = [-root for root in lower_roots.elements()]
    if Fraction(1) in lower:
        lower.remove(Fraction(1))  # the n! factor of the normal form
    else:
        upper.append(Fraction(1))  # install (n+1) on both sides
    z = Fraction(r.num.leading, r.den.leading)
    series = HypSeries(sorted(upper), sorted(lower), z)
    return PrefactoredSeries(prefactor=r.t0, series=series)
