"""Recognize a hypergeometric term, given by its consecutive-term ratio
t(n+1)/t(n) = P(n)/Q(n), as prefactor * pFq in canonical form.

P and Q are integer-coefficient polynomials.  Recognition reduces P/Q to
lowest terms, splits both into rational linear factors (rational-root
theorem with exact deflation), reads upper parameters off the roots of P
and lower parameters off the roots of Q, and takes z from the leading
coefficients.  One root of Q at n = -1 plays the role of the n! factor of
the pFq normal form; if it is missing, an (n+1) factor is installed on
both sides, which adds the upper parameter 1.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import NotRationallyFactorable, PoleOnPath, TermBudgetExceeded
from .exact_arith import Rational
from .hyper_series import DEFAULT_MAX_TERMS, HypSeries, PrefactoredSeries
from .record import Record

__all__ = [
    "IntPolynomial",
    "TermRatio",
    "rational_roots",
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

    def __call__(self, x: Rational | int) -> Rational:
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


def _to_fraction_coeffs(p: IntPolynomial) -> list[Fraction]:
    return [Fraction(c) for c in p.coefficients]


def _poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    num = num[:]
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        quot[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _primitive_from_fractions(coeffs: Sequence[Fraction]) -> IntPolynomial:
    if not any(coeffs):
        return IntPolynomial(())
    denom_lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom_lcm) for c in coeffs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return IntPolynomial(ints)


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd with positive leading coefficient (Euclid over Q)."""
    fa, fb = _to_fraction_coeffs(a), _to_fraction_coeffs(b)
    while any(fb):
        _, fa = _poly_divmod(fa, fb)
        fa, fb = fb, fa
    if not any(fa):
        return IntPolynomial(())
    return _primitive_from_fractions(fa)


def poly_div_exact(num: IntPolynomial, den: IntPolynomial) -> IntPolynomial:
    """Exact quotient num/den; raises if the division leaves a remainder."""
    quot, rem = _poly_divmod(_to_fraction_coeffs(num), _to_fraction_coeffs(den))
    if any(rem):
        raise ValueError(f"({num}) is not divisible by ({den})")
    if any(c.denominator != 1 for c in quot):
        # can only happen when den has nontrivial content relative to num
        raise ValueError(f"quotient of ({num}) by ({den}) is not integral")
    return IntPolynomial(int(c) for c in quot)


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


def rational_roots(p: IntPolynomial) -> list[tuple[Rational, int]]:
    """All rational roots of p with multiplicities, sorted ascending.

    Candidates come from the rational-root theorem (divisors of the trailing
    nonzero coefficient over divisors of the leading one, both signs); each
    confirmed root is removed by exact synthetic division until it no longer
    divides, so the returned multiplicities are exact and the remaining
    cofactor has no rational roots.
    """
    if p.is_zero:
        raise ValueError("rational_roots of the zero polynomial")
    coeffs = [Fraction(c) for c in p.coefficients]

    roots: list[tuple[Fraction, int]] = []
    # roots at zero: trailing zero coefficients
    zero_mult = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        zero_mult += 1
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    if len(coeffs) <= 1:
        return sorted(roots)

    # candidate set from the original (deflations only shrink the root set)
    const_divs = _divisors(int(coeffs[0]))
    lead_divs = _divisors(int(coeffs[-1]))
    candidates = sorted(
        {sign * Fraction(c, l) for c in const_divs for l in lead_divs for sign in (1, -1)}
    )

    def value_at(cs: list[Fraction], x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def deflate(cs: list[Fraction], root: Fraction) -> list[Fraction]:
        # synthetic division by (n - root); exact, remainder known to be 0
        out = [Fraction(0)] * (len(cs) - 1)
        carry = Fraction(0)
        for i in range(len(cs) - 1, 0, -1):
            carry = cs[i] + carry * root
            out[i - 1] = carry
        return out

    for cand in candidates:
        mult = 0
        while len(coeffs) > 1 and value_at(coeffs, cand) == 0:
            coeffs = deflate(coeffs, cand)
            mult += 1
        if mult:
            roots.append((cand, mult))
    return sorted(roots)


class TermRatio(Record):
    """A hypergeometric term: t(n+1)/t(n) = num(n)/den(n), starting at t0."""

    __slots__ = ("num", "den", "t0")
    num: IntPolynomial
    den: IntPolynomial
    t0: Fraction

    def __init__(self, num: IntPolynomial, den: IntPolynomial, t0) -> None:
        if den.is_zero:
            raise ValueError("term-ratio denominator must not be the zero polynomial")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "t0", Fraction(t0))


def term_at(r: TermRatio, n: int) -> Rational:
    """t_n = t0 * prod_{j<n} num(j)/den(j), evaluated exactly.

    An index n above ``DEFAULT_MAX_TERMS`` is refused with
    :class:`TermBudgetExceeded` before any factor is computed.
    """
    if n < 0:
        raise ValueError(f"term index must be nonnegative, got {n}")
    if n > DEFAULT_MAX_TERMS:
        raise TermBudgetExceeded(f"term index {n} is over the budget of {DEFAULT_MAX_TERMS} steps")
    value = r.t0
    for j in range(n):
        q = r.den(j)
        if q == 0:
            raise PoleOnPath(f"denominator vanishes at n = {j}")
        value = value * r.num(j) / q
    return value


def _termination_index(num_roots: list[tuple[Fraction, int]]) -> int | None:
    hits = [int(root) for root, _ in num_roots if root.denominator == 1 and root >= 0]
    return min(hits) if hits else None


def _nonneg_integer_roots(p: IntPolynomial) -> list[int]:
    """Nonnegative integer roots only; works even when p does not split."""
    coeffs = list(p.coefficients)
    roots = []
    if coeffs and coeffs[0] == 0:
        roots.append(0)
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
    if len(coeffs) > 1:
        for candidate in _divisors(coeffs[0]):
            if p(candidate) == 0:
                roots.append(candidate)
    return sorted(roots)


def recognize(r: TermRatio) -> PrefactoredSeries:
    """Factor the ratio into canonical prefactor * pFq form.

    The ratio is reduced to lowest terms first, so coincidental parameter
    collisions never survive into the output: it is the ratio, not any
    particular parameter list, that defines the term.  Parameters are
    reported sorted ascending.
    """
    if r.num.is_zero:
        raise ValueError("zero ratio numerator: the term dies at n = 0 and has no pFq shape")
    g = poly_gcd(r.num, r.den)
    if g.degree > 0:
        p_red = poly_div_exact(r.num, g)
        q_red = poly_div_exact(r.den, g)
    else:
        p_red, q_red = r.num, r.den

    p_roots = rational_roots(p_red) if p_red.degree > 0 else []
    q_roots = rational_roots(q_red) if q_red.degree > 0 else []
    if sum(m for _, m in p_roots) != p_red.degree:
        raise NotRationallyFactorable(f"numerator {p_red} has an irreducible nonlinear cofactor")
    if sum(m for _, m in q_roots) != q_red.degree:
        raise NotRationallyFactorable(f"denominator {q_red} has an irreducible nonlinear cofactor")

    # poles on the summation path: the ORIGINAL denominator must not vanish
    # at any integer 0 <= n < termination index (anywhere, if the reduced
    # term never terminates); this also rejects shared integer roots of
    # P and Q, where the given ratio itself is a 0/0 and not a valid term
    n_term = _termination_index(p_roots)
    for root in _nonneg_integer_roots(r.den):
        if n_term is None or root < n_term:
            raise PoleOnPath(f"denominator vanishes at n = {root}")

    upper = [-root for root, mult in p_roots for _ in range(mult)]
    lower = [-root for root, mult in q_roots for _ in range(mult)]
    if Fraction(1) in lower:
        lower.remove(Fraction(1))  # the n! factor of the normal form
    else:
        upper.append(Fraction(1))  # install (n+1) on both sides
    z = Fraction(p_red.leading, q_red.leading)
    series = HypSeries(sorted(upper), sorted(lower), z)
    return PrefactoredSeries(prefactor=r.t0, series=series)
