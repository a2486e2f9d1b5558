"""Certification of the binomial sum identity

    sum_{n=0}^{m} C(m,n) C(k+n,m) / C(k+m+n, m+n) * (2n+k+1)/(m+n+k+1) = 1

for integers k >= m >= 0, by three independent exact pathways:

  1. direct rational summation of the binomial terms,
  2. the closed-form prefactor times the exact sum of the equivalent
     4F3(k+1, 1+(k+1)/2, -m, m+1; (k+1)/2, k+m+2, k-m+1; -1),
  3. the same prefactor times the terminating closed form of Whipple's
     second theorem applied to that 4F3.

Every pathway must produce exactly 1; a report records all three values.
"""

from __future__ import annotations

import math
import operator
import os
from fractions import Fraction

from .errors import HypergeometricError
from .hyper_series import HypSeries, PrefactoredSeries, check_budget, eval_exact
from .record import Record
from .term_recognize import IntPolynomial, TermRatio
from .whipple import match_whipple, rhs_exact_terminating

__all__ = [
    "IdentityReport",
    "lhs_term",
    "lhs_sum",
    "sesma_ratio",
    "rewrite",
    "verify",
    "sweep",
]


class IdentityReport(Record):
    """Per-(k, m) record of the three evaluation pathways.

    Each pathway slot holds the exact value, or the text
    ``error: <message or type name>`` if that pathway raised.
    ``all_equal_one`` is true exactly when all three values are 1.
    """

    __slots__ = ("k", "m", "direct", "via_series", "via_whipple")
    k: int
    m: int
    direct: Fraction | str
    via_series: Fraction | str
    via_whipple: Fraction | str

    def __init__(
        self,
        k: int,
        m: int,
        direct: Fraction | str,
        via_series: Fraction | str,
        via_whipple: Fraction | str,
    ) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "direct", direct)
        object.__setattr__(self, "via_series", via_series)
        object.__setattr__(self, "via_whipple", via_whipple)

    @property
    def all_equal_one(self) -> bool:
        return self.direct == self.via_series == self.via_whipple == 1


def _check_integers(**named) -> None:
    try:
        list(map(operator.index, named.values()))
    except TypeError:
        kind = "integers" if len(named) > 1 else "an integer"
        got = ", ".join(f"{name} = {value!r}" for name, value in named.items())
        raise ValueError(f"{' and '.join(named)} must be {kind}, got {got}") from None


def _check_km(k: int, m: int) -> None:
    _check_integers(k=k, m=m)
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if k < m:
        raise ValueError(f"the identity requires k >= m, got k = {k}, m = {m}")
    # every pathway takes m steps on integers that grow with k; refuse
    # either over the budget before the first step
    check_budget(m, "m")
    check_budget(k, "k")


def lhs_term(k: int, m: int, n: int) -> Fraction:
    """Term n of the binomial sum, for k >= m >= n >= 0."""
    _check_km(k, m)
    _check_integers(n=n)
    if n < 0 or n > m:
        raise ValueError(f"term index must satisfy 0 <= n <= m, got n = {n}, m = {m}")
    num = math.comb(m, n) * math.comb(k + n, m) * (2 * n + k + 1)
    den = math.comb(k + m + n, m + n) * (m + n + k + 1)
    return Fraction(num, den)


def lhs_sum(k: int, m: int) -> Fraction:
    """Exact value of the full binomial sum over n = 0..m.

    The terms are put over the common denominator (k+2m+1)!/k!, where term n
    has the integer numerator T_n (2n+k+1) with

        T_n = C(m,n) C(k+n,m) (m+n)! (k+2m+1)! / (k+m+n+1)!.

    The recurrences of its three factors C(m,n), C(k+n,m) and the weight
    give T_{n+1} = T_n a_n / b_n with

        a_n = (m-n)(k+n+1)(m+n+1),  b_n = (n+1)(k-m+n+1)(k+m+n+2),

    so the sum is T_0 (w_0 + a_0/b_0 (w_1 + ... (w_m))) with w_n = 2n+k+1.
    It is taken in that nested form from the last term back, carrying the
    inner value as one integer fraction A/D: D <- b_n D, A <- w_n D + a_n A.
    The sum is A/D times T_0 / ((k+2m+1)!/k!) = perm(k, m) / perm(k+m+1, m+1).
    No step divides; nothing here uses the term ratio of
    :func:`sesma_ratio`.  Equal to sum(lhs_term(k, m, n)) by construction.
    """
    _check_km(k, m)
    acc_num, acc_den = 2 * m + k + 1, 1
    for n in range(m - 1, -1, -1):
        acc_den *= (n + 1) * (k - m + n + 1) * (k + m + n + 2)
        acc_num = (2 * n + k + 1) * acc_den + (m - n) * (k + n + 1) * (m + n + 1) * acc_num
    return Fraction(math.perm(k, m) * acc_num, math.perm(k + m + 1, m + 1) * acc_den)


def _ratio_factors(k: int, m: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Linear factors (c0, c1), each c0 + c1*n, of P and of Q, where
    lhs_term(k, m, n+1) / lhs_term(k, m, n) = P(n) / Q(n); Q's first factor,
    n + 1, is the n! of the pFq normal form."""
    return [(k + 1, 1), (k + 3, 2), (m, -1), (m + 1, 1)], [(1, 1), (k + 1, 2), (k + m + 2, 1), (k - m + 1, 1)]


def sesma_ratio(k: int, m: int) -> TermRatio:
    """Consecutive-term ratio of the binomial sum as integer polynomials: the
    products of :func:`_ratio_factors`, with initial term t0 = lhs_term(k, m, 0)."""
    t0 = lhs_term(k, m, 0)
    num, den = (IntPolynomial.from_linear_factors(factors) for factors in _ratio_factors(k, m))
    return TermRatio(num=num, den=den, t0=t0)


def rewrite(k: int, m: int) -> PrefactoredSeries:
    """The binomial sum in hypergeometric normal form: prefactor times
    4F3(k+1, 1+(k+1)/2, -m, m+1; (k+1)/2, k+m+2, k-m+1; -1).

    A factor c0 + c1*n = c1 (n + c0/c1) of :func:`_ratio_factors` is the
    parameter c0/c1, upper from P and lower from Q after its n + 1;
    z = prod c1(P) / prod c1(Q).  The prefactor is lhs_term(k, m, 0).
    """
    t0 = lhs_term(k, m, 0)
    upper, lower = _ratio_factors(k, m)
    series = HypSeries(
        upper=[Fraction(c0, c1) for c0, c1 in upper],
        lower=[Fraction(c0, c1) for c0, c1 in lower[1:]],
        z=Fraction(math.prod(c1 for _, c1 in upper), math.prod(c1 for _, c1 in lower)),
    )
    return PrefactoredSeries(prefactor=t0, series=series)


def _via_series(k: int, m: int, prefactored: PrefactoredSeries) -> Fraction:
    return prefactored.prefactor * eval_exact(prefactored.series)


def _via_whipple(k: int, m: int, prefactored: PrefactoredSeries) -> Fraction:
    match, expected = match_whipple(prefactored.series), (k + 1, -m, m + 1)
    if match is None or (match.a, match.b, match.c) != expected:
        raise HypergeometricError(f"matched {match}, expected (a, b, c) = {expected}")
    return prefactored.prefactor * rhs_exact_terminating(match)


def _value_or_error(step, *args):
    """step(*args), or the text ``error: <message or type name>`` if the step raised."""
    try:
        return step(*args)
    except Exception as exc:
        return f"error: {str(exc) or type(exc).__name__}"


def verify(k: int, m: int) -> IdentityReport:
    """Run all three pathways for one (k, m) and report their values.

    A pathway that raises reports ``error: <message>`` in its slot, and the
    others still run; if ``rewrite`` raises, its message fills both slots
    that depend on it.  An m or k over the term budget is refused with
    :class:`TermBudgetExceeded` before any pathway runs.
    """
    _check_km(k, m)
    direct = _value_or_error(lhs_sum, k, m)
    prefactored = _value_or_error(rewrite, k, m)
    if isinstance(prefactored, str):
        via = [prefactored] * 2
    else:
        via = [_value_or_error(pathway, k, m, prefactored) for pathway in (_via_series, _via_whipple)]
    return IdentityReport(k, m, direct, *via)


def _verify_row(k: int) -> list[IdentityReport]:
    return [verify(k, m) for m in range(k + 1)]


def sweep(k_max: int, jobs: int = 1) -> list[IdentityReport]:
    """verify(k, m) for every 0 <= m <= k <= k_max, in lexicographic order.

    With jobs > 1 each k-row is computed in a worker process, at most one
    worker per k-row and per CPU the process may run on; the output order
    (and hence any serialized form) is identical for every job count.
    More pairs than the term budget are refused with
    :class:`TermBudgetExceeded` before any is built.  A worker process that
    ends before the sweep finishes raises :class:`HypergeometricError`.
    """
    _check_integers(k_max=k_max, jobs=jobs)
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    check_budget((k_max + 1) * (k_max + 2) // 2, "pair count")
    # a fork pool starts all max_workers at once, so never ask for more
    # workers than there are k-rows or CPUs this process may run on
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    jobs = min(jobs, cpus, k_max + 1)
    if jobs <= 1:
        return [report for k in range(k_max + 1) for report in _verify_row(k)]
    # imported here: the pool machinery is a third of the CLI's start-up time
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return [report for row in pool.map(_verify_row, range(k_max + 1)) for report in row]
    except BrokenExecutor as exc:
        raise HypergeometricError("a worker process ended before the sweep finished") from exc
