"""The algebra behind lhs_sum, with k symbolic: for each fixed m, the binomial
sum's terms over the common denominator (k+1)_{2m+1} = (k+2m+1)!/k! have
polynomial numerators, and their sum is 1 as a rational function of k.  And
the term ratio that sesma_ratio and rewrite read, with k, m and n symbolic."""

import pytest

from hypcert.sesma_identity import _ratio_factors

sympy = pytest.importorskip("sympy")

k = sympy.Symbol("k")


def term(m: int, n: int):
    """Term n of the sum, with C(k+n, m) = (k+n-m+1)_m / m! and
    1/C(k+m+n, m+n) = (m+n)! / (k+1)_{m+n}."""
    binom = sympy.rf(k + n - m + 1, m) / sympy.factorial(m)
    inverse_binom = sympy.factorial(m + n) / sympy.rf(k + 1, m + n)
    return sympy.binomial(m, n) * binom * inverse_binom * (2 * n + k + 1) / (m + n + k + 1)


def polynomial_in_k(expr) -> sympy.Poly:
    num, den = sympy.fraction(sympy.cancel(expr))
    assert den.free_symbols == set(), f"{expr} is not a polynomial in k"
    return sympy.Poly(num / den, k)


@pytest.mark.parametrize("m", range(7))
def test_cleared_sum_is_a_polynomial_of_degree_2m_plus_1(m):
    common = sympy.rf(k + 1, 2 * m + 1)
    terms = [term(m, n) for n in range(m + 1)]
    assert polynomial_in_k(common * sum(terms)).degree() == 2 * m + 1
    # term n alone clears to degree 2m+1-n: C(k+n, m) gives m, the weight 1,
    # and (k+1)_{2m+1} / ((k+1)_{m+n} (k+m+n+1)) = (k+m+n+2)_{m-n} gives m-n
    assert [polynomial_in_k(common * t).degree() for t in terms] == [2 * m + 1 - n for n in range(m + 1)]
    assert sympy.cancel(sum(terms) - 1) == 0


@pytest.mark.parametrize("m", range(7))
def test_first_term_closes_with_the_cancelled_factor(m):
    # term 0 is w_0 = k+1 times T_0 / (k+1)_{2m+1} = perm(k, m) / perm(k+m+1, m+1)
    closing = sympy.rf(k - m + 1, m) / sympy.rf(k + 1, m + 1)
    assert sympy.cancel(term(m, 0) - (k + 1) * closing) == 0


def test_ratio_factors_are_the_term_ratio_for_all_k_m_n():
    m, n = sympy.symbols("m n")

    def binomial_term(j):
        weight = (2 * j + k + 1) / (m + j + k + 1)
        return sympy.binomial(m, j) * sympy.binomial(k + j, m) / sympy.binomial(k + m + j, m + j) * weight

    upper, lower = _ratio_factors(k, m)
    ratio = sympy.prod(c0 + c1 * n for c0, c1 in upper) / sympy.prod(c0 + c1 * n for c0, c1 in lower)
    assert sympy.cancel(sympy.combsimp(binomial_term(n + 1) / binomial_term(n)) - ratio) == 0
    # each factor is affine in (k, m, n), so P and Q have total degree 4
    assert [sympy.Poly(c0 + c1 * n, k, m, n).total_degree() for c0, c1 in upper + lower] == [1] * 8
