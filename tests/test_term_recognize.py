import random
from fractions import Fraction

import pytest

from hypcert import term_recognize
from hypcert.errors import NotRationallyFactorable, PoleOnPath, TermBudgetExceeded
from hypcert.exact_arith import factorial, pochhammer
from hypcert.term_recognize import (
    IntPolynomial,
    TermRatio,
    poly_gcd,
    rational_roots,
    recognize,
    term_at,
)

# P, Q for the identity family at k=5, m=1:
# P = 2(1-n)(n+6)(n+2)(n+4), Q = 2(n+1)(n+5)(n+3)(n+8)
P_K5 = IntPolynomial.from_linear_factors([(1, -1), (6, 1), (2, 1), (4, 1)], scale=2)
Q_K5 = IntPolynomial.from_linear_factors([(1, 1), (5, 1), (3, 1), (8, 1)], scale=2)
RATIO_K5 = TermRatio(num=P_K5, den=Q_K5, t0=Fraction(5, 7))


class TestIntPolynomial:
    def test_trailing_zero_stripping(self):
        assert IntPolynomial([1, 2, 0, 0]).coefficients == (1, 2)
        assert IntPolynomial([0, 0]).is_zero

    def test_evaluation(self):
        p = IntPolynomial([-2, 1, 1])  # (n+2)(n-1)
        assert p(1) == 0
        assert p(-2) == 0
        assert p(Fraction(1, 2)) == Fraction(-5, 4)

    def test_from_linear_factors(self):
        p = IntPolynomial.from_linear_factors([(2, 1), (-1, 1)])  # (n+2)(n-1)
        assert p.coefficients == (-2, 1, 1)

    def test_gcd(self):
        a = IntPolynomial.from_linear_factors([(1, 1), (2, 1)])  # (n+1)(n+2)
        b = IntPolynomial.from_linear_factors([(1, 1), (3, 1)], scale=4)  # 4(n+1)(n+3)
        assert poly_gcd(a, b).coefficients == (1, 1)


class TestRationalRoots:
    def test_expand_and_check_oracle(self):
        # expanded form of (n+2)(n-1)
        p = IntPolynomial([-2, 1, 1])
        roots = rational_roots(p)
        assert roots == [(Fraction(-2), 1), (Fraction(1), 1)]
        for root, _ in roots:
            assert p(root) == 0

    def test_no_rational_roots(self):
        assert rational_roots(IntPolynomial([1, 0, 1])) == []

    def test_linear(self):
        assert rational_roots(IntPolynomial([3, 2])) == [(Fraction(-3, 2), 1)]

    def test_multiplicities(self):
        # (n-1)^2 (2n+3)
        p = IntPolynomial.from_linear_factors([(-1, 1), (-1, 1), (3, 2)])
        assert rational_roots(p) == [(Fraction(-3, 2), 1), (Fraction(1), 2)]

    def test_roots_at_zero(self):
        p = IntPolynomial([0, 0, 0, 5])  # 5n^3
        assert rational_roots(p) == [(Fraction(0), 3)]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            rational_roots(IntPolynomial([]))

    def test_deflation_leaves_no_rational_roots_behind(self):
        # (3n-1)(n+7) times the rootless n^2+n+1
        p = (
            IntPolynomial.from_linear_factors([(-1, 3), (7, 1)])
            * IntPolynomial([1, 1, 1])
        )
        assert rational_roots(p) == [(Fraction(-7), 1), (Fraction(1, 3), 1)]


class TestTermAt:
    def test_initial_term(self):
        assert term_at(RATIO_K5, 0) == Fraction(5, 7)

    def test_one_step(self):
        assert term_at(RATIO_K5, 1) == Fraction(2, 7)

    def test_termination(self):
        assert term_at(RATIO_K5, 2) == 0
        assert term_at(RATIO_K5, 5) == 0

    def test_pole_raises(self):
        ratio = TermRatio(
            num=IntPolynomial([1, 1]), den=IntPolynomial([-2, 1]), t0=Fraction(1)
        )  # den vanishes at n = 2
        with pytest.raises(PoleOnPath):
            term_at(ratio, 3)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            term_at(RATIO_K5, -1)

    def test_index_up_to_the_budget(self, monkeypatch):
        monkeypatch.setattr(term_recognize, "DEFAULT_MAX_TERMS", 1)
        assert term_at(RATIO_K5, 1) == Fraction(2, 7)
        with pytest.raises(TermBudgetExceeded):
            term_at(RATIO_K5, 2)

    def test_huge_index_refused_at_once(self):
        with pytest.raises(TermBudgetExceeded):
            term_at(RATIO_K5, 10**12)


def series_term(prefactor: Fraction, s, n: int) -> Fraction:
    value = prefactor * Fraction(s.z) ** n / factorial(n)
    for a in s.upper:
        value *= pochhammer(a, n)
    for b in s.lower:
        value /= pochhammer(b, n)
    return value


class TestRecognize:
    def test_family_instance(self):
        got = recognize(RATIO_K5)
        assert got.prefactor == Fraction(5, 7)
        assert got.series.upper == (-1, 2, 4, 6)
        assert got.series.lower == (3, 5, 8)
        assert got.series.z == -1

    def test_single_linear_factor(self):
        ratio = TermRatio(
            num=IntPolynomial([2, -1]), den=IntPolynomial([1, 1]), t0=Fraction(1)
        )  # -(n-2) / (n+1)
        got = recognize(ratio)
        assert got.series.upper == (-2,)
        assert got.series.lower == ()
        assert got.series.z == -1

    def test_missing_factorial_factor_installed(self):
        ratio = TermRatio(
            num=IntPolynomial([1, 2, 1]),  # (n+1)^2
            den=IntPolynomial([2, 3, 1]),  # (n+2)(n+1)
            t0=Fraction(1),
        )
        got = recognize(ratio)
        assert got.series.upper == (1, 1)
        assert got.series.lower == (2,)
        assert got.series.z == 1

    def test_geometric_term(self):
        ratio = TermRatio(num=IntPolynomial([3]), den=IntPolynomial([4]), t0=Fraction(2))
        got = recognize(ratio)
        assert got.series.upper == (1,)
        assert got.series.lower == ()
        assert got.series.z == Fraction(3, 4)

    def test_scale_invariance(self):
        for scale in (7, -3):
            scaled = TermRatio(
                num=P_K5 * IntPolynomial([scale]),
                den=Q_K5 * IntPolynomial([scale]),
                t0=Fraction(5, 7),
            )
            assert recognize(scaled) == recognize(RATIO_K5)

    def test_irrational_roots_rejected(self):
        ratio = TermRatio(
            num=IntPolynomial([1, 0, 1]), den=IntPolynomial([1, 1]), t0=Fraction(1)
        )
        with pytest.raises(NotRationallyFactorable):
            recognize(ratio)

    def test_pole_on_path_rejected(self):
        # terminates at n = 3 but the denominator dies at n = 1 first
        ratio = TermRatio(
            num=IntPolynomial([3, -1]), den=IntPolynomial([-1, 1]), t0=Fraction(1)
        )
        with pytest.raises(PoleOnPath):
            recognize(ratio)

    def test_nonterminating_denominator_pole_rejected(self):
        ratio = TermRatio(
            num=IntPolynomial([1, 1]), den=IntPolynomial([-5, 1]), t0=Fraction(1)
        )
        with pytest.raises(PoleOnPath):
            recognize(ratio)

    def test_parameter_counts(self):
        # with the n! factor present in Q: |upper| = deg P, |lower| = deg Q - 1
        got = recognize(RATIO_K5)
        assert len(got.series.upper) == P_K5.degree
        assert len(got.series.lower) == Q_K5.degree - 1

    def test_round_trip_randomized(self):
        rng = random.Random(4242)
        for _ in range(100):
            ratio = self._random_factorable_ratio(rng)
            try:
                got = recognize(ratio)
            except PoleOnPath:
                continue
            horizon = self._termination_horizon(ratio)
            for n in range(horizon + 1):
                assert series_term(got.prefactor, got.series, n) == term_at(ratio, n)

    @staticmethod
    def _random_factorable_ratio(rng: random.Random) -> TermRatio:
        def factors(count):
            return [(rng.randint(-6, 6), rng.choice([1, 1, 1, 2, 3])) for _ in range(count)]

        num = IntPolynomial.from_linear_factors(
            factors(rng.randint(1, 3)), scale=rng.choice([-2, -1, 1, 2, 3])
        )
        den_factors = factors(rng.randint(0, 2)) + [(1, 1)]  # keep an (n+1) around
        den = IntPolynomial.from_linear_factors(den_factors, scale=rng.choice([1, 2]))
        t0 = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        return TermRatio(num=num, den=den, t0=t0)

    @staticmethod
    def _termination_horizon(ratio: TermRatio) -> int:
        hits = [
            int(r) for r, _ in rational_roots(ratio.num) if r.denominator == 1 and r >= 0
        ]
        return min(hits) if hits else 8
