import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypcert import hyper_series
from hypcert.errors import HypergeometricError, TermBudgetExceeded
from hypcert.hyper_series import (
    Classification,
    HypSeries,
    SeriesKind,
    classify,
    eval_exact,
    eval_numeric,
    min_termination_index,
    parametric_excess,
    pochhammer,
)

from oracles import series_term


def series(upper, lower, z) -> HypSeries:
    return HypSeries(upper, lower, z)


def random_terminating(rng: random.Random) -> HypSeries:
    n_term = rng.randint(0, 12)
    p = rng.randint(1, 4)
    q = rng.randint(0, 3)
    upper = [Fraction(-n_term)]
    for _ in range(p - 1):
        upper.append(Fraction(rng.randint(-20, 20), rng.randint(1, 4)))
    lower = []
    while len(lower) < q:
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
        if b.denominator == 1 and b <= 0:
            continue  # keep the series well-posed
        lower.append(b)
    z = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
    return HypSeries(upper, lower, z)


class TestClassify:
    def test_terminating(self):
        assert classify(series([-3, 2], [5], -1)) == Classification(SeriesKind.TERMINATING, 3)

    def test_pole_precedes_termination(self):
        assert classify(series([-5, 2], [-2], -1)) == Classification(SeriesKind.ILL_POSED, 2)

    def test_inside_unit_circle(self):
        cls = classify(series([1, 2], [3], Fraction(1, 2)))
        assert cls.kind is SeriesKind.CONVERGENT

    def test_minimal_termination_index_wins(self):
        assert classify(series([-7, -3], [5], 1)).index == 3

    def test_pole_at_termination_index_is_harmless(self):
        # summation stops at N before the 0/0 step is ever taken
        assert classify(series([-3, 2], [-3], -1)) == Classification(SeriesKind.TERMINATING, 3)

    def test_outside_unit_circle_diverges(self):
        assert classify(series([1, 2], [3], 2)).kind is SeriesKind.DIVERGENT

    def test_unit_argument_needs_positive_excess(self):
        assert classify(series([1, 2], [4], 1)).kind is SeriesKind.CONVERGENT
        assert classify(series([1, 2], [3], 1)).kind is SeriesKind.DIVERGENT

    def test_negative_unit_argument_relaxed_by_one(self):
        assert classify(series([1, 2], [3], -1)).kind is SeriesKind.CONVERGENT
        assert classify(series([1, 3], [2], -1)).kind is SeriesKind.DIVERGENT
        assert classify(series([1, 1], [1], -1)).kind is SeriesKind.DIVERGENT  # excess exactly -1

    def test_more_lower_than_upper_converges_everywhere(self):
        assert classify(series([1], [2, 3], 100)).kind is SeriesKind.CONVERGENT

    def test_as_many_upper_as_lower_converges_everywhere(self):
        assert classify(series([1], [2], 2)).kind is SeriesKind.CONVERGENT
        # on the unit circle too, where p = q + 1 would need a positive excess
        for z in (1, -1):
            assert classify(series([3], [1], z)).kind is SeriesKind.CONVERGENT

    def test_too_many_upper_diverges_except_origin(self):
        assert classify(series([1, 2, 3], [4], Fraction(1, 2))).kind is SeriesKind.DIVERGENT
        assert classify(series([1, 2, 3], [4], 0)).kind is SeriesKind.CONVERGENT


class TestParametricExcess:
    def test_direct_sum(self):
        assert parametric_excess(series([1, 2], [3], 1)) == 0

    def test_identity_family_series(self):
        # (sum lower) - (sum upper) = 17/2 - 13/2 for the k=2, m=1 instance
        s = series([3, Fraction(5, 2), -1, 2], [Fraction(3, 2), 5, 2], -1)
        upper_sum = sum(s.upper)
        lower_sum = sum(s.lower)
        assert parametric_excess(s) == lower_sum - upper_sum == 2

    def test_empty(self):
        assert parametric_excess(series([], [], 1)) == 0


class TestEvalExact:
    def test_binomial_power(self):
        s = series([-2], [], -1)
        # (1-z)^2 at z = -1; terms 1 + 2 + 1
        assert eval_exact(s) == 4

    def test_family_instance_small(self):
        s = series([3, Fraction(5, 2), -1, 2], [Fraction(3, 2), 5, 2], -1)
        assert eval_exact(s) == 2

    def test_family_instance_k5(self):
        s = series([6, 4, -1, 2], [3, 5, 8], -1)
        assert eval_exact(s) == Fraction(7, 5)

    def test_rejects_nonterminating(self):
        with pytest.raises(HypergeometricError, match="exact summation needs termination"):
            eval_exact(series([1, 2], [3], Fraction(1, 2)))

    def test_rejects_ill_posed(self):
        with pytest.raises(HypergeometricError, match="lower-parameter pole at index"):
            eval_exact(series([-5, 2], [-2], -1))

    def test_matches_termwise_oracle_randomized(self):
        rng = random.Random(1702)
        for _ in range(150):
            s = random_terminating(rng)
            n_terms = classify(s).index
            assert eval_exact(s) == sum(series_term(1, s, n) for n in range(n_terms + 1))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        s = random_terminating(rng)
        shuffled_upper = data.draw(st.permutations(s.upper))
        shuffled_lower = data.draw(st.permutations(s.lower))
        assert eval_exact(HypSeries(shuffled_upper, shuffled_lower, s.z)) == eval_exact(s)


@st.composite
def series_with_poles(draw):
    """Terminating upper lists with lower lists that may hold nonpositive
    integers: a pole before, at or past the termination index."""
    small = st.fractions(min_value=-12, max_value=12, max_denominator=4)
    upper = [Fraction(-draw(st.integers(0, 10)))] + draw(st.lists(small, max_size=3))
    lower = draw(st.lists(st.one_of(st.integers(-14, 0).map(Fraction), small), max_size=3))
    z = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    return HypSeries(upper, lower, z)


class TestEvalExactAgainstTermwiseSum:
    @pytest.mark.parametrize(
        "upper,lower",
        [
            ([-3, 2], [-3]),  # pole at the termination index
            ([-3, 2], [-5]),  # pole past it
            ([-4, Fraction(1, 2), -6], [-4, -9, Fraction(7, 3)]),
        ],
    )
    def test_harmless_poles(self, upper, lower):
        s = series(upper, lower, Fraction(-2, 3))
        assert eval_exact(s) == sum(series_term(1, s, n) for n in range(classify(s).index + 1))

    @given(series_with_poles())
    @settings(max_examples=300, deadline=None)
    def test_matches_termwise_sum_or_raises(self, s):
        cls = classify(s)
        if cls.kind is SeriesKind.ILL_POSED:
            with pytest.raises(HypergeometricError, match="lower-parameter pole at index"):
                eval_exact(s)
        else:
            assert eval_exact(s) == sum(series_term(1, s, n) for n in range(cls.index + 1))


class TestTermBudget:
    def test_huge_termination_index_refused_at_once(self):
        s = series([-(10**12)], [], 1)
        with pytest.raises(TermBudgetExceeded):
            eval_exact(s)
        with pytest.raises(TermBudgetExceeded):
            eval_numeric(s, 1e-12)


class TestEvalNumeric:
    def test_terminating_matches_exact(self):
        s = series([3, Fraction(5, 2), -1, 2], [Fraction(3, 2), 5, 2], -1)
        assert eval_numeric(s, 1e-12) == pytest.approx(2.0, abs=1e-12)

    def test_binomial_power(self):
        assert eval_numeric(series([-2], [], -1), 1e-12) == pytest.approx(4.0, abs=1e-12)

    def test_ill_posed_refused(self):
        with pytest.raises(HypergeometricError, match="lower-parameter pole at index 2"):
            eval_numeric(series([1], [-2], Fraction(1, 2)), 1e-12)

    def test_log_series(self):
        # 2F1(1, 1; 2; z) = -ln(1-z)/z; truncated-series oracle at z = 1/2
        z = 0.5
        oracle = 0.0
        term = 1.0
        for n in range(200):
            oracle += term
            term *= (n + 1) / (n + 2) * z
        got = eval_numeric(series([1, 1], [2], Fraction(1, 2)), 1e-10)
        assert got == pytest.approx(oracle, abs=1e-8)
        assert got == pytest.approx(2 * math.log(2), abs=1e-8)

    def test_random_terminating_against_exact(self):
        rng = random.Random(88)
        checked = 0
        for _ in range(120):
            s = random_terminating(rng)
            exact = eval_exact(s)
            value = float(exact)
            if not math.isfinite(value):
                continue
            got = eval_numeric(s, 1e-12)
            assert abs(got - value) <= 1e-10 * max(1.0, abs(value))
            checked += 1
        assert checked > 100

    def test_pole_at_termination_index(self):
        # lower parameter -N is legal when N is also the termination index;
        # the unused t_{N+1} ratio must not be evaluated
        s = series([-3, 2], [-3], -1)
        exact = eval_exact(s)
        assert eval_numeric(s, 1e-12) == pytest.approx(float(exact), abs=1e-10)

    def test_rejects_divergent(self):
        with pytest.raises(HypergeometricError, match="diverges at z = 2"):
            eval_numeric(series([1, 2], [3], 2), 1e-10)

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(hyper_series, "DEFAULT_MAX_TERMS", 10)
        with pytest.raises(HypergeometricError, match="no convergence after 10 terms"):
            eval_numeric(series([1, 1], [2], Fraction(99, 100)), 1e-14)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="^tolerance must be positive and finite"):
            eval_numeric(series([-2], [], 1), tol)

    @pytest.mark.parametrize(
        "s",
        [
            series([-3, 10**200], [1], 10**200),  # t_1 = -3e400 is -inf, and -inf + inf a NaN
            series([], [], 712),  # e^712: every term fits a float, their sum does not
            # terms past the float range: refused at the first such partial
            # sum, not as "no convergence" once the term budget runs out
            series([], [], 720),
            series([], [], -720),
        ],
        ids=["terminating", "nonterminating", "terms-overflow", "alternating-terms-overflow"],
    )
    def test_sum_past_the_float_range_refused(self, s):
        with pytest.raises(HypergeometricError, match=r"^the sum of .* is past the float range$"):
            eval_numeric(s, 1e-12)

    @pytest.mark.parametrize(
        "s",
        [
            series([10**200, 10**200], [1], 0),  # t_1's float factor overflows, and inf * 0.0 is a NaN
            series([-3, 10**200], [1], 0),
        ],
        ids=["nonterminating", "terminating"],
    )
    def test_z_zero_is_exactly_one(self, s):
        assert eval_numeric(s, 1e-12) == 1.0

    def test_parameter_past_the_float_range_refused(self):
        for s in (series([10**400], [1], Fraction(1, 2)), series([], [1], 10**400)):
            with pytest.raises(HypergeometricError, match="^a parameter or z is past the float range"):
                eval_numeric(s, 1e-12)

    @pytest.mark.parametrize(
        "s",
        [
            series([1], [Fraction(1, 10**400)], Fraction(1, 2)),  # float 0.0: a pole at n = 0
            series([1], [Fraction(1 - 10**400, 10**400)], Fraction(1, 2)),  # float -1.0: a pole at n = 1
            series([-3], [Fraction(1, 10**400)], Fraction(1, 2)),
        ],
        ids=["at-0", "at-1", "terminating"],
    )
    def test_lower_parameter_whose_float_is_a_pole_refused(self, s):
        with pytest.raises(HypergeometricError, match="^a parameter or z is past the float range of the numeric path$"):
            eval_numeric(s, 1e-12)


class TestAgainstMpmath:
    def test_exact_values_match_external_library(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50

        def to_mpf(x):
            return mpmath.mpf(x.numerator) / x.denominator

        rng = random.Random(314)
        for _ in range(50):
            s = random_terminating(rng)
            reference = mpmath.hyper(
                [to_mpf(a) for a in s.upper],
                [to_mpf(b) for b in s.lower],
                to_mpf(s.z),
            )
            exact = eval_exact(s)
            scale = max(1, abs(reference))
            assert abs(mpmath.mpf(exact.numerator) / exact.denominator - reference) / scale < mpmath.mpf(
                "1e-40"
            )


class TestHypSeries:
    def test_canonical_sorts_ascending(self):
        s = series([5, -1, 2], [3, 1], 1)
        c = s.canonical()
        assert c.upper == (-1, 2, 5)
        assert c.lower == (1, 3)
        assert c.z == s.z


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=30
)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(Fraction(7, 3), 0) == 1

    def test_one_gives_factorial(self):
        assert pochhammer(1, 4) == 24

    def test_direct_product(self):
        x = Fraction(3, 2)
        assert pochhammer(x, 3) == x * (x + 1) * (x + 2) == Fraction(105, 8)

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            pochhammer(Fraction(1), -1)

    @given(st.integers(0, 40))
    def test_at_one_equals_factorial(self, n):
        assert pochhammer(1, n) == math.factorial(n)

    @given(rationals, st.integers(0, 12), st.integers(0, 12))
    def test_shift_splitting(self, x, m, n):
        assert pochhammer(x, m + n) == pochhammer(x, m) * pochhammer(x + m, n)


class TestRationalExactness:
    @given(
        st.integers(-10**30, 10**30),
        st.integers(1, 10**30),
        st.integers(-10**30, 10**30),
        st.integers(1, 10**30),
    )
    def test_add_then_subtract_roundtrips(self, a, b, c, d):
        x = Fraction(a, b)
        y = Fraction(c, d)
        assert (x + y) - y == x

    def test_canonical_form(self):
        x = Fraction(6, -4)
        assert x.denominator > 0
        assert x == Fraction(-3, 2)
        assert (x.numerator, x.denominator) == (-3, 2)


class TestNonpositiveIntegerPredicate:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(0), True),
            (Fraction(-3), True),
            (Fraction(2), False),
            (Fraction(-1, 2), False),
            (Fraction(-4, 2), True),
        ],
    )
    def test_cases(self, value, expected):
        assert min_termination_index([value]) == (-value if expected else None)
