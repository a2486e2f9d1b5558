import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypcert.errors import HypergeometricError, TermBudgetExceeded
from hypcert.hyper_series import Classification, HypSeries, SeriesKind, classify, eval_exact, min_termination_index
from hypcert.whipple import (
    WhippleMatch,
    log_gamma,
    match_whipple,
    rhs_exact_terminating,
    rhs_numeric,
)

from oracles import whipple_series


def random_terminating_match(rng: random.Random) -> WhippleMatch:
    q = rng.choice([1, 2, 4])
    a = Fraction(rng.randint(q, 20 * q), q)
    shift = rng.randint(0, 12)
    cq = rng.choice([1, 2, 4])
    # a - c + 1 > 0, i.e. c < a + 1
    c_max_num = math.ceil((a + 1) * cq) - 1
    c = Fraction(rng.randint(c_max_num - 30 * cq, c_max_num), cq)
    return WhippleMatch(a=a, b=Fraction(-shift), c=c)


class TestMatchWhipple:
    def test_family_instance_small(self):
        s = HypSeries([3, Fraction(5, 2), -1, 2], [Fraction(3, 2), 5, 2], -1)
        assert match_whipple(s) == WhippleMatch(Fraction(3), Fraction(-1), Fraction(2))

    def test_family_instance_k5(self):
        s = HypSeries([6, 4, -1, 2], [3, 5, 8], -1)
        assert match_whipple(s) == WhippleMatch(Fraction(6), Fraction(-1), Fraction(2))

    def test_argument_must_be_minus_one(self):
        s = HypSeries([3, Fraction(5, 2), -1, 2], [Fraction(3, 2), 5, 2], 1)
        assert match_whipple(s) is None

    def test_wrong_shape_rejected(self):
        assert match_whipple(HypSeries([1, 2, 3], [4, 5], -1)) is None
        assert match_whipple(HypSeries([6, 4, -1, 2], [3, 5, 7], -1)) is None

    def test_permutation_invariance(self):
        s = whipple_series(6, -1, 2)
        expected = match_whipple(s)
        rng = random.Random(33)
        for _ in range(20):
            upper = list(s.upper)
            lower = list(s.lower)
            rng.shuffle(upper)
            rng.shuffle(lower)
            assert match_whipple(HypSeries(upper, lower, -1)) == expected

    def test_repeated_parameters(self):
        # a = 2 duplicates its own companion: upper holds three 2s at k=m=1
        s = HypSeries([2, 2, -1, 2], [1, 4, 1], -1)
        assert match_whipple(s) == WhippleMatch(Fraction(2), Fraction(-1), Fraction(2))

    def test_roundtrip_constructed(self):
        rng = random.Random(77)
        for _ in range(60):
            m = random_terminating_match(rng)
            got = match_whipple(whipple_series(m.a, m.b, m.c))
            assert got is not None
            # the decomposition may legitimately differ; its value may not
            assert rhs_exact_terminating(got) == rhs_exact_terminating(m)


def reference_match_whipple(s: HypSeries):
    """The Counter-of-Fraction matcher that match_whipple replaced, kept as
    an independent reference: collect every decomposition, then take the
    largest a, then the smallest b."""
    if len(s.upper) != 4 or len(s.lower) != 3 or s.z != -1:
        return None
    matches = []
    upper_counts = Counter(s.upper)
    lower_counts = Counter(s.lower)
    for a in sorted(upper_counts, reverse=True):
        rest_upper = upper_counts.copy()
        rest_upper[a] -= 1
        companion = 1 + a / 2
        if rest_upper[companion] < 1:
            continue
        rest_upper[companion] -= 1
        rest_lower = lower_counts.copy()
        if rest_lower[a / 2] < 1:
            continue
        rest_lower[a / 2] -= 1
        b, c = sorted((+rest_upper).elements())
        if Counter([a - b + 1, a - c + 1]) == +rest_lower:
            matches.append((a, b, c))
    if not matches:
        return None
    return WhippleMatch(*max(matches, key=lambda t: (t[0], -t[1])))


# a small pool, so that duplicates and companion collisions are common
_POOL = st.sampled_from(sorted({Fraction(n, d) for n in range(-6, 9) for d in (1, 2, 4)}))


@st.composite
def four_f_three_lists(draw):
    """Whipple shapes, shapes with one parameter changed, shapes whose b, c
    form a second candidate pair (a', 1+a'/2), and free lists of any
    length near 4 and 3, at z = -1 mostly."""
    a = draw(_POOL)
    kind = draw(st.sampled_from(["shape", "perturbed", "two_candidates", "free"]))
    if kind == "free":
        upper = draw(st.lists(_POOL, min_size=3, max_size=5))
        lower = draw(st.lists(_POOL, min_size=2, max_size=4))
    elif kind == "two_candidates":
        a2 = draw(_POOL)
        upper = [a, 1 + a / 2, a2, 1 + a2 / 2]
        lower = [a / 2, a2 / 2, draw(st.sampled_from([a - a2 + 1, a - a2 / 2, a2 - a + 1]))]
    else:
        b, c = draw(_POOL), draw(_POOL)
        upper = [a, 1 + a / 2, b, c]
        lower = [a / 2, a - b + 1, a - c + 1]
        if kind == "perturbed":
            target = draw(st.sampled_from([upper, lower]))
            target[draw(st.integers(0, len(target) - 1))] = draw(_POOL)
    upper = draw(st.permutations(upper))
    lower = draw(st.permutations(lower))
    z = draw(st.sampled_from([Fraction(-1)] * 4 + [Fraction(1), Fraction(-1, 2)]))
    return HypSeries(upper, lower, z)


class TestMatchWhippleAgainstReference:
    @given(four_f_three_lists())
    @settings(max_examples=400, deadline=None)
    def test_same_result_as_counter_matcher(self, s):
        assert match_whipple(s) == reference_match_whipple(s)

    @pytest.mark.parametrize(
        "upper,lower",
        [
            ([2, 2, -1, 2], [1, 4, 1]),  # a = 2 is its own companion
            ([2, 2, 2, 2], [1, 1, 1]),  # every parameter is a candidate
            ([6, 4, 4, 3], [3, 2, 4]),  # a' = 4 passes the companion test too
            ([Fraction(-3, 2), Fraction(1, 4), -1, 2], [Fraction(-3, 4), Fraction(3, 2), Fraction(-3, 2)]),
        ],
    )
    def test_collisions(self, upper, lower):
        s = HypSeries(upper, lower, -1)
        assert match_whipple(s) == reference_match_whipple(s)


class TestRhsExactTerminating:
    def test_small(self):
        m = WhippleMatch(Fraction(3), Fraction(-1), Fraction(2))
        assert rhs_exact_terminating(m) == 2

    def test_k5(self):
        m = WhippleMatch(Fraction(6), Fraction(-1), Fraction(2))
        assert rhs_exact_terminating(m) == Fraction(7, 5)

    def test_empty_shift(self):
        assert rhs_exact_terminating(WhippleMatch(Fraction(3), Fraction(0), Fraction(2))) == 1

    def test_terminating_c_is_swapped_in(self):
        sym = rhs_exact_terminating(WhippleMatch(Fraction(5), Fraction(7, 2), Fraction(-2)))
        assert sym == rhs_exact_terminating(WhippleMatch(Fraction(5), Fraction(-2), Fraction(7, 2)))

    def test_symmetric_when_both_terminate(self):
        for b, c in [(-1, -3), (-2, -2), (0, -4)]:
            one = rhs_exact_terminating(WhippleMatch(Fraction(9, 2), Fraction(b), Fraction(c)))
            two = rhs_exact_terminating(WhippleMatch(Fraction(9, 2), Fraction(c), Fraction(b)))
            assert one == two

    def test_shorter_of_b_and_c_sets_the_length(self):
        # b = -10**9 is over the budget, but the series stops at c = -1
        m = WhippleMatch(Fraction(2), Fraction(-(10**9)), Fraction(-1))
        assert rhs_exact_terminating(m) == Fraction(3, 1000000003)

    def test_series_that_stops_sooner_is_refused(self):
        # a = -6 and 1 + a/2 = -2 stop the series at 2, before b = -8 does
        m = WhippleMatch(Fraction(-6), Fraction(-8), Fraction(-9, 2))
        assert eval_exact(whipple_series(m.a, m.b, m.c)) == -1565
        needs = r"^the series is terminating\(2\), the closed form needs terminating\(8\)$"
        with pytest.raises(HypergeometricError, match=needs):
            rhs_exact_terminating(m)
        # a = 0 stops the series at once
        with pytest.raises(HypergeometricError, match=r"^the series is terminating\(0\)"):
            rhs_exact_terminating(WhippleMatch(Fraction(0), Fraction(-2), Fraction(1, 2)))

    @pytest.mark.parametrize(
        "a, b, c, needs",
        [
            (Fraction(-1, 2), Fraction(-3), Fraction(3, 2), r"^the series is ill_posed\(1\), the closed form needs terminating\(3\)$"),
            (Fraction(1), Fraction(-2), Fraction(3), r"^the series is ill_posed\(1\), the closed form needs terminating\(2\)$"),
        ],
        ids=["nonpositive_a", "positive_a"],
    )
    def test_pole_first_is_refused(self, a, b, c, needs):
        # a - c + 1 = -1 is a pole at 1, before b stops the series; a <= 0
        # and a > 0 get the one verdict of classify
        with pytest.raises(HypergeometricError, match=needs):
            rhs_exact_terminating(WhippleMatch(a, b, c))

    def test_not_terminating(self):
        with pytest.raises(HypergeometricError, match="^neither b = 1/2 nor c = 2 is a nonpositive integer"):
            rhs_exact_terminating(WhippleMatch(Fraction(3), Fraction(1, 2), Fraction(2)))

    def test_huge_shift_refused_at_once(self):
        with pytest.raises(TermBudgetExceeded):
            rhs_exact_terminating(WhippleMatch(Fraction(2), Fraction(-(10**9)), Fraction(1, 2)))

    def test_equals_series_sum(self):
        rng = random.Random(2024)
        for _ in range(80):
            m = random_terminating_match(rng)
            series = whipple_series(m.a, m.b, m.c)
            assert eval_exact(series) == rhs_exact_terminating(m)


def random_whipple_parameters(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    """a = p/q nonzero with |a| <= 30 and q <= 3; b and c integers or halves,
    at least one of them a nonpositive integer."""
    q = rng.randint(1, 3)
    a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30 * q), q)
    b, c = (Fraction(rng.randint(-40, 40), rng.choice([1, 2])) for _ in range(2))
    if rng.random() < 0.5:
        return a, Fraction(-rng.randint(0, 20)), c
    return a, b, Fraction(-rng.randint(0, 20))


def test_closed_form_is_the_series_sum_or_refused():
    """Across the regime, at a <= 0 too: a closed-form value is the exact sum
    of the matched series, and a series with no exact sum has no value."""
    rng = random.Random(2026)
    matches = 0
    while matches < 100_000:
        series = whipple_series(*random_whipple_parameters(rng))
        m = match_whipple(series)
        if m is None:
            continue
        matches += 1
        try:
            value = rhs_exact_terminating(m)
        except HypergeometricError:
            continue
        assert eval_exact(series) == value, m  # raises if the series has no exact sum


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) <= 1e-12

    def test_at_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-12)

    def test_at_ten(self):
        assert log_gamma(10.0) == pytest.approx(math.log(math.factorial(9)), rel=1e-13)

    def test_small_arguments_via_recurrence(self):
        assert log_gamma(0.25) == pytest.approx(math.lgamma(0.25), rel=1e-12)
        assert log_gamma(0.01) == pytest.approx(math.lgamma(0.01), rel=1e-12)

    def test_rejects_nonpositive(self):
        for x in (0.0, -3.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive finite argument"):
                log_gamma(x)

    def test_grid_against_stdlib(self):
        # math.lgamma is an independent implementation (C library)
        for i in range(3000):
            x = 0.5 + i * (170.0 - 0.5) / 2999
            expected = math.lgamma(x)
            assert abs(log_gamma(x) - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_factorials(self):
        for n in range(1, 151):
            expected = math.log(math.factorial(n))
            assert abs(log_gamma(n + 1.0) - expected) <= 1e-12 * max(1.0, abs(expected))


class TestRhsNumeric:
    def test_small(self):
        m = WhippleMatch(Fraction(3), Fraction(-1), Fraction(2))
        assert rhs_numeric(m) == pytest.approx(2.0, abs=1e-10)

    def test_k5(self):
        m = WhippleMatch(Fraction(6), Fraction(-1), Fraction(2))
        assert rhs_numeric(m) == pytest.approx(1.4, abs=1e-10)

    def test_zero_shift(self):
        m = WhippleMatch(Fraction(3), Fraction(0), Fraction(2))
        assert rhs_numeric(m) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_nonpositive_gamma_argument(self):
        # a + 1 fine, but a - b - c + 1 = -1/2 < 0
        with pytest.raises(HypergeometricError, match="nonpositive Gamma argument"):
            rhs_numeric(WhippleMatch(Fraction(1), Fraction(1), Fraction(3, 2)))

    def test_rejects_gamma_argument_past_the_float_range(self):
        with pytest.raises(HypergeometricError, match="^a Gamma argument is past the float range$"):
            rhs_numeric(WhippleMatch(Fraction(10**400), Fraction(-2), Fraction(1, 2)))

    def test_rejects_positive_gamma_argument_whose_float_is_zero(self):
        # a - c + 1 = 10^-400 > 0 rounds to the float 0.0; the exact value
        # (a+1)_1 / (a-c+1)_1 = 2 * 10^400 stands
        m = WhippleMatch(Fraction(1), Fraction(-1), Fraction(2 * 10**400 - 1, 10**400))
        assert rhs_exact_terminating(m) == 2 * 10**400
        with pytest.raises(HypergeometricError, match="^a Gamma argument is past the float range$"):
            rhs_numeric(m)

    def test_nonterminating_convergent(self):
        assert rhs_numeric(WhippleMatch(Fraction(3), Fraction(1, 3), Fraction(1, 2))) == 0.9476591792050498

    def test_series_that_stops_sooner_is_refused(self):
        # every Gamma argument is positive, but a = 0 stops the series at once,
        # where its value is 1, not the ratio's limit 8/3 as a -> 0
        m = WhippleMatch(Fraction(0), Fraction(-2), Fraction(1, 2))
        assert eval_exact(whipple_series(m.a, m.b, m.c)) == 1
        needs = r"^the series is terminating\(0\), the closed form needs terminating\(2\)$"
        with pytest.raises(HypergeometricError, match=needs):
            rhs_numeric(m)

    def test_divergent_series_is_refused(self):
        # every Gamma argument is positive, but the excess 11 - 2b - 2c is -5
        needs = r"^the series is nonterminating_divergent, the closed form needs nonterminating_convergent$"
        with pytest.raises(HypergeometricError, match=needs):
            rhs_numeric(WhippleMatch(Fraction(10), Fraction(4), Fraction(4)))

    @pytest.mark.parametrize(
        "a, b",
        [
            (10**307, Fraction(1, 3)),  # log_gamma(1e307) is inf, and inf - inf a NaN
            (10**300, -(10**299)),  # a finite log ratio past what exp can return
        ],
        ids=["NaN", "overflow"],
    )
    def test_ratio_past_the_float_range_is_refused(self, a, b):
        with pytest.raises(HypergeometricError, match="^the Gamma ratio is past the float range$"):
            rhs_numeric(WhippleMatch(Fraction(a), Fraction(b), Fraction(1, 2)))

    def test_close_to_exact(self):
        rng = random.Random(5)
        for _ in range(80):
            m = random_terminating_match(rng)
            exact = float(rhs_exact_terminating(m))
            got = rhs_numeric(m)
            assert abs(got - exact) <= 1e-9 * max(1.0, abs(exact))


def test_numeric_value_only_where_the_series_stops_or_converges():
    """A numeric closed form is given only for a series that stops at the
    shorter of -b and -c or converges, and a terminating one is its sum."""
    rng = random.Random(2026)
    matches = 0
    while matches < 20_000:
        q = rng.randint(1, 3)
        a = Fraction(rng.randint(-30 * q, 30 * q), q)
        series = whipple_series(a, Fraction(rng.randint(-20, 20), 2), Fraction(rng.randint(-20, 20), 2))
        m = match_whipple(series)
        if m is None:
            continue
        matches += 1
        try:
            value = rhs_numeric(m)
        except HypergeometricError:
            continue
        shift = min_termination_index((m.b, m.c))
        if shift is None:
            assert classify(series) == Classification(SeriesKind.CONVERGENT), m
        else:
            assert classify(series) == Classification(SeriesKind.TERMINATING, shift), m
            assert value == pytest.approx(float(eval_exact(series)), rel=1e-9), m


@given(
    st.integers(1, 40),
    st.sampled_from([1, 2, 4]),
    st.integers(0, 10),
    st.integers(-12, 12),
    st.sampled_from([1, 2, 4]),
)
@settings(max_examples=120, deadline=None)
def test_whipple_theorem_property(a_num, a_den, shift, c_num, c_den):
    a = Fraction(a_num, a_den)
    c = Fraction(c_num, c_den)
    if a - c + 1 <= 0:
        return
    m = WhippleMatch(a=a, b=Fraction(-shift), c=c)
    assert eval_exact(whipple_series(m.a, m.b, m.c)) == rhs_exact_terminating(m)
