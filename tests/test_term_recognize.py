import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypcert import term_recognize
from hypcert.errors import HypergeometricError, TermBudgetExceeded
from hypcert.sesma_identity import rewrite, sesma_ratio
from hypcert.term_recognize import (
    IntPolynomial,
    TermRatio,
    recognize,
    term_at,
)

from oracles import series_term

# P, Q for the identity family at k=5, m=1:
# P = 2(1-n)(n+6)(n+2)(n+4), Q = 2(n+1)(n+5)(n+3)(n+8)
P_K5 = IntPolynomial.from_linear_factors([(1, -1), (6, 1), (2, 1), (4, 1)], scale=2)
Q_K5 = IntPolynomial.from_linear_factors([(1, 1), (5, 1), (3, 1), (8, 1)], scale=2)
RATIO_K5 = TermRatio(num=P_K5, den=Q_K5, t0=Fraction(5, 7))


def rational_roots(p: IntPolynomial) -> list[tuple[Fraction, int]]:
    """The rational roots that recognition splits off p, sorted ascending."""
    return sorted(term_recognize._split(p)[0].items())


class TestIntPolynomial:
    def test_trailing_zero_stripping(self):
        assert IntPolynomial([1, 2, 0, 0]).coefficients == (1, 2)
        assert IntPolynomial([0, 0]).is_zero

    def test_evaluation(self):
        p = IntPolynomial([-2, 1, 1])  # (n+2)(n-1)
        assert p(1) == 0
        assert p(-2) == 0
        assert p(Fraction(1, 2)) == Fraction(-5, 4)
        assert type(p(3)) is int and p(3) == 10  # integer arithmetic for an integer argument

    def test_from_linear_factors(self):
        p = IntPolynomial.from_linear_factors([(2, 1), (-1, 1)])  # (n+2)(n-1)
        assert p.coefficients == (-2, 1, 1)

    def test_zero_polynomial(self):
        zero, p = IntPolynomial([]), IntPolynomial([-2, 1, 1])
        assert (zero.leading, zero.degree, str(zero)) == (0, -1, "0")
        assert (zero * p).is_zero
        assert (p * zero).is_zero


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

    def test_double_root_at_a_critical_point(self):
        # (n+1)(n+16)^2(n+17): -16 is a root of p and of p', so p keeps one
        # sign on both sides of it and no sign change brackets it
        p = IntPolynomial([4352, 5152, 849, 50, 1])
        assert p == IntPolynomial.from_linear_factors([(1, 1), (16, 1), (16, 1), (17, 1)])
        assert rational_roots(p) == [(Fraction(-17), 1), (Fraction(-16), 2), (Fraction(-1), 1)]

    def test_deflation_leaves_no_rational_roots_behind(self):
        # (3n-1)(n+7) times the rootless n^2+n+1
        p = (
            IntPolynomial.from_linear_factors([(-1, 3), (7, 1)])
            * IntPolynomial([1, 1, 1])
        )
        assert rational_roots(p) == [(Fraction(-7), 1), (Fraction(1, 3), 1)]
        assert term_recognize._split(p)[1] == [1, 1, 1]


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
        with pytest.raises(HypergeometricError, match="^denominator vanishes at n = 2$"):
            term_at(ratio, 3)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            term_at(RATIO_K5, -1)

    def test_huge_index_refused_at_once(self):
        with pytest.raises(TermBudgetExceeded):
            term_at(RATIO_K5, 10**12)


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

    def test_shared_factor_cancels(self):
        ratio = TermRatio(
            num=IntPolynomial.from_linear_factors([(1, 1), (2, 1)]),  # (n+1)(n+2)
            den=IntPolynomial.from_linear_factors([(1, 1), (3, 1)], scale=4),  # 4(n+1)(n+3)
            t0=Fraction(1),
        )
        got = recognize(ratio)
        assert got.series.upper == (1, 2)
        assert got.series.lower == (3,)
        assert got.series.z == Fraction(1, 4)

    def test_shared_irreducible_cofactor_cancels(self):
        rootless = IntPolynomial([2, 0, 3])  # 3n^2+2
        ratio = TermRatio(
            num=rootless * IntPolynomial([2, 1]) * IntPolynomial([5]),  # 5(3n^2+2)(n+2)
            den=rootless * IntPolynomial([1, 1]),  # (3n^2+2)(n+1)
            t0=Fraction(1),
        )
        got = recognize(ratio)
        assert got.series.upper == (2,)
        assert got.series.lower == ()
        assert got.series.z == 5

    def test_cofactors_that_do_not_cancel_are_rejected(self):
        # (n^2+1)/(n^2+2): no rational roots on either side, not proportional
        ratio = TermRatio(num=IntPolynomial([1, 0, 1]), den=IntPolynomial([2, 0, 1]), t0=Fraction(1))
        with pytest.raises(HypergeometricError, match="^numerator .* has an irreducible nonlinear cofactor"):
            recognize(ratio)
        # (n^2+1) / (n^2+1)(n^2+2): n^2+1 cancels, n^2+2 does not
        ratio = TermRatio(
            num=IntPolynomial([1, 0, 1]), den=IntPolynomial([1, 0, 1]) * IntPolynomial([2, 0, 1]), t0=Fraction(1)
        )
        with pytest.raises(HypergeometricError, match="has an irreducible nonlinear cofactor"):
            recognize(ratio)
        # only the side that keeps a cofactor is named, by that cofactor alone
        ratio = TermRatio(
            num=IntPolynomial([1, 1]) * IntPolynomial([3, 1]),  # (n+1)(n+3)
            den=IntPolynomial([1, 1]) * IntPolynomial([1, 0, 1]),  # (n+1)(n^2+1)
            t0=Fraction(1),
        )
        with pytest.raises(HypergeometricError, match=r"^denominator 1 \+n\^2 has an irreducible nonlinear cofactor"):
            recognize(ratio)
        ratio = TermRatio(
            num=IntPolynomial([1, 1]),  # n+1
            den=IntPolynomial([2, 1]) * IntPolynomial([1, 0, 1]),  # (n+2)(n^2+1)
            t0=Fraction(1),
        )
        with pytest.raises(HypergeometricError, match=r"^denominator 1 \+n\^2 has an irreducible nonlinear cofactor"):
            recognize(ratio)

    def test_shared_nonnegative_integer_root_is_a_pole(self):
        # (n-2)(n+4) / (n-2)(n+1): the reduced ratio never vanishes, but the
        # given one is 0/0 at n = 2
        ratio = TermRatio(
            num=IntPolynomial.from_linear_factors([(-2, 1), (4, 1)]),
            den=IntPolynomial.from_linear_factors([(-2, 1), (1, 1)]),
            t0=Fraction(1),
        )
        with pytest.raises(HypergeometricError, match="^denominator vanishes at n = 2$"):
            recognize(ratio)

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
        with pytest.raises(HypergeometricError, match="has an irreducible nonlinear cofactor"):
            recognize(ratio)

    def test_pole_on_path_rejected(self):
        # terminates at n = 3 but the denominator dies at n = 1 first
        ratio = TermRatio(
            num=IntPolynomial([3, -1]), den=IntPolynomial([-1, 1]), t0=Fraction(1)
        )
        with pytest.raises(HypergeometricError, match="^denominator vanishes at n = "):
            recognize(ratio)

    def test_nonterminating_denominator_pole_rejected(self):
        ratio = TermRatio(
            num=IntPolynomial([1, 1]), den=IntPolynomial([-5, 1]), t0=Fraction(1)
        )
        with pytest.raises(HypergeometricError, match="^denominator vanishes at n = "):
            recognize(ratio)

    @pytest.mark.parametrize("k, m", [(315, 315), (1000, 500), (3000, 1500)])
    def test_identity_ratio_matches_rewrite(self, k, m):
        # criterion 2's comparison, beyond its seeded sample (k <= 100) and
        # beyond k = 314, where P(0) = m(k+1)(m+1)(k+3) passes 10^10
        recognized, target = recognize(sesma_ratio(k, m)), rewrite(k, m)
        upper, lower = Counter(target.series.upper), Counter(target.series.lower)
        assert recognized.prefactor == target.prefactor
        assert recognized.series.z == target.series.z == -1
        assert Counter(recognized.series.upper) == upper - lower
        assert Counter(recognized.series.lower) == lower - upper

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
            except HypergeometricError as exc:
                assert str(exc).startswith("denominator vanishes at n = ")
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


# A factor (c0, c1) stands for c0 + c1*n, the parameter c0/c1; a rootless
# factor (a, c) stands for a*n^2 + c with a, c > 0, which has no real roots.
linear_factor = st.tuples(st.integers(-6, 6), st.integers(1, 3))
rootless_factor = st.none() | st.tuples(st.integers(1, 3), st.integers(1, 5))


@st.composite
def constructed_ratios(draw):
    shared = draw(st.lists(linear_factor, max_size=2))
    up = draw(st.lists(linear_factor, max_size=3)) + shared
    low = draw(st.lists(linear_factor, max_size=3)) + shared
    if up:
        up += draw(st.lists(st.sampled_from(up), max_size=2))  # multiplicities
    if low:
        low += draw(st.lists(st.sampled_from(low), max_size=2))
    scales = st.sampled_from([-5, -3, -2, -1, 1, 2, 4, 7])
    return up, low, draw(scales), draw(scales), draw(rootless_factor), draw(rootless_factor)


def build_ratio(up, low, scale_p, scale_q, rest_p, rest_q) -> TermRatio:
    def poly(factors, scale, rest):
        p = IntPolynomial.from_linear_factors(factors, scale=scale)
        return p if rest is None else p * IntPolynomial([rest[1], 0, rest[0]])

    return TermRatio(num=poly(up, scale_p, rest_p), den=poly(low, scale_q, rest_q), t0=Fraction(3, 5))


def expected_recognition(up, low, scale_p, scale_q, rest_p, rest_q):
    """The start of the HypergeometricError message, or (upper, lower, z),
    read off the construction."""
    if (rest_p and Fraction(rest_p[1], rest_p[0])) != (rest_q and Fraction(rest_q[1], rest_q[0])):
        return "(numerator|denominator) .* has an irreducible nonlinear cofactor"  # the rootless factors do not cancel
    upper = Counter(Fraction(c0, c1) for c0, c1 in up)
    lower = Counter(Fraction(c0, c1) for c0, c1 in low)
    upper, reduced_lower = upper - lower, lower - upper
    stop = min((-a for a in upper if a.denominator == 1 and a <= 0), default=None)
    if any(b.denominator == 1 and b <= 0 and (stop is None or -b < stop) for b in lower):
        return "denominator vanishes at n = "  # the given denominator vanishes before the term does
    upper, lower = sorted(upper.elements()), sorted(reduced_lower.elements())
    if 1 in lower:
        lower.remove(1)
    else:
        upper = sorted(upper + [Fraction(1)])

    def lead(factors, scale, rest):
        return scale * math.prod(c1 for _, c1 in factors) * (rest[0] if rest else 1)

    return tuple(upper), tuple(lower), Fraction(lead(up, scale_p, rest_p), lead(low, scale_q, rest_q))


class TestRecognizeProperties:
    @given(constructed_ratios())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_construction(self, case):
        ratio = build_ratio(*case)
        expected = expected_recognition(*case)
        if isinstance(expected, str):
            with pytest.raises(HypergeometricError, match=f"^{expected}"):
                recognize(ratio)
            return
        got = recognize(ratio)
        assert (got.series.upper, got.series.lower, got.series.z) == expected
        assert got.prefactor == ratio.t0


# A factor (c0, c1) stands for c0 + c1*n, with c0 up to 2**60 in size
wide_factor = st.tuples(st.just(0) | st.integers(-(2**60), 2**60), st.integers(1, 5))


@st.composite
def split_cases(draw):
    """1-6 linear factors, some repeated or shifted by one step (adjacent
    roots), a scale of either sign and, optionally, a rootless n^2 + c."""
    factors = draw(st.lists(wide_factor, min_size=1, max_size=6))
    copies = draw(st.lists(st.tuples(st.sampled_from(factors), st.sampled_from([0, 1])), max_size=6 - len(factors)))
    factors += [(c0 + shift * c1, c1) for (c0, c1), shift in copies]
    scale = draw(st.integers(1, 1000)) * draw(st.sampled_from([-1, 1]))
    return factors, scale, draw(st.none() | st.integers(1, 2**40))


class TestSplitProperties:
    @given(split_cases())
    @settings(max_examples=300, deadline=None)
    def test_returns_the_built_roots_and_cofactor(self, case):
        factors, scale, c = case
        p = IntPolynomial.from_linear_factors(factors, scale=scale)
        rest = [1] if c is None else [c, 0, 1]
        roots, cofactor = term_recognize._split(p * IntPolynomial(rest))
        assert roots == Counter(Fraction(-c0, c1) for c0, c1 in factors)
        assert cofactor == [cofactor[-1] * x for x in rest]  # rest up to a constant


# The most evaluations _split makes over the root-isolation steps it
# charges, D**2 * (b + 1) for a bound 2**b, by the degree D left once the
# roots at 0 are divided out; none from D = 4 on.  At D = 1 the one piece
# costs its two ends, b + 1 bisection steps and the root check: b + 4
# against b + 1 charged.  At D = 2 and 3 the fixed evaluations (two ends
# per piece, one root check per floor) pass the charge only while b is
# small.  Measured on every polynomial of degree 1 to 6 with coefficients
# of size up to 40, 12, 6, 4, 3 and 2.  The charge is kept, so no budget
# boundary moves.
OVER_CHARGE = {1: 3, 2: 4, 3: 2}


def evaluations_and_charge(p: IntPolynomial) -> tuple[int, int]:
    """The evaluations of a polynomial that _split makes on p, root checks
    included, and the root-isolation steps it charges to the term budget."""
    calls, charged = [0], [0]
    call, check = IntPolynomial.__call__, term_recognize.check_budget

    def counting_call(self, x):
        calls[0] += 1
        return call(self, x)

    def recording_check(steps, what):
        charged[0] += steps
        check(steps, what)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IntPolynomial, "__call__", counting_call)
        patch.setattr(term_recognize, "check_budget", recording_check)
        term_recognize._split(p)
    return calls[0], charged[0]


class TestRootIsolationWork:
    @given(split_cases())
    @settings(max_examples=300, deadline=None)
    def test_within_the_charge(self, case):
        factors, scale, c = case
        p = IntPolynomial.from_linear_factors(factors, scale=scale) * IntPolynomial([1] if c is None else [c, 0, 1])
        degree = p.degree - next(i for i, x in enumerate(p.coefficients) if x)
        evaluations, charge = evaluations_and_charge(p)
        assert evaluations <= charge + OVER_CHARGE.get(degree, 0)

    def test_degree_one_is_charged_three_evaluations_short(self):
        # 5n + 2**40: the bound is 2**41, so b + 1 = 42 steps are charged
        assert evaluations_and_charge(IntPolynomial([2**40, 5])) == (45, 42)

    def test_boundary_row_with_a_wide_leading_coefficient(self):
        # the numerator of test_term_budget.py's row "root isolation admits,
        # |lead| > 1": y**2 + 65y + 126 after the content 3 is divided out
        assert evaluations_and_charge(IntPolynomial([3 * 63, 3 * 65, 6])) == (32, 32)

    @pytest.mark.parametrize("c, b", [(1, 1), (2**40, 41)])
    def test_no_bisection_without_a_sign_change(self, c, b):
        # n**2 + c has no real root; with the bound 2**b the derivative 2n
        # costs b + 3, its floor 0 splits the rest into two pieces of two
        # ends each (one end is f(0) = c), and 0 gets one root check
        assert evaluations_and_charge(IntPolynomial([c, 0, 1])) == (b + 8, 4 * (b + 1))


def random_integer_polynomial(rng: random.Random) -> IntPolynomial:
    if rng.random() < 0.3:  # dense, mostly without rational roots
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
        return IntPolynomial(coeffs) if any(coeffs) else IntPolynomial([1])
    factors = [(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
    p = IntPolynomial.from_linear_factors(factors, scale=rng.choice([-3, -1, 1, 2, 6]))
    if rng.random() < 0.3:
        p = p * IntPolynomial([rng.randint(1, 4), rng.randint(-2, 2), rng.randint(1, 3)])
    return p


class TestAgainstSympy:
    def test_accept_reject_and_parameters(self):
        sympy = pytest.importorskip("sympy")
        n = sympy.Symbol("n")

        def to_sympy(p):
            return sum((c * n**i for i, c in enumerate(p.coefficients)), sympy.Integer(0))

        def linear_parameters(expr):
            """Parameters c0/c1 of the linear factors, and whether any factor is nonlinear."""
            params, nonlinear = Counter(), False
            for factor, mult in sympy.factor_list(expr, n)[1]:
                poly = sympy.Poly(factor, n)
                if poly.degree() > 1:
                    nonlinear = True
                    continue
                c1, c0 = poly.all_coeffs()
                params[Fraction(int(c0), int(c1))] += mult
            return params, nonlinear

        rng = random.Random(1996)
        shared = [IntPolynomial([1, 1]), IntPolynomial([-2, 1]), IntPolynomial([1, 0, 1]), IntPolynomial([3, 2])]
        for _ in range(300):
            num, den = random_integer_polynomial(rng), random_integer_polynomial(rng)
            if rng.random() < 0.4:
                common = rng.choice(shared)
                num, den = num * common, den * common
            ratio = TermRatio(num=num, den=den, t0=Fraction(1))
            reduced_num, reduced_den = sympy.fraction(sympy.cancel(to_sympy(num) / to_sympy(den)))
            (upper, upper_rest), (lower, lower_rest) = linear_parameters(reduced_num), linear_parameters(reduced_den)
            if upper_rest or lower_rest:
                with pytest.raises(HypergeometricError, match="has an irreducible nonlinear cofactor"):
                    recognize(ratio)
                continue
            original_lower, _ = linear_parameters(to_sympy(den))
            stop = min((-a for a in upper if a.denominator == 1 and a <= 0), default=None)
            if any(b.denominator == 1 and b <= 0 and (stop is None or -b < stop) for b in original_lower):
                with pytest.raises(HypergeometricError, match="^denominator vanishes at n = "):
                    recognize(ratio)
                continue
            got = recognize(ratio)
            lower_list = sorted(lower.elements())
            if 1 in lower_list:
                lower_list.remove(1)
            else:
                upper[Fraction(1)] += 1
            z = sympy.Poly(reduced_num, n).LC() / sympy.Poly(reduced_den, n).LC()
            assert got.series.upper == tuple(sorted(upper.elements()))
            assert got.series.lower == tuple(lower_list)
            assert got.series.z == Fraction(int(z.p), int(z.q))
