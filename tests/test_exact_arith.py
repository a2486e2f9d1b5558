import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hypcert.hyper_series import is_nonpositive_integer, pochhammer


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
        assert is_nonpositive_integer(value) is expected
