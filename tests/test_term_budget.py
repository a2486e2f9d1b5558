"""The one term budget: every site refuses work over
``hyper_series.DEFAULT_MAX_TERMS``, and only ``hyper_series`` reads the
constant or raises the refusal."""

import ast
import pathlib
import sys
from fractions import Fraction

import pytest

import hypcert
from hypcert import hyper_series
from hypcert.errors import TermBudgetExceeded
from hypcert.hyper_series import HypSeries, PrefactoredSeries, eval_exact, eval_numeric
from hypcert.sesma_identity import lhs_sum, lhs_term, rewrite, sesma_ratio, sweep, verify
from hypcert.term_recognize import IntPolynomial, TermRatio, recognize, term_at
from hypcert.whipple import WhippleMatch, rhs_exact_terminating


def terminating(n: int) -> HypSeries:
    """2F1(-n, 1; 3; -1), which terminates after n steps."""
    return HypSeries([-n, 1], [3], -1)


def quadratic(c: int) -> TermRatio:
    """t(n+1)/t(n) = (n + 1)(n + c)/(n + 1)^2: one upper parameter c, from
    the numerator c + (c+1) n + n^2."""
    return TermRatio(IntPolynomial([c, c + 1, 1]), IntPolynomial([1, 2, 1]), 1)


def wide_lead_quadratic(c: int) -> TermRatio:
    """t(n+1)/t(n) = 3(n + 1)(2n + c)/(n + 1)^2 for an odd c: one upper
    parameter c/2, from a numerator of content 3 and primitive leading
    coefficient 2."""
    return TermRatio(IntPolynomial([3 * c, 3 * (c + 2), 6]), IntPolynomial([1, 2, 1]), 1)


RECIPROCAL = TermRatio(IntPolynomial([1, 1]), IntPolynomial([2, 1]), 1)  # t_n = 1/(n+1)
CONSTANT = TermRatio(IntPolynomial([2]), IntPolynomial([3]), 1)  # t_n = (2/3)**n: degree 0 on both sides
ONE_F_ZERO = PrefactoredSeries(prefactor=1, series=HypSeries([1], [], Fraction(2, 3)))

LONG = 10**5000  # 16,610 bits; its 5,001 digits are past the default int-to-str limit of 4,300
past_digit_limit = pytest.mark.skipif(
    not 0 < sys.get_int_max_str_digits() <= 5000, reason="10**5000 prints on this Python"
)


def too_long_to_print(call, expected: str, id: str):
    """A refusal whose count is past the digit limit, so it is named by its bit length."""
    return pytest.param(5, call, expected, id=id, marks=past_digit_limit)


def km_refusals(name: str, f):
    """verify's refusals of m, then k, over the budget, for another (k, m) entry point f."""
    return [
        pytest.param(3, lambda: f(4, 4), "m = 4", id=f"{name}: m refuses"),
        pytest.param(5, lambda: f(6, 3), "k = 6", id=f"{name}: k refuses"),
        pytest.param(5, lambda: f(7, 6), "m = 6", id=f"{name}: m is checked before k"),
    ]


# (budget, call, expected): expected is the value the call returns under
# that budget, or, as a string, the count the refusal names
BOUNDARY = [
    pytest.param(5, lambda: eval_exact(terminating(5)), Fraction(40, 7), id="eval_exact admits"),
    pytest.param(5, lambda: eval_exact(terminating(6)), "termination index = 6", id="eval_exact refuses"),
    pytest.param(5, lambda: eval_numeric(terminating(5), 1e-12), pytest.approx(40 / 7), id="eval_numeric admits"),
    pytest.param(5, lambda: eval_numeric(terminating(6), 1e-12), "termination index = 6", id="eval_numeric refuses"),
    pytest.param(3, lambda: verify(3, 3).all_equal_one, True, id="m admits"),
    pytest.param(3, lambda: verify(4, 4).all_equal_one, "m = 4", id="m refuses"),
    pytest.param(10, lambda: verify(20, 20).all_equal_one, "m = 20", id="m refuses, not a failing report"),
    pytest.param(5, lambda: verify(5, 3).all_equal_one, True, id="k admits"),
    pytest.param(5, lambda: verify(6, 3).all_equal_one, "k = 6", id="k refuses"),
    pytest.param(5, lambda: verify(7, 6).all_equal_one, "m = 6", id="m is checked before k"),
    *km_refusals("lhs_sum", lhs_sum),
    *km_refusals("lhs_term", lambda k, m: lhs_term(k, m, 0)),
    *km_refusals("sesma_ratio", sesma_ratio),
    *km_refusals("rewrite", rewrite),
    pytest.param(10, lambda: len(sweep(3)), 10, id="sweep admits"),
    pytest.param(9, lambda: len(sweep(3)), "pair count = 10", id="sweep refuses"),
    # the terminating c is swapped into the b slot
    pytest.param(2, lambda: rhs_exact_terminating(WhippleMatch(5, Fraction(7, 2), -2)), Fraction(24, 5), id="whipple admits"),
    pytest.param(2, lambda: rhs_exact_terminating(WhippleMatch(5, Fraction(7, 2), -3)), "Pochhammer length = 3", id="whipple refuses"),
    # degree**2 times the bit length of the root bound 2**bits(c + 1): 4 * 7 = 28, then 4 * 8 = 32
    pytest.param(28, lambda: recognize(quadratic(62)).series.upper, (62,), id="root isolation admits"),
    pytest.param(28, lambda: recognize(quadratic(63)), "root isolation steps = 32", id="root isolation refuses"),
    # with the content 3 divided out, lead 2 adds one bit to c's coefficient:
    # 4 * bits(2**max(bits(c) + 1, bits(c + 2))) is 4 * 8 = 32, then 4 * 9 = 36
    pytest.param(32, lambda: recognize(wide_lead_quadratic(63)).series.upper, (Fraction(63, 2),), id="root isolation admits, |lead| > 1"),
    pytest.param(32, lambda: recognize(wide_lead_quadratic(65)), "root isolation steps = 36", id="root isolation refuses, |lead| > 1"),
    # a constant has no root to isolate: 1F0(1; ; 2/3), with the installed (n+1)
    pytest.param(0, lambda: recognize(CONSTANT), ONE_F_ZERO, id="a constant costs no root isolation step"),
    pytest.param(1, lambda: term_at(RECIPROCAL, 1), Fraction(1, 2), id="term_at admits"),
    pytest.param(1, lambda: term_at(RECIPROCAL, 2), "term index = 2", id="term_at refuses"),
    too_long_to_print(lambda: eval_exact(HypSeries([-LONG], [], 1)), "termination index of 16610 bits", "eval_exact, long"),
    too_long_to_print(lambda: eval_numeric(HypSeries([-LONG], [], 1), 1e-12), "termination index of 16610 bits", "eval_numeric, long"),
    too_long_to_print(lambda: term_at(RECIPROCAL, LONG), "term index of 16610 bits", "term_at, long"),
    too_long_to_print(lambda: verify(LONG, LONG), "m of 16610 bits", "verify, long"),
    too_long_to_print(lambda: sweep(LONG), "pair count of 33219 bits", "sweep, long"),
]


@pytest.mark.parametrize("budget, call, expected", BOUNDARY)
def test_each_site_admits_the_budget_and_refuses_one_step_more(monkeypatch, budget, call, expected):
    monkeypatch.setattr(hyper_series, "DEFAULT_MAX_TERMS", budget)
    if isinstance(expected, str):
        with pytest.raises(TermBudgetExceeded, match=f"^{expected} is over the budget of {budget} steps$"):
            call()
    else:
        assert call() == expected


SRC = pathlib.Path(hypcert.__file__).parent
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def names_in(node) -> set[str]:
    """Every name the node reads, imports or looks up as an attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def budget_uses(tree) -> list[str]:
    uses = ["reads DEFAULT_MAX_TERMS"] if "DEFAULT_MAX_TERMS" in names_in(tree) else []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None and "TermBudgetExceeded" in names_in(node.exc):
            uses.append(f"raises TermBudgetExceeded at line {node.lineno}")
    return uses


def test_only_hyper_series_reads_the_budget_or_raises_its_refusal():
    assert len(budget_uses(TREES["hyper_series.py"])) == 2
    elsewhere = [f"{name}: {use}" for name, tree in TREES.items() if name != "hyper_series.py" for use in budget_uses(tree)]
    assert elsewhere == []
