"""The public names of the package and of each module, pinned.

A name added to or removed from an ``__all__`` must be added to or removed
from the table below in the same change.
"""

import importlib
import inspect

import pytest

from hypcert import hyper_series

ERRORS = ["HypergeometricError", "TermBudgetExceeded"]

PUBLIC = {
    "hypcert": sorted(
        ERRORS
        + [
            "Classification",
            "HypSeries",
            "IdentityReport",
            "IntPolynomial",
            "PrefactoredSeries",
            "SeriesKind",
            "TermRatio",
            "WhippleMatch",
            "classify",
            "eval_exact",
            "eval_numeric",
            "lhs_sum",
            "lhs_term",
            "log_gamma",
            "match_whipple",
            "parametric_excess",
            "pochhammer",
            "recognize",
            "rewrite",
            "rhs_exact_terminating",
            "rhs_numeric",
            "sesma_ratio",
            "sweep",
            "term_at",
            "verify",
        ]
    ),
    "hypcert.cli": ["ParseError", "ZeroDenominator", "main", "parse_rational", "run"],
    # errors.py has no __all__: its public names are the classes it defines
    "hypcert.errors": ERRORS,
    "hypcert.hyper_series": [
        "Classification",
        "DEFAULT_MAX_TERMS",
        "HypSeries",
        "PrefactoredSeries",
        "SeriesKind",
        "classify",
        "eval_exact",
        "eval_numeric",
        "parametric_excess",
        "pochhammer",
    ],
    "hypcert.record": ["Record"],
    "hypcert.sesma_identity": ["IdentityReport", "lhs_sum", "lhs_term", "rewrite", "sesma_ratio", "sweep", "verify"],
    "hypcert.term_recognize": ["IntPolynomial", "TermRatio", "recognize", "term_at"],
    "hypcert.whipple": ["WhippleMatch", "log_gamma", "match_whipple", "rhs_exact_terminating", "rhs_numeric"],
}

DELETED = [
    "AmbiguousCancellation",
    "DivergentSeries",
    "NonConvergedWithinBudget",
    "NotRationallyFactorable",
    "NotTerminating",
    "PoleEncountered",
    "PoleInClosedForm",
    "PoleOnPath",
    "Rational",
    "VerificationError",
    "binomial",
    "exact_arith",
    "explore_sum",
    "factorial",
    "normalize",
    "rational_roots",
]


def public_names(module) -> list[str]:
    if hasattr(module, "__all__"):
        return sorted(module.__all__)
    return sorted(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
    )


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_names_are_pinned_and_resolve(name):
    module = importlib.import_module(name)
    assert public_names(module) == PUBLIC[name]
    for attr in PUBLIC[name]:
        assert hasattr(module, attr), f"{name}.{attr} is listed but missing"


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_deleted_names_are_gone(name):
    module = importlib.import_module(name)
    assert [attr for attr in DELETED if hasattr(module, attr)] == []


def test_one_term_budget():
    assert list(inspect.signature(hyper_series.eval_exact).parameters) == ["s"]
    assert list(inspect.signature(hyper_series.eval_numeric).parameters) == ["s", "tol"]
    assert not hasattr(hyper_series.Classification, "is_terminating")


def test_exact_arith_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("hypcert.exact_arith")
