"""The public names of the package and of each module, pinned.

A name added to or removed from a module's ``__all__`` must be added to or
removed from the table below in the same change; the package's entry is
derived from the library modules' entries.
"""

import importlib
import inspect

import pytest

import hypcert
from hypcert import hyper_series

MODULES = {
    "hypcert.errors": ["HypergeometricError", "TermBudgetExceeded"],
    "hypcert.hyper_series": [
        "Classification",
        "HypSeries",
        "PrefactoredSeries",
        "SeriesKind",
        "classify",
        "eval_exact",
        "eval_numeric",
        "parametric_excess",
        "pochhammer",
    ],
    "hypcert.sesma_identity": ["IdentityReport", "lhs_sum", "lhs_term", "rewrite", "sesma_ratio", "sweep", "verify"],
    "hypcert.term_recognize": ["IntPolynomial", "TermRatio", "recognize", "term_at"],
    "hypcert.whipple": ["WhippleMatch", "log_gamma", "match_whipple", "rhs_exact_terminating", "rhs_numeric"],
}

PUBLIC = {
    # the package exports the union of the library modules' names
    "hypcert": sorted(name for names in MODULES.values() for name in names),
    **MODULES,
    "hypcert.cli": ["ParseError", "main", "parse_rational", "run"],
    "hypcert.record": ["Record"],
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
    "ZeroDenominator",
    "binomial",
    "exact_arith",
    "explore_sum",
    "factorial",
    "is_nonpositive_integer",
    "normalize",
    "rational_roots",
]


def public_names(module) -> list[str]:
    return sorted(module.__all__)


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


def test_package_exports_the_union_of_the_module_names():
    modules = [importlib.import_module(name) for name in MODULES]
    assert hypcert.__all__ == sorted(name for module in modules for name in module.__all__)


def test_budget_constant_is_set_through_hyper_series_only():
    assert hasattr(hyper_series, "DEFAULT_MAX_TERMS")
    assert not hasattr(hypcert, "DEFAULT_MAX_TERMS")


def test_one_term_budget():
    assert list(inspect.signature(hyper_series.eval_exact).parameters) == ["s"]
    assert list(inspect.signature(hyper_series.eval_numeric).parameters) == ["s", "tol"]
    assert not hasattr(hyper_series.Classification, "is_terminating")


def test_exact_arith_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("hypcert.exact_arith")
