"""The error policy: a ValueError is a malformed argument (exit code 2), a
HypergeometricError a well-formed input with no answer (exit code 1)."""

import ast
import pathlib
from fractions import Fraction

import pytest

import hypcert
from hypcert import errors
from hypcert.errors import HypergeometricError
from hypcert.term_recognize import IntPolynomial, TermRatio, recognize
from hypcert.whipple import WhippleMatch, rhs_numeric

SRC = pathlib.Path(hypcert.__file__).parent
ERROR_CLASSES = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, Exception)}
RAISABLE = {"ValueError", "ParseError"} | ERROR_CLASSES


def raised_names(tree) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.append(exc.id)
    return names


def test_every_raise_follows_the_policy():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for name in raised_names(ast.parse(path.read_text())):
            # immutable records refuse assignment through the attribute protocol
            if name not in RAISABLE and (path.name, name) != ("record.py", "AttributeError"):
                stray.append(f"{path.name}: {name}")
    assert stray == []


@pytest.mark.parametrize(
    "refusal,message",
    [
        (lambda: recognize(TermRatio(num=IntPolynomial([]), den=IntPolynomial([1]), t0=1)), "^zero ratio numerator"),
        (lambda: TermRatio(num=IntPolynomial([1]), den=IntPolynomial([]), t0=1), "^term-ratio denominator must not be"),
        (lambda: rhs_numeric(WhippleMatch(Fraction(1), Fraction(1), Fraction(3, 2))), "^nonpositive Gamma argument"),
    ],
)
def test_well_formed_input_with_no_answer_raises_hypergeometric_error(refusal, message):
    with pytest.raises(HypergeometricError, match=message):
        refusal()
