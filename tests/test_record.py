"""The seven value classes: construction, immutability, equality, hash,
repr and pickling, as their frozen-dataclass forms behaved."""

import pickle
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from hypcert.hyper_series import Classification, HypSeries, PrefactoredSeries, SeriesKind
from hypcert.record import Record
from hypcert.sesma_identity import IdentityReport
from hypcert.term_recognize import IntPolynomial, TermRatio
from hypcert.whipple import WhippleMatch

SERIES = HypSeries((-1, 2), (3,), Fraction(1, 2))
SERIES_REPR = "HypSeries(upper=(Fraction(-1, 1), Fraction(2, 1)), lower=(Fraction(3, 1),), z=Fraction(1, 2))"
ONE = Fraction(1)

# (class, positional arguments, field values, repr); the keyword form of a
# case passes the field values by name
CASES = [
    (HypSeries, ((-1, 2), (3,), Fraction(1, 2)), ((Fraction(-1), Fraction(2)), (Fraction(3),), Fraction(1, 2)), SERIES_REPR),
    (
        PrefactoredSeries,
        (Fraction(1, 3), SERIES),
        (Fraction(1, 3), SERIES),
        f"PrefactoredSeries(prefactor=Fraction(1, 3), series={SERIES_REPR})",
    ),
    (
        Classification,
        (SeriesKind.TERMINATING, 2),
        (SeriesKind.TERMINATING, 2),
        "Classification(kind=<SeriesKind.TERMINATING: 'terminating'>, index=2)",
    ),
    (IntPolynomial, ([1, 2, 0],), ((1, 2),), "IntPolynomial(coefficients=(1, 2))"),
    (
        TermRatio,
        (IntPolynomial([-1, 1]), IntPolynomial([1, 1]), Fraction(5, 7)),
        (IntPolynomial([-1, 1]), IntPolynomial([1, 1]), Fraction(5, 7)),
        "TermRatio(num=IntPolynomial(coefficients=(-1, 1)), den=IntPolynomial(coefficients=(1, 1)), "
        "t0=Fraction(5, 7))",
    ),
    (
        WhippleMatch,
        (Fraction(3), Fraction(-1), Fraction(2)),
        (Fraction(3), Fraction(-1), Fraction(2)),
        "WhippleMatch(a=Fraction(3, 1), b=Fraction(-1, 1), c=Fraction(2, 1))",
    ),
    (
        IdentityReport,
        (2, 1, ONE, ONE, ONE),
        (2, 1, ONE, ONE, ONE),
        "IdentityReport(k=2, m=1, direct=Fraction(1, 1), via_series=Fraction(1, 1), "
        "via_whipple=Fraction(1, 1))",
    ),
]
IDS = [case[0].__name__ for case in CASES]


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


@pytest.mark.parametrize("cls,args,values,text", CASES, ids=IDS)
class TestValueClass:
    def test_positional_and_keyword_construction(self, cls, args, values, text):
        record = cls(*args)
        assert fields(record) == values
        by_keyword = cls(**dict(zip(cls.__slots__, args)))
        assert fields(by_keyword) == values
        assert by_keyword == record

    def test_immutable(self, cls, args, values, text):
        record = cls(*args)
        for name in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert fields(record) == values

    def test_equality_within_one_class_only(self, cls, args, values, text):
        record = cls(*args)
        assert record == cls(*args)
        assert record != values
        assert values != record
        twin = type("Twin", (Record,), {"__slots__": cls.__slots__})()
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(twin, name, value)
        assert fields(twin) == values
        assert record != twin
        assert twin != record
        others = [other(*other_args) for other, other_args, _, _ in CASES if other is not cls]
        assert all(record != other for other in others)

    def test_hash_and_repr(self, cls, args, values, text):
        record = cls(*args)
        assert hash(record) == hash(cls(*args)) == hash(values)
        assert repr(record) == text

    def test_pickle_round_trip(self, cls, args, values, text):
        record = cls(*args)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(record, protocol=protocol))
            assert type(copy) is cls
            assert copy == record
            assert fields(copy) == values


def test_classification_index_defaults_to_none():
    assert Classification(SeriesKind.CONVERGENT).index is None
    assert Classification(kind=SeriesKind.CONVERGENT) == Classification(SeriesKind.CONVERGENT, None)


def test_identity_report_all_equal_one_is_computed():
    assert IdentityReport(2, 1, ONE, ONE, ONE).all_equal_one is True
    assert IdentityReport(2, 1, ONE, Fraction(2), ONE).all_equal_one is False
    assert IdentityReport(2, 1, ONE, ONE, "error: boom").all_equal_one is False
    with pytest.raises(AttributeError):
        IdentityReport(2, 1, ONE, Fraction(2), ONE).all_equal_one = True


# each exact field of the four records that carry exact values, as the
# record built with one value in that field
EXACT_FIELDS = {
    "HypSeries.upper": lambda v: HypSeries((v, 2), (3,), Fraction(1, 2)),
    "HypSeries.lower": lambda v: HypSeries((-1, 2), (v,), Fraction(1, 2)),
    "HypSeries.z": lambda v: HypSeries((-1, 2), (3,), v),
    "PrefactoredSeries.prefactor": lambda v: PrefactoredSeries(v, SERIES),
    "TermRatio.t0": lambda v: TermRatio(IntPolynomial([-1, 1]), IntPolynomial([1, 1]), v),
    "WhippleMatch.a": lambda v: WhippleMatch(v, Fraction(-1), Fraction(2)),
    "WhippleMatch.b": lambda v: WhippleMatch(Fraction(3), v, Fraction(2)),
    "WhippleMatch.c": lambda v: WhippleMatch(Fraction(3), Fraction(-1), v),
}
EXACT_VALUES = {
    "float": (0.1, False),
    "str": ("1/2", False),
    "Decimal": (Decimal("0.5"), False),
    "complex": (1j, False),
    "bool": (True, True),
    "int": (3, True),
    "5000-bit-int": (2**5000, True),
    "Fraction": (Fraction(1, 3), True),
}


@pytest.mark.parametrize("value, accepted", EXACT_VALUES.values(), ids=EXACT_VALUES)
@pytest.mark.parametrize("build", EXACT_FIELDS.values(), ids=EXACT_FIELDS)
def test_exact_field_takes_ints_and_fractions_only(build, value, accepted):
    if not accepted:
        with pytest.raises(ValueError, match=f"^an exact value must be an int or a Fraction, got {re.escape(repr(value))}$"):
            build(value)
        return
    record, exact = build(value), build(Fraction(value))
    assert fields(record) == fields(exact)
    assert hash(record) == hash(exact)
    assert repr(record) == repr(exact)  # each value is stored as a Fraction
