"""The value contract of the package's immutable record types: construction,
equality, hashing, repr, immutability, copying and field validation."""

import copy
import inspect
import pickle
import re
from fractions import Fraction

import pytest

from sexagesimal import (
    ConstantEntry,
    EntryStatus,
    Expansion,
    GlyphTable,
    HeronResult,
    PlimptonRow,
    RowDiff,
    SexFloat,
    SexNumber,
    Triple,
    VerificationReport,
)
from sexagesimal.algorithms import DigitMismatch
from sexagesimal.constants import DigitDiff
from sexagesimal.glyphs import _DEFAULT_ALIASES, _DEFAULT_FORWARD

NUMBER = SexNumber(1, (1, 30), 1)
FLOAT = SexFloat(1, (1, 30), 1)
ROW = PlimptonRow(1, NUMBER, 119, 169)
ENTRY = ConstantEntry("light", "c", "N7", None, "m/s", Fraction(299792458), "PDG")
STATUS = EntryStatus(ENTRY, "match")

NUMBER_REPR = "SexNumber(sign=1, digits=(1, 30), frac_count=1)"
FLOAT_REPR = "SexFloat(sign=1, mantissa=(1, 30), exponent=1)"
ROW_REPR = f"PlimptonRow(index=1, ratio_digits={NUMBER_REPR}, a=119, d=169)"
ENTRY_REPR = (
    "ConstantEntry(name='light', symbol='c', glyphs='N7', exponent_glyphs=None, unit='m/s', "
    "reference_value=Fraction(299792458, 1), reference_source='PDG')"
)
STATUS_REPR = (
    f"EntryStatus(entry={ENTRY_REPR}, kind='match', published_digits=None, derived_digits=None, "
    "published_scale=None, derived_scale=None, digit_diffs=(), glyph=None, position=None)"
)

# type -> (positional arguments, the same record by keywords, its repr)
RECORDS = {
    SexNumber: ((1, (1, 30), 1), {"sign": 1, "digits": (1, 30), "frac_count": 1}, NUMBER_REPR),
    Expansion: (
        (1, (0,), (1,), (6,), 10, False, None, True),
        {
            "sign": 1, "int_digits": (0,), "frac_digits": (1,), "period": (6,),
            "base": 10, "terminates": False, "frac_len": None, "complete": True,
        },
        "Expansion(sign=1, int_digits=(0,), frac_digits=(1,), period=(6,), base=10, "
        "terminates=False, frac_len=None, complete=True)",
    ),
    SexFloat: ((1, (1, 30), 1), {"sign": 1, "mantissa": (1, 30), "exponent": 1}, FLOAT_REPR),
    Triple: ((3, 4, 5), {"a": 3, "b": 4, "d": 5}, "Triple(a=3, b=4, d=5)"),
    HeronResult: (
        (FLOAT, 3, Fraction(1, 7200)),
        {"value": FLOAT, "iterations": 3, "residual": Fraction(1, 7200)},
        f"HeronResult(value={FLOAT_REPR}, iterations=3, residual=Fraction(1, 7200))",
    ),
    PlimptonRow: ((1, NUMBER, 119, 169), {"index": 1, "ratio_digits": NUMBER, "a": 119, "d": 169}, ROW_REPR),
    RowDiff: (
        (1, ROW, NUMBER, (DigitMismatch(2, 30, 29),), None),
        {"index": 1, "row": ROW, "published": NUMBER, "mismatches": (DigitMismatch(2, 30, 29),), "error": None},
        f"RowDiff(index=1, row={ROW_REPR}, published={NUMBER_REPR}, "
        "mismatches=(DigitMismatch(position=2, published=30, computed=29),), error=None)",
    ),
    ConstantEntry: (
        ("light", "c", "N7", None, "m/s", Fraction(299792458), "PDG"),
        {
            "name": "light", "symbol": "c", "glyphs": "N7", "exponent_glyphs": None, "unit": "m/s",
            "reference_value": Fraction(299792458), "reference_source": "PDG",
        },
        ENTRY_REPR,
    ),
    EntryStatus: ((ENTRY, "match"), {"entry": ENTRY, "kind": "match"}, STATUS_REPR),
    VerificationReport: (((STATUS,),), {"statuses": (STATUS,)}, f"VerificationReport(statuses=({STATUS_REPR},))"),
}

# the fields of each type, in order, with the defaults of those that have one
SIGNATURES = {
    SexNumber: ["sign", "digits", "frac_count"],
    Expansion: ["sign", "int_digits", "frac_digits", "period", "base", "terminates", "frac_len", "complete"],
    SexFloat: ["sign", "mantissa", "exponent"],
    Triple: ["a", "b", "d"],
    HeronResult: ["value", "iterations", "residual"],
    PlimptonRow: ["index", "ratio_digits", "a", "d"],
    RowDiff: ["index", "row", "published", "mismatches", "error"],
    ConstantEntry: ["name", "symbol", "glyphs", "exponent_glyphs", "unit", "reference_value", "reference_source"],
    EntryStatus: [
        "entry", "kind", ("published_digits", None), ("derived_digits", None), ("published_scale", None),
        ("derived_scale", None), ("digit_diffs", ()), ("glyph", None), ("position", None),
    ],
    VerificationReport: ["statuses"],
}

ALL_TYPES = [*RECORDS, GlyphTable]
RECORD_IDS = [cls.__name__ for cls in RECORDS]


def _build(cls):
    return GlyphTable() if cls is GlyphTable else cls(*RECORDS[cls][0])


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
def test_positional_and_keyword_construction_agree(cls):
    args, kwargs, _ = RECORDS[cls]
    assert cls(*args) == cls(**kwargs)


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
def test_repr(cls):
    args, _, text = RECORDS[cls]
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls", SIGNATURES, ids=[cls.__name__ for cls in SIGNATURES])
def test_constructor_signature(cls):
    params = inspect.signature(cls).parameters.values()
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    got = [p.name if p.default is p.empty else (p.name, p.default) for p in params]
    assert got == SIGNATURES[cls]


@pytest.mark.parametrize("cls", ALL_TYPES, ids=[cls.__name__ for cls in ALL_TYPES])
def test_match_args_are_the_constructor_arguments(cls):
    assert cls.__match_args__ == tuple(inspect.signature(cls).parameters)


def test_positional_match_pattern():
    match ROW:
        case PlimptonRow(index, SexNumber(sign, digits, frac_count), a, d):
            assert (index, sign, digits, frac_count, a, d) == (1, 1, (1, 30), 1, 119, 169)
        case _:
            pytest.fail("no match")


def test_entry_status_defaults():
    status = EntryStatus(ENTRY, "undecodable")
    assert (status.published_digits, status.derived_digits, status.digit_diffs) == (None, None, ())
    assert (status.published_scale, status.derived_scale, status.glyph, status.position) == (None,) * 4
    assert EntryStatus(ENTRY, "undecodable", glyph="v", position=3) == EntryStatus(
        ENTRY, "undecodable", None, None, None, None, (), "v", 3
    )


def test_glyph_table_defaults():
    table = GlyphTable()
    assert dict(table.forward) == _DEFAULT_FORWARD
    assert dict(table.aliases) == _DEFAULT_ALIASES
    assert dict(table.reverse) == {g: v for v, g in _DEFAULT_FORWARD.items()}
    assert GlyphTable(forward=dict(_DEFAULT_FORWARD), aliases={}) == GlyphTable(_DEFAULT_FORWARD, {})
    assert table != GlyphTable(aliases={})
    assert repr(table) == (
        f"GlyphTable(forward=mappingproxy({_DEFAULT_FORWARD!r}), aliases=mappingproxy({_DEFAULT_ALIASES!r}), "
        f"reverse=mappingproxy({dict(table.reverse)!r}))"
    )


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
def test_equality_and_hash(cls):
    args = RECORDS[cls][0]
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, name) for name in cls.__annotations__))
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
def test_unequal_to_another_class_and_to_its_fields(cls):
    record = cls(*RECORDS[cls][0])
    fields = tuple(RECORDS[cls][1].values())
    assert record.__eq__(fields) is NotImplemented
    assert record != fields
    for other in RECORDS:
        if other is not cls:
            assert record != other(*RECORDS[other][0])
            assert record.__eq__(other(*RECORDS[other][0])) is NotImplemented


def test_field_values_decide_equality():
    assert SexNumber(1, (1, 30), 1) != SexNumber(-1, (1, 30), 1)
    assert Triple(3, 4, 5) != Triple(6, 8, 10)
    assert EntryStatus(ENTRY, "match") != EntryStatus(ENTRY, "match", position=1)
    # digits given as a list are stored as a tuple
    assert SexNumber(1, [1, 30], 1) == NUMBER and SexFloat(1, [1, 30], 1) == FLOAT


def test_subclass_keeps_the_fields_and_the_builders():
    # a subclass of a record has its parent's fields, and a builder called
    # on it makes the subclass's record with every field set
    class Number(SexNumber):
        pass

    class Float(SexFloat):
        pass

    assert Number._fields == SexNumber._fields and Number.__match_args__ == SexNumber.__match_args__
    assert Number(1, (1, 30), 1) != Number(1, (1, 31), 1)
    built = Number.from_digits(1, b"\x00\x01\x1e\x00", 2)
    assert type(built) is Number and built == Number(1, (1, 30), 1)
    assert repr(built).endswith(".Number(sign=1, digits=(1, 30), frac_count=1)")
    floats = (Float.from_sex_number(NUMBER), Float.zero(2))
    assert [type(f) for f in floats] == [Float, Float]
    assert floats == (Float(1, (1, 30), 1), Float(0, (0, 0), 0))


def test_glyph_table_is_unhashable():
    # its maps are read-only views of dicts, and hash like them
    with pytest.raises(TypeError):
        hash(GlyphTable())


@pytest.mark.parametrize("cls", ALL_TYPES, ids=[cls.__name__ for cls in ALL_TYPES])
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = _build(cls)
    name = next(iter(type(record).__annotations__))
    before = getattr(record, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, before)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    assert getattr(record, name) is before


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
def test_pickle_and_deepcopy_round_trip(cls):
    record = cls(*RECORDS[cls][0])
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(copied) is cls
        assert copied == record and repr(copied) == repr(record)


def test_plimpton_row_copies_keep_b():
    for copied in (pickle.loads(pickle.dumps(ROW)), copy.deepcopy(ROW)):
        assert (copied.b, copied.triple) == (120, Triple(119, 120, 169))


def test_glyph_table_cannot_be_pickled():
    # pinned as it stands: a mappingproxy has no pickle support
    for dump in (pickle.dumps, copy.deepcopy):
        with pytest.raises(TypeError, match="mappingproxy"):
            dump(GlyphTable())


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SexNumber(2, (1,), 0), "sign must be -1, 0 or 1, not 2"),
        (lambda: SexNumber(1, (), 0), "digit sequence is empty"),
        (lambda: SexNumber(1, (60,), 0), "sexagesit out of range: 60"),
        (lambda: SexNumber(1, (1, 2), 3), "frac_count out of range"),
        (lambda: SexNumber(0, (0, 0), 0), "zero must be digits=(0,), frac_count=0"),
        (lambda: SexNumber(1, (1,), 1), "integer part must carry at least one digit"),
        (lambda: SexNumber(1, (0, 1), 0), "leading zero in integer part"),
        (lambda: SexNumber(1, (0,), 0), "nonzero sign with zero digits"),
        (lambda: SexNumber(1, (1, 0), 1), "trailing zero fractional digit"),
        (lambda: SexFloat(-2, (1,), 0), "sign must be -1, 0 or 1, not -2"),
        (lambda: SexFloat(1, (), 0), "mantissa is empty"),
        (lambda: SexFloat(1, (1, 1.0), 0), "sexagesit out of range: 1.0"),
        (lambda: SexFloat(0, (0,), 1), "zero must have an all-zero mantissa and exponent 0"),
        (lambda: SexFloat(1, (0, 1), 0), "mantissa is not normalized (leading sexagesit 0)"),
        (lambda: GlyphTable(forward={0: "0"}), "forward map must cover exactly the values 0..59"),
        (lambda: GlyphTable(forward=dict.fromkeys(range(60), "x")), "forward map is not injective"),
        (lambda: GlyphTable(forward={**_DEFAULT_FORWARD, 0: "00"}), "glyph '00' is not a single character"),
        (lambda: GlyphTable(aliases={"ab": 1}), "glyph 'ab' is not a single character"),
        (lambda: GlyphTable(aliases={"A": 10}), "alias 'A' shadows a primary glyph"),
        (lambda: GlyphTable(aliases={"ϕ": 99}), "alias 'ϕ' maps to invalid value 99"),
        (lambda: Triple(4, 3, 5), "sides must satisfy 0 < a <= b < d"),
        (lambda: Triple(3, 4, 6), "not a Pythagorean triple"),
        (lambda: PlimptonRow(16, NUMBER, 119, 169), "row index must be in 1..15"),
        (lambda: PlimptonRow(1, NUMBER, 169, 119), "require 0 < a < d"),
        (lambda: PlimptonRow(1, NUMBER, 3, 6), "d^2 - a^2 is not a perfect square"),
        (lambda: ConstantEntry("x", "x", "1", None, "-", Fraction(0), "s"), "reference value must be positive"),
    ],
)
def test_invalid_fields_raise_value_error(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


# records with fields annotated tuple[...], as built from tuples, and the
# names of those fields
TUPLE_RECORDS = {
    SexNumber: (NUMBER, ("digits",)),
    SexFloat: (FLOAT, ("mantissa",)),
    Expansion: (Expansion(1, (1,), (2,), (3,), 60, False, None, True), ("int_digits", "frac_digits", "period")),
    RowDiff: (RowDiff(1, None, None, (DigitMismatch(2, 30, 29),), None), ("mismatches",)),
    EntryStatus: (
        EntryStatus(ENTRY, "mismatch", (1, 2), (1, 3), 0, 0, (DigitDiff(2, 2, 3),)),
        ("published_digits", "derived_digits", "digit_diffs"),
    ),
    VerificationReport: (VerificationReport((STATUS, STATUS)), ("statuses",)),
}


@pytest.mark.parametrize("make", [list, iter], ids=["list", "iterator"])
@pytest.mark.parametrize("cls", TUPLE_RECORDS, ids=[cls.__name__ for cls in TUPLE_RECORDS])
def test_tuple_fields_are_stored_as_tuples(cls, make):
    # a list or an iterator given for a tuple field is stored as a tuple, or
    # for a digit field as bytes that read as a tuple, so the record equals
    # and hashes as its tuple-built twin and cannot grow
    record, names = TUPLE_RECORDS[cls]
    fields = {name: getattr(record, name) for name in cls.__annotations__}
    built = cls(**{name: make(value) if name in names else value for name, value in fields.items()})
    kept = {name: vars(built)[key] for name, key in cls._digit_keys.items()}
    assert set(kept) <= set(names) and [type(digits) for digits in kept.values()] == [bytes] * len(kept)
    assert kept == {name: bytes(fields[name]) for name in kept}
    assert built == record and hash(built) == hash(record)
    assert [type(getattr(built, name)) for name in names] == [tuple] * len(names)
