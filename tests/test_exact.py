"""Rational parsing/arithmetic and exact base-60 / base-10 expansion."""

import contextlib
import copy
import inspect
import itertools
import math
import pickle
import random
import statistics
import sys
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import frac_stream, kept_digits, nonzero_rationals, rationals, run_python, sex_numbers
from sexagesimal import cli, exact
from sexagesimal.errors import quote
from sexagesimal.exact import (
    ROUNDING_MODES,
    _DC_BITS,
    _DEC_BLOCK,
    _DIV_BITS,
    _LANE_BITS,
    _LANE_DIGITS,
    _LONGDIV_DIGITS,
    _ONE_DIGIT,
    _TRANSLATE_DIGITS,
    _Record,
    _digits_of_int,
    _divmod,
    _emit_digits,
    _expand,
    _int_of_digits,
    _order,
    _split_denominator,
    _valuation,
)
from sexagesimal import (
    HALF_EVEN,
    HALF_UP,
    TRUNC,
    DomainError,
    ParseError,
    SexFloat,
    SexNumber,
    arith,
    decode_canonical,
    encode_glyphs,
    from_sexagesimal,
    int_sqrt,
    is_regular,
    normalize_float,
    parse_decimal,
    to_decimal,
    to_sexagesimal,
)


class TestParseDecimal:
    def test_plain_fraction(self):
        assert parse_decimal("1.5625") == Fraction(25, 16)

    def test_zero(self):
        assert parse_decimal("0") == Fraction(0)
        assert parse_decimal("-0.0") == Fraction(0)

    def test_scientific_is_exact(self):
        # must be the literal over a power of ten, no float intermediate
        value = parse_decimal("5.95374180765127242e-15")
        assert value == Fraction(595374180765127242, 10**32)

    def test_negative_and_exponent(self):
        assert parse_decimal("-2.5e3") == Fraction(-2500)
        assert parse_decimal("3e-5") == Fraction(3, 100000)

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 1),
            ("abc", 1),
            (".5", 1),
            ("1..5", 3),
            ("1.", 3),
            ("1e", 3),
            ("1e+5", 3),
            ("1.5x", 4),
            ("1 ", 2),
            ("--1", 2),
        ],
    )
    def test_errors_carry_position(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_decimal(text)
        assert err.value.position == position

    def test_exponent_past_the_int_string_limit(self):
        # 10**|exp| has |exp| + 1 digits, so |exp| obeys the literal limit
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("no int-string limit in force")
        assert parse_decimal(f"1e{limit}") == 10**limit
        assert parse_decimal(f"1e-{limit}") == Fraction(1, 10**limit)
        # the position is that of the exponent's first digit
        for text, position in ((f"1e{limit + 1}", 3), (f"0e-{limit + 1}", 4), ("2.5e-999999999", 6)):
            with pytest.raises(ParseError, match="exponent .* exceeds the int-string limit") as err:
                parse_decimal(text)
            assert err.value.position == position

    def test_diagnostic_quotes_a_clipped_literal(self):
        text = "1x" + "1" * 5000
        with pytest.raises(ParseError) as err:
            parse_decimal(text)
        assert err.value.position == 2
        assert str(err.value) == "unexpected character 'x' at position 2: '1x" + "1" * 38 + "'... (5002 characters)"


def _reference_parse_decimal(text: str) -> Fraction:
    """The character scanner that `parse_decimal` replaced, kept as the
    oracle of its values, messages and positions."""
    s = text
    n = len(s)
    i = 0

    def fail(msg: str, pos: int):
        raise exact.DecimalParseError(f"{msg} at position {pos}: {quote(text)}", position=pos)

    if n == 0:
        fail("empty decimal literal", 1)
    sign = 1
    if s[i] == "-":
        sign = -1
        i += 1

    def scan_digits(what: str) -> str:
        nonlocal i
        start = i
        while i < n and s[i] in "0123456789":
            i += 1
        if i == start:
            fail(f"expected {what}", i + 1)
        return s[start:i]

    def to_int(digits: str, pos: int) -> int:
        try:
            return int(digits)
        except ValueError:  # ASCII digits fail only CPython's int-string limit
            fail(f"{len(digits)} digits exceed the int-string limit of {sys.get_int_max_str_digits()}", pos)

    digits_at = i + 1
    int_part = scan_digits("digit")
    frac_part = ""
    if i < n and s[i] == ".":
        i += 1
        frac_part = scan_digits("digit after '.'")
    exp = 0
    if i < n and s[i] in "eE":
        i += 1
        exp_sign = 1
        if i < n and s[i] == "-":
            exp_sign = -1
            i += 1
        exp_at = i + 1
        exp = exp_sign * to_int(scan_digits("exponent digit"), exp_at)
    if i != n:
        fail(f"unexpected character {s[i]!r}", i + 1)

    value = Fraction(to_int(int_part + frac_part, digits_at), 10 ** len(frac_part))
    if exp:
        limit = sys.get_int_max_str_digits()
        if limit and abs(exp) > limit:
            fail(f"exponent {exp} exceeds the int-string limit of {limit}", exp_at)
        value *= Fraction(10) ** exp
    return sign * value


def _parse_outcome(parse, text):
    """The value, or the error's type, message and position."""
    try:
        return parse(text)
    except ParseError as err:
        return type(err), str(err), err.position


@contextlib.contextmanager
def _int_max_str_digits(limit):
    """CPython's int-string limit set to ``limit`` (None: left as it is),
    and restored afterwards."""
    saved = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


# the limit in force, the least CPython accepts, and none
_STR_DIGIT_LIMITS = [None, 640, 0]


class TestParseDecimalAgainstScanner:
    """`parse_decimal` gives the character scanner's value, or its error
    message and position, on every text."""

    @staticmethod
    def _check(texts):
        for text in texts:
            assert _parse_outcome(parse_decimal, text) == _parse_outcome(_reference_parse_decimal, text), text

    @pytest.mark.parametrize("limit", _STR_DIGIT_LIMITS)
    def test_every_short_text(self, limit):
        alphabet = "01.-eE x\u0663"
        with _int_max_str_digits(limit):
            self._check("".join(t) for n in range(6) for t in itertools.product(alphabet, repeat=n))

    # a static method: a parametrized @given method is called with a new
    # self per parameter, which Hypothesis's differing_executors health
    # check refuses wherever its pytest plugin does not suppress it
    @staticmethod
    @pytest.mark.parametrize("limit", _STR_DIGIT_LIMITS)
    @given(
        st.one_of(
            st.text(alphabet="0123456789.-eE x\u0663+", max_size=40),
            st.from_regex(r"-?[0-9]{0,20}(\.[0-9]{0,20})?([eE]-?[0-9]{0,4})?.?", fullmatch=True),
            st.text(max_size=12),
        )
    )
    def test_random_texts(limit, text):
        with _int_max_str_digits(limit):
            TestParseDecimalAgainstScanner._check([text])

    @pytest.mark.parametrize("limit", _STR_DIGIT_LIMITS)
    def test_around_the_int_string_limit(self, limit):
        with _int_max_str_digits(limit):
            size = sys.get_int_max_str_digits() or 4300  # with no limit, the default's sizes
            texts = []
            for k in (size - 1, size, size + 1):
                # k-digit exponents of value 7 and 0: no limit leaves a
                # larger one's power of ten to compute
                exps = ["0" * (k - 1) + "7", "-" + "0" * k]
                for tail in ("", "x", ".", "e", "-"):
                    texts += ["7" * k + tail, "-0." + "3" * k + tail, *(f"2.5e{e}{tail}" for e in exps)]
                texts += [f"1e{k}", f"1e-{k}", f"-3.25E{k}", f"0e-{k}x"]
            self._check(texts)
        # an over-long exponent is reported before a trailing character, and
        # that before an over-long mantissa
        with _int_max_str_digits(4300):
            for text, position in (("1e" + "9" * 5000 + "x", 3), ("9" * 5000 + "x", 5001)):
                with pytest.raises(ParseError) as err:
                    parse_decimal(text)
                assert err.value.position == position


class TestArith:
    def test_add(self):
        assert arith("add", Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)

    def test_mul_against_integer_oracle(self):
        # (d/b)^2 for the first tablet row, checked by plain integer products
        got = arith("mul", Fraction(169, 120), Fraction(169, 120))
        assert got.numerator == 169 * 169
        assert got.denominator == 120 * 120

    def test_sub(self):
        assert arith("sub", Fraction(1, 3), Fraction(1, 2)) == Fraction(-1, 6)
        assert arith("sub", Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 6)

    def test_div(self):
        assert arith("div", Fraction(1), Fraction(7)) == Fraction(1, 7)

    def test_div_by_zero(self):
        with pytest.raises(DomainError):
            arith("div", Fraction(1), Fraction(0))

    def test_unknown_op(self):
        with pytest.raises(DomainError):
            arith("pow", Fraction(1), Fraction(2))

    @given(rationals(), rationals())
    def test_results_are_reduced(self, x, y):
        got = arith("mul", x, y)
        assert got.denominator > 0
        import math

        assert math.gcd(abs(got.numerator), got.denominator) == 1


class TestIntSqrt:
    def test_tablet_row_oracle(self):
        # 169^2 - 119^2 = 14400 and 120^2 = 14400
        assert 169**2 - 119**2 == 14400 == 120**2
        assert int_sqrt(14400) == (120, True)

    def test_not_perfect(self):
        assert int_sqrt(2) == (1, False)

    def test_zero(self):
        assert int_sqrt(0) == (0, True)

    def test_negative(self):
        with pytest.raises(DomainError):
            int_sqrt(-1)

    @given(st.integers(0, 10**30))
    def test_floor_property(self, n):
        root, perfect = int_sqrt(n)
        assert root**2 <= n < (root + 1) ** 2
        assert perfect == (root**2 == n)


class TestSexNumber:
    def test_canonicalization(self):
        x = SexNumber.from_digits(1, [0, 0, 1, 30, 0], 2)
        assert x == SexNumber(1, (1, 30), 1)

    def test_purely_fractional_gets_leading_zero(self):
        x = SexNumber.from_digits(1, [30], 1)
        assert x.digits == (0, 30)
        assert x.int_digits == (0,)

    def test_zero_is_unique(self):
        assert SexNumber.from_digits(1, [0, 0], 1) == SexNumber(0, (0,), 0)
        assert SexNumber.from_digits(-1, [0], 0).is_zero

    def test_negative_frac_count_rejected(self):
        with pytest.raises(ValueError, match=r"^frac_count out of range$"):
            SexNumber.from_digits(1, [1, 30], -1)

    def test_str_is_canonical_text(self):
        assert str(SexNumber(-1, (1, 59, 0, 15), 3)) == "-1;59:0:15"
        assert str(SexNumber(0, (0,), 0)) == "0"

    @pytest.mark.parametrize(
        "sign,digits,frac",
        [
            (2, (1,), 0),
            (1, (), 0),
            (1, (60,), 0),
            (1, (0, 1), 0),  # leading zero on a nonzero integer part
            (1, (1, 0), 1),  # trailing zero fractional digit
            (0, (1,), 0),
            (1, (1,), 2),
        ],
    )
    def test_invalid_forms_rejected(self, sign, digits, frac):
        with pytest.raises(ValueError):
            SexNumber(sign, digits, frac)


class TestRecordConstructor:
    """`_Record` writes the constructor of a class that annotates fields and
    defines no ``__init__``; a record class made here, not the package's."""

    class Pair(_Record):
        left: int
        right: str = "x"

    def test_positional_keyword_and_default(self):
        Pair = self.Pair
        assert Pair(1, "y") == Pair(right="y", left=1) == Pair(1, right="y")
        assert vars(Pair(1)) == {"left": 1, "right": "x"}
        assert repr(Pair(1)).endswith("Pair(left=1, right='x')")
        with pytest.raises(AttributeError, match="cannot assign to field 'left'"):
            Pair(1).left = 2

    def test_argument_errors(self):
        with pytest.raises(TypeError, match=r"Pair\.__init__\(\) missing 1 required positional argument: 'left'$"):
            self.Pair()
        with pytest.raises(TypeError, match=r"Pair\.__init__\(\) got an unexpected keyword argument 'middle'$"):
            self.Pair(1, middle=2)
        with pytest.raises(TypeError, match=r"Pair\.__init__\(\) takes from 2 to 3 positional arguments but 4 were given$"):
            self.Pair(1, "y", 3)

    def test_match_args_and_signature(self):
        Pair = self.Pair
        assert Pair.__match_args__ == ("left", "right")
        params = list(inspect.signature(Pair).parameters.values())
        assert [(p.name, p.kind, p.default) for p in params] == [
            ("left", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
            ("right", inspect.Parameter.POSITIONAL_OR_KEYWORD, "x"),
        ]
        match Pair(1, "y"):
            case Pair(left, right):
                assert (left, right) == (1, "y")

    def test_subclass_fields_follow_the_parents(self):
        class Triplet(self.Pair):
            extra: tuple = ()

        assert Triplet(1) == Triplet(1, "x", ()) and Triplet(1, extra=(2,)).extra == (2,)
        assert tuple(inspect.signature(Triplet).parameters) == Triplet.__match_args__ == ("left", "right", "extra")

    def test_subclass_without_annotations_keeps_the_parents_init(self):
        class Number(SexNumber):
            pass

        class Other(self.Pair):
            pass

        assert Number.__init__ is SexNumber.__init__ and Other.__init__ is self.Pair.__init__
        with pytest.raises(ValueError, match="^sign must be -1, 0 or 1, not 2$"):
            Number(2, (1,), 0)
        with pytest.raises(ValueError, match="^trailing zero fractional digit$"):
            Number(1, (1, 0), 1)
        assert type(Other(1)) is Other and Other(1) != self.Pair(1)

    class Checked(_Record):
        """Three fields and a ``_check`` that counts its calls and records
        the fields it sees; a negative ``low`` is refused."""

        low: int
        high: int
        label: str = "c"
        seen = []

        def _check(self):
            self.seen.append(dict(vars(self)))
            if self.low < 0:
                raise ValueError(f"low must be at least 0, not {self.low}")

    def test_check_runs_once_after_every_field(self, monkeypatch):
        Checked = self.Checked
        monkeypatch.setattr(Checked, "seen", [])
        Checked(1, 2, "x")
        Checked(high=2, label="x", low=1)
        Checked(1, high=2)
        assert Checked.seen == [
            {"low": 1, "high": 2, "label": "x"},
            {"low": 1, "high": 2, "label": "x"},
            {"low": 1, "high": 2, "label": "c"},
        ]

    def test_check_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(self.Checked, "seen", [])
        with pytest.raises(ValueError, match="^low must be at least 0, not -1$") as caught:
            self.Checked(-1, 2)
        assert type(caught.value) is ValueError and caught.value.__cause__ is None
        assert len(self.Checked.seen) == 1

    def test_subclass_check_runs_after_its_own_field(self, monkeypatch):
        class Wider(self.Checked):
            extra: int = 0

        monkeypatch.setattr(self.Checked, "seen", [])
        Wider(1, 2, extra=3)
        assert self.Checked.seen == [{"low": 1, "high": 2, "label": "c", "extra": 3}]
        with pytest.raises(ValueError, match="^low must be at least 0, not -5$"):
            Wider(-5, 2)

    def test_build_skips_the_check(self, monkeypatch):
        monkeypatch.setattr(self.Checked, "seen", [])
        built = self.Checked._build(-1, 2, "x")
        assert self.Checked.seen == [] and vars(built) == {"low": -1, "high": 2, "label": "x"}

    def test_tuple_annotated_fields_are_stored_as_tuples(self):
        class Holder(_Record):
            items: tuple[int, ...]
            maybe: tuple[str, ...] | None
            other: list

        given = [1]
        held = Holder((n for n in range(3)), None, given)
        assert type(held.items) is tuple and held.items == (0, 1, 2)
        assert held.maybe is None and held.other is given
        assert Holder([], iter("ab"), given).maybe == ("a", "b")


def _longdiv(num, den, base=60, limit=500):
    """Independent long-division oracle: fractional digits plus repetend."""
    digits, seen, rem = [], {}, num % den
    while rem and rem not in seen and len(digits) < limit:
        seen[rem] = len(digits)
        rem *= base
        digits.append(rem // den)
        rem %= den
    if rem == 0:
        return digits, []
    start = seen[rem]
    return digits[:start], digits[start:]


@st.composite
def _periodic_cases(draw):
    # max_frac one either side of pre-period + k periods
    x = Fraction(draw(st.integers(-10**6, 10**6)), draw(st.sampled_from([1, 2**3, 3 * 5**2, 60**2])))
    x /= draw(st.integers(1, 4_000))
    pre, period = _longdiv(x.numerator, x.denominator, limit=10**5)
    k = draw(st.integers(0, 3)) if period else 0
    return x, max(0, len(pre) + k * len(period) + draw(st.integers(-1, 1)))


@st.composite
def _carry_cases(draw):
    # runs of 59 on both sides of the point, then a tail that rounds up
    # through them or not
    run = draw(st.integers(0, 4))
    tail = draw(st.fractions(0, 1, max_denominator=200).filter(lambda t: t < 1))
    x = 60 ** draw(st.integers(0, 3)) - Fraction(1 - tail, 60**run)
    return draw(st.sampled_from([-1, 1])) * x, max(0, run + draw(st.integers(-1, 1)))


@st.composite
def _tie_cases(draw):
    # halfway between two numbers of max_frac places, with either parity
    max_frac = draw(st.integers(0, 4))
    x = Fraction(2 * draw(st.integers(0, 60**3)) + 1, 2 * 60**max_frac)
    return draw(st.sampled_from([-1, 1])) * x, max_frac


class TestToSexagesimal:
    def test_tablet_ratio(self):
        number, info = to_sexagesimal(Fraction(25, 16), 4)
        assert number == SexNumber(1, (1, 33, 45), 2)
        assert number.canonical_text() == "1;33:45"
        assert info.terminates_within(4)

    def test_single_negative_power(self):
        number, info = to_sexagesimal(Fraction(1, 60), 4)
        assert number.canonical_text() == "0;1"
        assert info.terminates and info.frac_len == 1

    def test_one_seventh_repetend(self):
        pre_oracle, period_oracle = _longdiv(1, 7)
        number, info = to_sexagesimal(Fraction(1, 7), 6, detect_repetend=True)
        assert period_oracle == [8, 34, 17]
        assert info.period == tuple(period_oracle)
        assert info.frac_digits == tuple(pre_oracle)
        assert not info.terminates
        assert number.frac_digits == (8, 34, 17, 8, 34, 17)

    def test_terminates_beyond_budget(self):
        # 1/3600 needs two fractional sexagesits
        number, info = to_sexagesimal(Fraction(1, 3600), 1)
        assert number.is_zero
        assert info.terminates and info.frac_len == 2
        assert not info.terminates_within(1)
        assert info.terminates_within(2)

    def test_negative_max_frac_rejected(self):
        with pytest.raises(DomainError):
            to_sexagesimal(Fraction(1), -1)


class TestRounding:
    # 1/120 is exactly half of the last kept place at max_frac=1
    def test_truncate(self):
        number, _ = to_sexagesimal(Fraction(1, 120), 1, TRUNC)
        assert number.is_zero

    def test_half_up(self):
        number, _ = to_sexagesimal(Fraction(1, 120), 1, HALF_UP)
        assert number.canonical_text() == "0;1"

    def test_half_even_ties(self):
        down, _ = to_sexagesimal(Fraction(1, 120), 1, HALF_EVEN)  # 0.5 -> 0
        up, _ = to_sexagesimal(Fraction(3, 120), 1, HALF_EVEN)  # 1.5 -> 2
        keep, _ = to_sexagesimal(Fraction(5, 120), 1, HALF_EVEN)  # 2.5 -> 2
        assert down.is_zero
        assert up.canonical_text() == "0;2"
        assert keep.canonical_text() == "0;2"

    def test_magnitude_symmetry(self):
        number, _ = to_sexagesimal(Fraction(-1, 120), 1, HALF_UP)
        assert number.canonical_text() == "-0;1"

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            to_sexagesimal(Fraction(1), 1, "nearest")

    @pytest.mark.parametrize(
        "x, max_frac, mode, expected",
        [
            # a carry out of an all-59 integer part
            ("59;59:59:45", 2, HALF_UP, "1:0"),
            ("59;59:59:45", 2, HALF_EVEN, "1:0"),
            ("59;59:59:45", 2, TRUNC, "59;59:59"),
            ("-59;59:59:30", 2, HALF_UP, "-1:0"),
            # half-even ties: up from an odd last digit, kept on an even one
            ("2;59:30", 1, HALF_EVEN, "3"),
            ("2;58:30", 1, HALF_EVEN, "2;58"),
            ("1;0:30", 1, HALF_EVEN, "1"),
        ],
    )
    def test_carries_and_ties(self, x, max_frac, mode, expected):
        for detect in (False, True):
            number, _ = to_sexagesimal(from_sexagesimal(decode_canonical(x)), max_frac, mode, detect)
            assert number.canonical_text() == expected

    @settings(max_examples=300)
    @given(st.one_of(_periodic_cases(), _carry_cases(), _tie_cases()), st.sampled_from(ROUNDING_MODES),
           st.booleans(), st.sampled_from([2, 5, 10**6]))
    def test_against_integer_rounding(self, case, mode, detect, bound):
        # the number is x rounded at max_frac places, computed here by one
        # integer divmod and each mode's rule
        x, max_frac = case
        old = exact.PERIOD_STATE_BOUND
        exact.PERIOD_STATE_BOUND = bound
        try:
            number, _ = to_sexagesimal(x, max_frac, mode, detect)
        finally:
            exact.PERIOD_STATE_BOUND = old
        q, r = divmod(abs(x.numerator) * 60**max_frac, x.denominator)
        if mode == HALF_UP:
            q += 2 * r >= x.denominator
        elif mode == HALF_EVEN:
            q += 2 * r > x.denominator or (2 * r == x.denominator and q % 2 == 1)
        assert from_sexagesimal(number) == (1 if x > 0 else -1) * Fraction(q, 60**max_frac)

    @pytest.mark.parametrize(
        "x, max_frac, detect, bound",
        [
            (Fraction(-1, 7), 7, True, 10**6),  # periodic
            (Fraction(1, 7), 7, True, 2),  # a give-up before max_frac
            (Fraction(1, 7), 7, False, 10**6),  # no detection
            (Fraction(7, 3600), 1, True, 10**6),  # terminates beyond the budget
        ],
    )
    def test_rounds_from_its_expansion(self, x, max_frac, detect, bound, monkeypatch):
        def refuse(*args):
            raise AssertionError("converted a second time")

        monkeypatch.setattr(exact, "_round_to", refuse)
        monkeypatch.setattr(exact, "PERIOD_STATE_BOUND", bound)
        for mode in ROUNDING_MODES:
            number, _ = to_sexagesimal(x, max_frac, mode, detect)
            assert number.frac_count <= max_frac and abs(from_sexagesimal(number) - x) < Fraction(1, 60**max_frac)

    @given(rationals(max_num=10**30, max_den=2**96), st.integers(0, 300), st.sampled_from(ROUNDING_MODES))
    def test_detection_does_not_change_the_number(self, x, max_frac, mode):
        # with detection the remainder after max_frac places comes from a
        # modular power, without it from the expansion's own long division
        off, _ = to_sexagesimal(x, max_frac, mode)
        on, _ = to_sexagesimal(x, max_frac, mode, detect_repetend=True)
        assert off == on

    def test_remainder_comes_with_the_expansion(self, monkeypatch):
        # without detection the expansion's digits are the number's, and the
        # remainder after them is not found a second time
        calls = []
        emit = exact._emit_digits
        monkeypatch.setattr(exact, "_emit_digits", lambda *args: calls.append(args[4]) or emit(*args))
        for mode in ROUNDING_MODES:
            calls.clear()
            number, _ = to_sexagesimal(Fraction(1, 7), 7, mode)  # the next place holds 34
            assert calls == [7]
            assert number.canonical_text() == ("0;8:34:17:8:34:17:8" if mode == TRUNC else "0;8:34:17:8:34:17:9")

    @pytest.mark.parametrize("detect", [False, True])
    def test_million_places_within_deadline(self, detect):
        # 1/999983 has a period of 999982 sexagesits, so places 999983 to
        # 10**6 repeat places 1 to 18; converting floor(60**(10**6) / 999983)
        # to digits a second time took about 33 s
        code = (
            "from fractions import Fraction\n"
            "from sexagesimal import to_sexagesimal\n"
            "for mode in ('trunc', 'half-up', 'half-even'):\n"
            f"    number, _ = to_sexagesimal(Fraction(1, 999983), 10**6, mode, detect_repetend={detect})\n"
            "    print(number.frac_count, *number.digits[:8], *number.digits[-8:])\n"
        )
        proc = run_python(["-c", code], timeout=15)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 3
        q, r = divmod(60**18, 999983)
        head = [0] + frac_stream(1, 999983, 60, 7)
        for line, up in zip(lines, (False, 2 * r >= 999983, 2 * r > 999983)):
            tail = frac_stream(q + up, 60**18, 60, 18)[-8:]
            assert [int(d) for d in line.split()] == [10**6, *head, *tail]


class TestFromSexagesimal:
    def test_tablet_ratio_digits(self):
        x = SexNumber(1, (1, 59, 0, 15), 3)
        assert from_sexagesimal(x) == Fraction(28561, 14400)

    def test_half(self):
        assert from_sexagesimal(SexNumber(1, (0, 30), 1)) == Fraction(1, 2)

    def test_integer(self):
        assert from_sexagesimal(SexNumber(1, (2, 49), 0)) == 169

    @given(sex_numbers())
    def test_round_trip(self, x):
        value = from_sexagesimal(x)
        back, info = to_sexagesimal(value, x.frac_count, TRUNC)
        assert back == x
        assert info.terminates_within(x.frac_count)

    # past _DC_BITS bits of the digits' integer N, N / 60**f is reduced by
    # valuations of 2, 3 and 5, not by gcd; the result must be the very
    # Fraction the constructor gives
    @staticmethod
    def _assert_exact(x):
        value = from_sexagesimal(x)
        expected = Fraction(x.sign * _int_of_digits(x.digits), 60**x.frac_count)
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
        assert hash(value) == hash(expected)
        assert value + Fraction(1, 7) == expected + Fraction(1, 7)
        assert value * Fraction(6, 5) - expected == expected / 5
        assert str(value) == str(expected)

    @pytest.mark.parametrize("family", [45, 15, 2, 30])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_power_families(self, family, sign):
        # powers of 2, 3 and 5, high and low, with caps at f = 0 and small f
        for k in (3, 11, 12, 13, 17, 18, 19, 60, 90, 200, 400, 1500):
            digits = _digits_of_int(family**k)
            for f in {0, 1, 2, 11, 12, 13, 17, 18, 19, 40, len(digits) // 2, len(digits)}:
                self._assert_exact(SexNumber.from_digits(sign, digits, f))
                # a cofactor coprime to 30 keeps the low valuations
                self._assert_exact(SexNumber.from_digits(sign, _digits_of_int(family**k * (2**_DC_BITS + 7)), f))

    @pytest.mark.parametrize("f", [0, 1, 17, 18, 19, 300])
    def test_no_gcd_past_the_cutoff(self, f):
        # N divisible by 3**18 * 5**12, and by 3**f: no gcd of an operand
        # past _DC_BITS, where it is quadratic
        widths = []
        gcd = math.gcd

        def counted(*args):
            widths.append(max(a.bit_length() for a in args))
            return gcd(*args)

        for n in (3**18 * 5**12 * (2**_DC_BITS + 7), 3 ** max(f, 18) * 5**12 * 2**f * (2**_DC_BITS + 7)):
            x = SexNumber.from_digits(-1, _digits_of_int(n), f)
            with mock.patch.object(math, "gcd", counted):
                from_sexagesimal(x)
            self._assert_exact(x)
        assert max(widths, default=0) <= _DC_BITS

    @given(st.sampled_from([2, 3, 5]), st.integers(0, 300), st.integers(0, 400), st.integers(0, 2**600))
    def test_capped_valuation(self, p, v, cap, seed):
        n = p**v * (seed * p + 1)
        w = min(v, cap)
        assert _valuation(n, p, cap) == (w, n // p**w)

    @pytest.mark.parametrize("cap", [0, 1, 5, 100])
    def test_valuation_divides_by_no_power_past_its_cap(self, cap):
        # N = 3**20000: a valuation capped at f costs O(log f) divisions by
        # powers of at most 3**f, not O(log 20000) up to 3**16384
        divisors = []
        divmod_ = exact._divmod

        def counted(a, b):
            divisors.append(b)
            return divmod_(a, b)

        with mock.patch.object(exact, "_divmod", counted):
            assert _valuation(3**20000, 3, cap) == (cap, 3 ** (20000 - cap))
        assert all(b <= 3**cap for b in divisors)

    def test_valuation_divides_by_its_top_power_once(self):
        # the squaring loop's last successful division by 3**(2**17) is the
        # descent's first step; the earlier loop below repeated it
        def reference(n, p, cap):
            powers = []
            q = p
            while 1 << len(powers) <= cap and exact._divmod(n, q)[1] == 0:
                powers.append(q)
                q *= q
            v = 0
            for j in reversed(range(len(powers))):
                if v + (1 << j) <= cap:
                    quotient, r = exact._divmod(n, powers[j])
                    if r == 0:
                        n = quotient
                        v += 1 << j
            return v, n

        n = 3**200000 * 7
        counts = []
        divmod_ = exact._divmod

        def counted(a, b):
            counts[-1] += 1
            return divmod_(a, b)

        with mock.patch.object(exact, "_divmod", counted):
            counts.append(0)
            expected = reference(n, 3, 10**6)
            counts.append(0)
            assert _valuation(n, 3, 10**6) == expected == (200000, 7)
        assert counts == [37, 36]

    @given(
        st.integers(0, 2**64),
        st.integers(_DC_BITS - 40, _DC_BITS + 200),
        st.integers(0, 50),
        st.integers(0, 22),
        st.integers(0, 15),
        st.integers(0, 40),
        st.sampled_from([-1, 1]),
    )
    def test_valuations_straddle_the_cutoff(self, seed, bits, twos, threes, fives, frac_count, sign):
        # N = 2**twos * 3**threes * 5**fives * R with R coprime to 30, on both
        # sides of _DC_BITS, and f below, at and above each valuation
        cofactor = random.Random(seed).getrandbits(bits) * 30 + 1
        n = 2**twos * 3**threes * 5**fives * cofactor
        digits = _digits_of_int(n)
        self._assert_exact(SexNumber.from_digits(sign, digits, min(frac_count, len(digits))))


class TestToDecimal:
    @pytest.mark.parametrize(
        "power,preperiod,period",
        [
            (1, "0.01", "6"),
            (2, "0.0002", "7"),
            (3, "0.000004", "629"),
        ],
    )
    def test_negative_powers_of_sixty(self, power, preperiod, period):
        exp = to_decimal(Fraction(1, 60**power))
        assert exp.preperiod_text == preperiod
        assert exp.period_text == period

    def test_terminating(self):
        exp = to_decimal(Fraction(25, 16))
        assert exp.preperiod_text == "1.5625"
        assert exp.period == ()
        assert exp.complete and exp.terminates

    def test_no_detection_truncates(self):
        exp = to_decimal(Fraction(1, 3), max_frac=4, detect_repetend=False)
        assert exp.frac_digits == (3, 3, 3, 3)
        assert not exp.complete
        assert not exp.terminates

    def test_negative_max_frac_rejected(self):
        with pytest.raises(DomainError, match=r"^max_frac must be non-negative$"):
            to_decimal(Fraction(1, 3), -1)

    def test_str_forms(self):
        assert str(to_decimal(Fraction(1, 60))) == "0.01(6)"
        assert str(to_decimal(Fraction(1, 3))) == "0.(3)"
        assert str(to_decimal(Fraction(-3, 2))) == "-1.5"
        assert str(to_decimal(Fraction(1, 3), 4, detect_repetend=False)) == "0.3333..."

    @given(nonzero_rationals())
    def test_termination_matches_regularity_base10(self, x):
        exp = to_decimal(x, max_frac=0, detect_repetend=False)
        den = x.denominator
        while den % 2 == 0:
            den //= 2
        while den % 5 == 0:
            den //= 5
        assert exp.terminates == (den == 1)


class TestInvariants:
    @given(nonzero_rationals())
    def test_termination_iff_regular_denominator(self, x):
        _, info = to_sexagesimal(x, 0, detect_repetend=False)
        assert info.terminates == is_regular(x.denominator).is_regular

    @pytest.mark.parametrize("n", range(1, 13))
    def test_cross_base_identity(self, n):
        assert Fraction(10) ** -n == Fraction(6) ** n * Fraction(60) ** -n

    def test_decimal_repetend_minimality_brute_force(self):
        # every emitted period must not be a repetition of a shorter block
        for q in range(2, 10001):
            period = to_decimal(Fraction(1, q), max_frac=0).period
            size = len(period)
            for block in range(1, size):
                if size % block == 0:
                    assert period != period[:block] * (size // block), f"1/{q}"


def _naive_digits(n, base, width=1):
    """Digits by one divmod per digit: the plain loop the kernel must match."""
    digits = []
    while n:
        n, d = divmod(n, base)
        digits.append(d)
    digits += [0] * (width - len(digits))
    return digits[::-1]


def _naive_int(digits, base):
    value = 0
    for d in digits:
        value = value * base + d
    return value


class TestDigitKernel:
    # the divide-and-conquer path starts above _DC_BITS bits and splits on
    # base**(leaf * 2**k); these sizes straddle the cutoff and the splits
    @pytest.mark.parametrize("base", [10, 60])
    def test_edges_against_naive_loops(self, base):
        leaf = _DC_BITS // base.bit_length()
        lengths = {1, 2, leaf - 1, leaf, leaf + 1, 2 * leaf, 4 * leaf - 1, 4 * leaf + 1, 8 * leaf + 3,
                   33 * leaf}
        values = [0, 1, base - 1, 2**_DC_BITS - 1, 2**_DC_BITS, 2**_DC_BITS + 1]
        for k in sorted(lengths):
            # b**k - 1 is all (base - 1); b**k and b**k + 1 leave zero high
            # halves below the top split, and 7 * b**k + 3 zero middles
            values += [base**k - 1, base**k, base**k + 1, 7 * base**k + 3]
        for n in values:
            digits = _naive_digits(n, base)
            assert _digits_of_int(n, base) == bytes(digits), n
            assert _int_of_digits(digits, base) == n
            for extra in (1, leaf + 5):
                padded = _digits_of_int(n, base, len(digits) + extra)
                assert padded == bytes(extra) + bytes(digits)
                assert _int_of_digits(padded, base) == n
            if base == 60:
                # SexNumber.from_int of -n and n: its value and its canonical text
                for value in (-n, n):
                    x = SexNumber.from_int(value)
                    assert from_sexagesimal(x) == value
                    assert x.canonical_text() == "-" * (value < 0) + ":".join(map(str, digits))
        assert _digits_of_int(0, base, 0) == b""
        assert _int_of_digits([], base) == 0

    @given(st.sampled_from([10, 60]), st.integers(1, 40), st.integers(0, 2**32), st.booleans())
    def test_random_against_naive_loops(self, base, leaves, seed, zero_run):
        leaf = _DC_BITS // base.bit_length()
        rng = random.Random(seed)
        length = rng.randrange(max(1, (leaves - 1) * leaf), leaves * leaf + 2)
        digits = [rng.randrange(1, base)] + [rng.randrange(base) for _ in range(length - 1)]
        if zero_run:
            start = rng.randrange(1, length + 1)
            stop = rng.randrange(start, length + 1)
            digits[start:stop] = [0] * (stop - start)
        n = _naive_int(digits, base)
        assert _int_of_digits(digits, base) == n
        assert _digits_of_int(n, base) == bytes(digits)
        width = length + rng.randrange(0, 3 * leaf)
        assert _digits_of_int(n, base, width) == bytes(_naive_digits(n, base, width))

    @pytest.mark.parametrize("k", [10_000, 30_000, 100_000])
    def test_large_edges_in_closed_form(self, k):
        # the split's top divisions take `_divmod`'s recursive path here;
        # these shapes have digits known without a per-digit loop
        b = 60
        cases = [
            (b**k - 1, [b - 1] * k),
            (b**k, [1] + [0] * k),
            (b**k + 1, [1] + [0] * (k - 1) + [1]),
            (7 * b**k + 3, [7] + [0] * (k - 1) + [3]),
        ]
        # a zero middle between random digits
        rng = random.Random(k)
        digits = [rng.randrange(1, b)] + [rng.randrange(b) for _ in range(k - 1)]
        digits[k // 3 : 2 * k // 3] = [0] * (2 * k // 3 - k // 3)
        cases.append((_int_of_digits(digits), digits))
        for n, digits in cases:
            assert _digits_of_int(n) == bytes(digits)
            assert _int_of_digits(digits) == n
        n, digits = cases[-2]
        assert _digits_of_int(n, b, len(digits) + 5) == bytes(5) + bytes(digits)

    def test_split_scales_subquadratically(self):
        # the builtin divmod is quadratic through CPython 3.11, so the split
        # may hand it no division whose divisor and quotient both pass
        # _DIV_BITS: those go to `_divmod`'s recursive division.  A count of
        # the builtin calls, which does not depend on the host's speed
        calls = []

        def counted(a, b):
            q, r = divmod(a, b)
            calls.append((b.bit_length(), q.bit_length()))
            return q, r

        rng = random.Random(150)
        n = rng.randrange(60 ** (50_000 - 1), 60**50_000)
        with mock.patch.object(exact, "divmod", counted, create=True):
            digits = _digits_of_int(n)
        assert _int_of_digits(digits) == n
        assert calls  # the split reached the builtin through `_divmod`
        wide = [(b, q) for b, q in calls if b > _DIV_BITS and q > _DIV_BITS]
        assert not wide, wide[:3]

    def test_round_trip_10k_sexagesits(self):
        rng = random.Random(10_000)
        digits = [rng.randrange(1, 60)] + [rng.randrange(60) for _ in range(9_998)] + [rng.randrange(1, 60)]
        x = SexNumber(-1, tuple(digits), 4_321)
        number, info = to_sexagesimal(from_sexagesimal(x), x.frac_count)
        assert number == x
        assert info.terminates and info.frac_len == 4_321
        assert info.int_digits + info.frac_digits == x.digits


@st.composite
def _division_cases(draw, min_bits, max_bits):
    """(a, b) with b of ``min_bits``..``max_bits`` bits, among them b = 2**n
    and 2**n - 1, and a below b << c*n for c of 1-40 chunks of n = bits(b)
    bits: random, below b, exact multiples, multiples plus b - 1, just below
    b << c*n, and ones filling whole chunks (whose bit length leaves no
    slack in the chunk count).  A divisor of a top bit over a low half of
    ones makes the quotient estimate from its high half 2 too high."""
    n = draw(st.integers(min_bits, max_bits))
    rng = random.Random(draw(st.integers(0, 2**32)))
    top_bit = 1 << n - 1
    b = draw(st.sampled_from([top_bit, 2 * top_bit - 1, top_bit | (1 << n // 2) - 1, rng.getrandbits(n - 1) | top_bit]))
    chunks = draw(st.integers(1, 40))
    top = b << chunks * n
    kind = draw(st.sampled_from(["random", "below", "exact", "exact-1", "top", "ones"]))
    if kind == "ones":
        return (1 << draw(st.integers(1, chunks + 1)) * n) - 1, b
    if kind == "below":
        return rng.randrange(b), b
    if kind in ("exact", "exact-1"):
        q = rng.randrange(top // b)
        return b * q + (b - 1 if kind == "exact-1" else 0), b
    if kind == "top":
        return max(0, top - 1 - rng.getrandbits(draw(st.integers(0, 2 * n)))), b
    return rng.randrange(top), b


class TestDivmod:
    @pytest.mark.parametrize("n", [_DIV_BITS - 1, _DIV_BITS, _DIV_BITS + 1, 2 * _DIV_BITS + 1])
    def test_at_the_cutoff(self, n):
        rng = random.Random(n)
        for b in (1 << n - 1, (1 << n) - 1, rng.getrandbits(n) | 1 << n - 1):
            for a in (0, b - 1, b, b * (1 << 5 * n) - 1, rng.getrandbits(7 * n), b * rng.getrandbits(3 * n)):
                assert _divmod(a, b) == divmod(a, b)

    @settings(max_examples=40)
    @given(_division_cases(_DIV_BITS - 1, 3 * _DIV_BITS))
    def test_matches_builtin(self, case):
        a, b = case
        assert _divmod(a, b) == divmod(a, b)

    @given(_division_cases(1, 700))
    def test_deep_recursion_matches_builtin(self, case):
        # a small cutoff recurses many levels on small operands, each with
        # its own pad branch and quotient corrections
        a, b = case
        with mock.patch.object(exact, "_DIV_BITS", 8):
            assert _divmod(a, b) == divmod(a, b)


def _gcd_split(den, base):
    k = 0
    while (g := math.gcd(den, base)) > 1:
        den //= g
        k += 1
    return k, den


class TestTerminatingLength:
    @pytest.mark.parametrize("base", [10, 60])
    @pytest.mark.parametrize(
        "exps,cofactor",
        [
            ((700, 0, 0), 1), ((0, 900, 0), 1), ((0, 0, 800), 1), ((1501, 333, 2), 1),
            ((640, 1, 640), 7), ((0, 0, 0), 2**600 + 1),
        ],
    )
    def test_large_denominators_match_gcd_loop(self, base, exps, cofactor):
        den = 2 ** exps[0] * 3 ** exps[1] * 5 ** exps[2] * cofactor
        assert den.bit_length() > _DC_BITS
        assert _split_denominator(den, base) == _gcd_split(den, base)

    @pytest.mark.parametrize("base", [10, 60])
    @pytest.mark.parametrize("j", [1, 4, 9, 10, 12])
    def test_power_of_two_around_the_squarings(self, base, j):
        # 2-exponents at 2**j - 1, 2**j and 2**j + 1, where a valuation that
        # squares 2 up to 2**(2**j) changes its number of steps
        for twos in (2**j - 1, 2**j, 2**j + 1):
            for cofactor in (3**7 * 7**190, 5**3 * 2**521 + 5**3 * 3):
                den = 2**twos * cofactor
                assert den.bit_length() > _DC_BITS
                assert _split_denominator(den, base) == _gcd_split(den, base)

    @pytest.mark.parametrize(
        "exps,cofactor",
        [((700, 0, 0), 1), ((0, 900, 0), 7), ((1501, 333, 2), 1), ((3, 640, 641), 2**600 + 1), ((1, 0, 0), 3**400)],
    )
    def test_large_denominators_match_is_regular(self, exps, cofactor):
        # past `_DC_BITS` both come from one 2-3-5 valuation: the base-60 split
        # is max(ceil(a/2), b, c), and base 10 leaves the power of 3 in t
        den = 2 ** exps[0] * 3 ** exps[1] * 5 ** exps[2] * cofactor
        assert den.bit_length() > _DC_BITS
        _, a, b, c, rest = is_regular(den)
        assert _split_denominator(den, 60) == (max(-(-a // 2), b, c), rest)
        assert _split_denominator(den, 10) == (max(a, c), 3**b * rest)

    @pytest.mark.parametrize("base", [10, 60])
    def test_long_preperiod_against_oracle(self, base):
        x = Fraction(3, 2**1500 * 7)
        pre, period = _longdiv(3, x.denominator, base, limit=2000)
        info = to_decimal(x) if base == 10 else to_sexagesimal(x, 4, detect_repetend=True)[1]
        assert info.frac_digits == tuple(pre)
        assert info.period == tuple(period)


def _budget_dens(rng, base):
    """Denominators named by shape, on both sides of `_DC_BITS` bits:
    regular numbers, regular numbers times a cofactor coprime to 30, powers
    of 10, and 60**f over a regular divisor g of it."""
    dens = {}
    for bits in (200, 500, 530, 1500, 4000):
        a = rng.randrange(bits // 2, bits)
        b = rng.randrange(0, (bits - a) // 2 + 1)
        c = max(0, (bits - a - 2 * b) // 3)
        dens[f"regular-{bits}"] = 2**a * 3**b * 5**c
        cofactor = rng.choice([7, 999_983, rng.getrandbits(40) * 30 + 7])
        dens[f"regular-cofactor-{bits}"] = 2**a * 3**b * 5**c * cofactor
    for k in (20, 154, 155, 300, 1000):
        dens[f"ten-{k}"] = 10**k
    for f in (40, 86, 87, 88, 200, 700):
        g = 2 ** rng.randrange(2 * f) * 3 ** rng.randrange(f // 2) * 5 ** rng.randrange(f // 3)
        dens[f"sixty-{f}"] = 60**f // g
    wide = [name for name, den in dens.items() if den.bit_length() > _DC_BITS]
    assert wide and len(wide) < len(dens)
    return dens


class TestWithinBudget:
    # `_expand` tests a denominator of more than _DC_BITS bits for an
    # expansion that terminates within max_frac digits by one division of
    # base**max_frac (`_within_budget`); forced off, `_split_denominator`
    # decides every case.  Both must give equal expansions and equal
    # rounded numbers, in every rounding mode, with max_frac below, at and
    # above the pre-period
    @pytest.mark.parametrize("base", [10, 60])
    def test_against_the_split(self, base, monkeypatch):
        rng = random.Random(26 + base)
        cases = []
        for den in _budget_dens(rng, base).values():
            pre = _split_denominator(den, base)[0]
            for max_frac in sorted({max(pre - 1, 0), pre, pre + 1, 2 * pre + 5}):
                for num in (1, -1, rng.getrandbits(den.bit_length() + 40) | 1, -rng.getrandbits(100) - 1):
                    cases.append((Fraction(num, den), max_frac))

        def results():
            out = []
            for x, max_frac in cases:
                out += [_expand(x, base, max_frac, detect) for detect in (False, True)]
                if base == 60:
                    out += [to_sexagesimal(x, max_frac, mode, detect) for mode in ROUNDING_MODES for detect in (False, True)]
            return out

        taken = []
        route = exact._within_budget

        def counted(*args):
            within = route(*args)
            taken.append(within is not None)
            return within

        monkeypatch.setattr(exact, "_within_budget", counted)
        shipped = results()
        monkeypatch.setattr(exact, "_within_budget", lambda *args: None)
        assert results() == shipped
        # the route decided some cases and passed others on
        assert any(taken) and not all(taken)

    def test_terminating_conversion_costs_at_most_its_kernel(self):
        # 10**4 sexagesits, half of them fractional, over 60**5000: two
        # valuation ladders of about 25 big divisions split the denominator,
        # and the digits went list -> two tuples -> bytes -> tuple, so that
        # to_sexagesimal cost 1.54-1.56x the int -> digits kernel of its
        # scaled numerator (CPython 3.11 and 3.13; 1.03 with one division
        # and digits kept as bytes)
        rng = random.Random(26)
        n, f = 10_000, 5_000
        v = rng.randrange(60 ** (n - 1), 60**n) | 1  # odd, so the fraction stays over 60**5000's 2**10000
        x = Fraction(v, 60**f)
        assert to_sexagesimal(x, f)[0].digits == tuple(_digits_of_int(v))
        assert _median_ratio(lambda: to_sexagesimal(x, f), lambda: _digits_of_int(v)) <= 1.2


class TestPeriodStateBound:
    # non-terminating in at least one base; 5 / 486 terminates in base 60.
    # 1 / (2**40 * 7) and 1 / (5**45 * 13) have pre-periods that alone reach
    # every bound tried in one base or both
    VALUES = [
        Fraction(1, 7), Fraction(-22, 7), Fraction(7833, 268), Fraction(1, 3), Fraction(5, 486),
        Fraction(1, 59), Fraction(1, 61), Fraction(1, 2**40 * 7), Fraction(1, 5**45 * 13),
    ]

    @pytest.mark.parametrize("base", [10, 60])
    def test_give_up_iff_preperiod_plus_period_exceeds_bound(self, base, monkeypatch):
        for bound in range(1, 41):
            monkeypatch.setattr(exact, "PERIOD_STATE_BOUND", bound)
            for x in self.VALUES:
                num, den = abs(x.numerator), x.denominator
                pre, period = _longdiv(num, den, base)
                for max_frac in (0, 1, 7, 50):
                    if base == 10:
                        info = to_decimal(x, max_frac)
                    else:
                        info = to_sexagesimal(x, max_frac, detect_repetend=True)[1]
                    if not period or len(pre) + len(period) <= bound:
                        assert info.complete
                        assert (info.frac_digits, info.period) == (tuple(pre), tuple(period))
                    else:
                        assert not info.complete and info.period == ()
                        shown = min(max_frac, bound)
                        assert info.frac_digits == tuple(frac_stream(num, den, base, shown))
                        assert str(info).endswith("...")

    def test_preperiod_alone_reaches_bound(self, monkeypatch):
        monkeypatch.setattr(exact, "PERIOD_STATE_BOUND", 1)
        assert str(to_decimal(Fraction(7833, 268), 50)) == "29.2..."

    def test_repetend_memory_is_linear_in_digits(self):
        # 1/100003 has a 50001-digit decimal period; a table of the visited
        # remainders peaks near 7 MB on CPython 3.11, the digits alone near 1 MB
        tracemalloc.start()
        try:
            info = to_decimal(Fraction(1, 100003))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.complete and len(info.period) == 50_001
        assert peak < 4_000_000


def _brute_order(base, t):
    """Least k >= 1 with base**k = 1 mod t, one product at a time."""
    y, k = base % t, 1
    while y != 1 % t:
        y = y * base % t
        k += 1
    return k


class _Counting(int):
    """An int base that counts the products ``y * base`` taken with it; a
    product with it as the right operand is a plain int."""

    products = 0

    def __rmul__(self, other):
        self.products += 1
        return int(other) * int(self)


class TestOrder:
    # base-coprime moduli up to 3 * 10**4; limits at the order, one either
    # side of it, and anywhere up to twice it
    @given(
        st.sampled_from([10, 60]),
        st.integers(1, 30_000),
        st.integers(1, 150),
        st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-30_000, 30_000)),
    )
    def test_against_brute_force(self, base, n, m, offset):
        t = _split_denominator(n, base)[1]
        order = _brute_order(base, t)
        limit = max(0, order + offset)
        assert _order(base, t, m, limit) == (order if order <= limit else None)

    @pytest.mark.parametrize(
        "base, t, m, order",
        [
            (10, 2591, 1000, 259),  # order below m: the baby steps end there, not at 3 * 259
            (10, 2591, 258, 259),  # order m + 1
            (10, 2591, 259, 259),  # order m
            (10, 7, 5, 6),
            (10, 1, 3, 1),  # order 1: every power is 0 mod 1
            (10, 3, 1, 1),
            (60, 59, 4, 1),
            (60, 7, 1, 3),  # m = 1: one giant step per power; 1/7 = 0;(8:34:17)
            (60, 30_000_023, 5478, 30_000_022),
        ],
    )
    def test_known_orders_at_the_limit(self, base, t, m, order):
        assert _order(base, t, m, order) == order
        assert _order(base, t, m, order + 1) == order
        assert _order(base, t, m, order - 1) is None

    # an order far below m ends the baby steps at the order: 60 has order 3
    # modulo 7, and order 1 modulo 59 and modulo 1
    @pytest.mark.parametrize("t, order", [(7, 3), (59, 1), (1, 1)])
    def test_baby_steps_end_at_the_order(self, t, order):
        base = _Counting(60)
        assert _order(base, t, 10**4, 10**6) == order
        assert base.products == order


class TestEmitDigits:
    # base 10 takes chunks of _DEC_BLOCK digits: 3 * edge + 2 crosses two
    # chunk boundaries and leaves a short last chunk.  In base 60, n of up to
    # 14 take per-digit long division over a one-digit den and a chunk over
    # 2**70 * 3 * 7 + 1; 1000 take the lanes; and every n over 10**40 + 1,
    # wider than _LANE_BITS, takes chunks of 64 digits.
    @pytest.mark.parametrize("base, edge", [(10, _DEC_BLOCK), (60, 4)])
    @pytest.mark.parametrize("num, den", [(1, 7), (5, 97), (3, 2**70 * 3 * 7 + 1), (10**39, 10**40 + 1), (1, 2**9)])
    def test_against_long_division(self, base, edge, num, den):
        for n in sorted({0, 1, edge - 1, edge, edge + 1, 3 * edge + 2, 1000}):
            walk = bytearray([99])  # digits are appended after what is there
            r = _emit_digits(walk, num, den, base, n)
            assert list(walk) == [99] + frac_stream(num, den, base, n), n
            assert r == num * pow(base, n, den) % den

    @pytest.mark.parametrize("base", [10, 60])
    def test_whole_period_against_longdiv(self, base):
        den = 100_003
        pre, period = _longdiv(1, den, base, limit=10**6)
        walk = bytearray()
        assert _emit_digits(walk, 1, den, base, len(period)) == 1
        assert not pre and tuple(walk) == tuple(period)

    # a chunk of c digits, c = max(64, bits(den) // 6) in base 60: c - 1 and
    # c take one quotient, c + 1 a second and 2c + 1 a third, short one; in
    # base 60 at 4100 and 18k bits each quotient passes _DIV_BITS and takes
    # _divmod
    @pytest.mark.parametrize("base", [10, 60])
    @pytest.mark.parametrize("bits", [100, 512, 4100, 18_000])
    def test_chunk_edges(self, base, bits):
        rng = random.Random(bits)
        den = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        r = rng.randrange(den)
        c = _DEC_BLOCK if base == 10 else max(64, bits // 6)
        stream = frac_stream(r, den, base, 2 * c + 1)
        for n in (c - 1, c, c + 1, 2 * c + 1):
            walk = bytearray([99])
            assert _emit_digits(walk, r, den, base, n) == r * pow(base, n, den) % den
            assert list(walk) == [99] + stream[:n], n

    # a den either side of the widest whose products per-digit long division
    # keeps in one int digit (den * base < _ONE_DIGIT), of the widest it
    # takes (a one-digit den) and of the widest the lanes take, with n either
    # side of the most digits per-digit long division emits for each
    @pytest.mark.parametrize("base", [7, 60, 256])
    def test_either_side_of_the_cutoffs(self, base):
        widest = (_ONE_DIGIT - 1) // base
        for den in (widest, widest + 1, _ONE_DIGIT - 1, _ONE_DIGIT, 2**_LANE_BITS - 1, 2**_LANE_BITS + 1):
            r = random.Random(den).randrange(den)
            stream = frac_stream(r, den, base, 2 * _LONGDIV_DIGITS)
            for n in sorted({1, _LANE_DIGITS, _LANE_DIGITS + 1, _LONGDIV_DIGITS - 1, _LONGDIV_DIGITS,
                             _LONGDIV_DIGITS + 1, 2 * _LONGDIV_DIGITS}):
                walk = bytearray()
                assert _emit_digits(walk, r, den, base, n) == r * pow(base, n, den) % den
                assert list(walk) == stream[:n], (den, n)

    # the route curve over den's width: at 25 and 28 bits (one int digit,
    # but not den * base) 120 digits take per-digit long division and 150
    # and 200 the lanes, at 31 bits 120 take chunks and 150 and 200 the
    # lanes, where the chunks cost up to 1.5x the route taken; every route
    # gives the digits and remainder of the chunks, forced here for every den
    @pytest.mark.parametrize("bits", [25, 28, 31])
    @pytest.mark.parametrize("n", [120, 150, 200])
    def test_route_curve_against_chunks(self, bits, n, monkeypatch):
        rng = random.Random(100 * bits + n)
        den = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        r = rng.randrange(den)
        shipped = bytearray()
        rest = _emit_digits(shipped, r, den, 60, n)
        monkeypatch.setattr(exact, "_ONE_DIGIT", 1)
        monkeypatch.setattr(exact, "_LANE_BITS", 0)
        chunked = bytearray()
        assert _emit_digits(chunked, r, den, 60, n) == rest == r * pow(60, n, den) % den
        assert shipped == chunked and list(chunked) == frac_stream(r, den, 60, n)


def _lane_edges(k):
    # K = isqrt(2n) + 1 = k lanes serve n in [lo, hi], with S = ceil(n / K)
    # steps: n = K*S fills every lane's last step, K*S - 1 leaves one digit
    # trimmed and K*S - K + 1 leaves K - 1
    lo, hi = -(-((k - 1) ** 2) // 2), (k * k - 1) // 2
    assert math.isqrt(2 * lo) + 1 == math.isqrt(2 * hi) + 1 == k == math.isqrt(2 * hi + 2)
    edges = {0, 1, lo - 1, lo, lo + 1, hi - 1, hi, hi + 1}
    edges.update(n for n in range(lo, hi + 1) if -n % k in (0, 1, k - 1))
    return sorted(n for n in edges if n >= 0)


class TestEmitLanes:
    # past the route curve (128 to 460 digits, by den's width) every base but
    # 10 runs isqrt(2n) + 1 long divisions side by side in the fields of one
    # integer, for a den of up to _LANE_BITS bits; field widths follow den
    # and base, so cover byte-sized
    # and 256-ary digits.  The same draws reach per-digit long division and
    # chunks, for fewer digits and for wider dens.
    @given(
        st.sampled_from([2, 7, 60, 256]),
        st.one_of(st.integers(1, 2**64), st.integers(2**64, 2**200)),
        st.integers(1, 85).flatmap(lambda k: st.sampled_from(_lane_edges(k))),
        st.data(),
    )
    def test_against_per_digit_long_division(self, base, den, n, data):
        r = data.draw(st.integers(0, den - 1), label="r")
        walk = bytearray([7, 7])
        rest = _emit_digits(walk, r, den, base, n)
        assert list(walk) == [7, 7] + frac_stream(r, den, base, n)
        assert rest == r * pow(base, n, den) % den

    # a den sharing a prime with base lets r * base be an exact multiple of
    # den, where a reciprocal rounded down gives a digit one too small
    @pytest.mark.parametrize(
        "r, den, base",
        [(7, 21, 60), (5, 45, 60), (3, 12, 2), (3 * 2**62, 3 * 2**70, 256), (2 * 3**40, 3**41 * 7, 7 * 3)],
    )
    def test_exact_multiples_of_den(self, r, den, base):
        for n in (1, 2, 9, 100):
            walk = bytearray()
            assert _emit_digits(walk, r, den, base, n) == r * pow(base, n, den) % den
            assert list(walk) == frac_stream(r, den, base, n)

    # the lanes OR up to a field's width of steps into one integer, step t's
    # digits in byte t of every field, for one to_bytes: cover a last group
    # that is full (steps % width == 0), one step long and one step short,
    # with fields from one byte (base 2 over den 1) to 27 (base 256, 96
    # bits), and n either side of where K = isqrt(2n) + 1 lanes gain one
    @pytest.mark.parametrize("base", [2, 60, 256])
    @pytest.mark.parametrize("bits", [1, 2, 8, 24, 25, 32, 48, 64, 95, 96])
    def test_packed_steps_against_long_division(self, base, bits):
        rng = random.Random(1000 * base + bits)
        den = rng.getrandbits(bits) | 1 << (bits - 1)
        r = rng.randrange(den)
        shift = (base * den).bit_length() + den.bit_length() + 1
        width = -(-(shift + base.bit_length() + 2) // 8)  # bytes per field, as _emit_digits picks it
        wanted = {0, 1 % width, width - 1}
        edges = {k * k // 2 + e for k in (21, 40, 63) for e in (-1, 0, 1)}
        for n in range(_LONGDIV_DIGITS + 1, 20 * _LONGDIV_DIGITS):
            steps = -(-n // (math.isqrt(2 * n) + 1))
            if steps % width not in wanted and n not in edges:
                continue
            wanted.discard(steps % width)
            for walk in (bytearray([7]), [7]):  # _expand hands the emitter a list
                assert _emit_digits(walk, r, den, base, n) == r * pow(base, n, den) % den
                assert list(walk) == [7] + frac_stream(r, den, base, n), (n, steps, width)
        assert not wanted

    def test_base_sixty_period_within_deadline(self):
        # 1/999983 has a 999982-sexagesit period.  One 60**4 quotient per
        # interpreter step made its base-60 expansion cost 5-6.5x the base-10
        # one (300 digits a step); side-by-side lanes cost about 2x.
        x = Fraction(1, 999983)
        sixty, ten = _best_of(lambda: to_sexagesimal(x, 8, detect_repetend=True), lambda: to_decimal(x))
        assert sixty <= 3.5 * ten
        info = to_sexagesimal(x, 8, detect_repetend=True)[1]
        assert len(info.period) == 999982
        assert info.period[:6] == tuple(frac_stream(1, 999983, 60, 6))
        # the last six digits start at remainder 60**(period - 6) = 60**-6 mod 999983
        assert info.period[-6:] == tuple(frac_stream(pow(60, -6, 999983), 999983, 60, 6))


class TestRepetendRoutes:
    # _order's baby steps end at a period of up to m = ceil(sqrt(min(bound -
    # preperiod, t - 1))), for t the part of den coprime to base; a longer
    # one takes m baby steps and giant steps; either way _emit_digits makes
    # the digits, which must agree with long division on either side of m
    # and of the bound
    @given(
        st.sampled_from([10, 60]),
        st.integers(1, 3_000),
        st.integers(2, 4_000),
        st.sampled_from([1, 2**5, 3**4, 5**3 * 2]),
        st.sampled_from([0, 5, 64, 2_500]),
        st.data(),
    )
    def test_against_longdiv(self, base, num, core, cofactor, max_frac, data):
        x = Fraction(num, core * cofactor)
        num, den = x.numerator, x.denominator
        pre, period = _longdiv(num, den, base, limit=10**5)
        # one either side of pre-period plus period, or anywhere up to it
        total = len(pre) + len(period)
        bound = max(1, data.draw(st.one_of(st.sampled_from([total - 1, total, total + 1, 10**6]),
                                           st.integers(1, total + 1)), label="bound"))
        old = exact.PERIOD_STATE_BOUND
        exact.PERIOD_STATE_BOUND = bound
        try:
            info = to_decimal(x, max_frac) if base == 10 else to_sexagesimal(x, max_frac, detect_repetend=True)[1]
        finally:
            exact.PERIOD_STATE_BOUND = old
        if not period or len(pre) + len(period) <= bound:
            assert info.complete and (info.frac_digits, info.period) == (tuple(pre), tuple(period))
        else:
            assert not info.complete and info.period == ()
            assert info.frac_digits == tuple(frac_stream(num, den, base, min(max_frac, bound)))

    # the walk is _order's baby steps, m = ceil(sqrt(t - 1)) of them at most
    # by the denominator, not the bound: an order of m - 1 or m ends them at
    # the order, and m + 1 takes all m and giant steps
    @pytest.mark.parametrize(
        "base, t, order",
        [(10, 73, 8), (10, 81, 9), (10, 387, 21), (60, 403, 20), (60, 3481, 59), (60, 131, 13)],
    )
    @pytest.mark.parametrize("cofactor", [1, 2**5])
    def test_walk_bounded_by_the_denominator(self, base, t, order, cofactor, monkeypatch):
        m = math.isqrt(t - 2) + 1
        assert _order(base, t, 1, t) == order and abs(order - m) <= 1
        searched = []
        monkeypatch.setattr(exact, "_order", lambda *args: searched.append(args) or _order(*args))
        x = Fraction(1, t * cofactor)
        info = to_decimal(x) if base == 10 else to_sexagesimal(x, 8, detect_repetend=True)[1]
        pre, period = _longdiv(1, t * cofactor, base, limit=10**4)
        assert info.complete and (info.frac_digits, info.period) == (tuple(pre), tuple(period))
        assert len(period) == order
        (args,) = searched
        assert args[:3] == (base, t, m)
        counting = _Counting(base)
        assert _order(counting, *args[1:]) == order and counting.products == min(order, m)

    def test_give_up_past_a_raised_bound_within_deadline(self):
        # 30000023 is a full-reptend prime in base 10 and base 60: its period
        # of 30000022 digits is just past a bound of 3 * 10**7.  A walk of one
        # step per digit took about 11 s to give up on both calls.
        code = (
            "import time\n"
            "from fractions import Fraction\n"
            "from sexagesimal import exact, to_decimal, to_sexagesimal\n"
            "exact.PERIOD_STATE_BOUND = 3 * 10**7\n"
            "x = Fraction(1, 30_000_023)\n"
            "start = time.perf_counter()\n"
            "info60 = to_sexagesimal(x, 64, detect_repetend=True)[1]\n"
            "info10 = to_decimal(x, 64)\n"
            "print(time.perf_counter() - start, info60.complete, info10.complete)\n"
            "print(*info60.frac_digits)\n"
            "print(*info10.frac_digits)\n"
        )
        proc = run_python(["-c", code], timeout=20)
        assert proc.returncode == 0, proc.stderr
        head, digits60, digits10 = proc.stdout.splitlines()
        elapsed, complete60, complete10 = head.split()
        assert float(elapsed) < 2.0
        assert complete60 == complete10 == "False"
        assert [int(d) for d in digits60.split()] == frac_stream(1, 30_000_023, 60, 64)
        assert [int(d) for d in digits10.split()] == frac_stream(1, 30_000_023, 10, 64)

    # glibc's own mmap threshold rises to each mapped block it frees, so the
    # tuple that a first read of a long ``Expansion.period`` builds (8 MB at
    # 10**6 digits) went to the heap or to a new mapping by the sizes of those
    # freed before; finding a period of 1 << 17 digits or more, in either
    # base, fixes both thresholds, with the same values each time
    @pytest.mark.parametrize("den, fixed", [(7, False), (130_859, False), (131_149, True)])
    def test_long_period_fixes_the_heap_thresholds(self, den, fixed, monkeypatch):
        ctypes = pytest.importorskip("ctypes")
        calls = []

        class Libc:
            def __init__(self, name):
                assert name is None

            def mallopt(self, param, value):
                calls.append((param, value))
        monkeypatch.setattr(ctypes, "CDLL", Libc)
        assert len(to_decimal(Fraction(1, den)).period) == den - 1
        assert calls == ([(-3, 16 << 20), (-1, 32 << 20)] if fixed else [])
        # 131113 has a base-60 period of 131112 digits
        assert len(to_sexagesimal(Fraction(1, 131_113), 8, detect_repetend=True)[1].period) == 131_112
        assert calls == [(-3, 16 << 20), (-1, 32 << 20)] * (2 if fixed else 1)

    def test_heap_thresholds_without_a_c_library(self, monkeypatch):
        ctypes = pytest.importorskip("ctypes")

        def refuse(name):
            raise OSError("no C library")
        monkeypatch.setattr(ctypes, "CDLL", refuse)
        assert exact._keep_heap() is None


def _prime_factors(n):
    factors, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            factors.add(p)
            n //= p
        p += 1
    return factors | ({n} if n > 1 else set())


def _primes_of_order(base, order, most=200):
    """The primes p = order * m + 1, 1 <= m < ``most``, modulo which
    ``base`` has multiplicative order exactly ``order``."""
    factors = _prime_factors(order)
    return [
        p for p in range(order + 1, order * most, order)
        if pow(base, order, p) == 1 and all(pow(base, order // q, p) != 1 for q in factors)
        and all(p % d for d in range(2, math.isqrt(p) + 1))
    ]


def _cyclotomic(n, base):
    """The n-th cyclotomic polynomial at ``base``, the product of
    (base**d - 1)**mu(n/d) over the divisors d of n."""
    num = den = 1
    for d in range(1, n + 1):
        m = n // d
        if n % d or any(m % (q * q) == 0 for q in _prime_factors(m)):
            continue
        if len(_prime_factors(m)) % 2:
            den *= base**d - 1
        else:
            num *= base**d - 1
    return num // den


# an odd half period H past _LONGDIV_DIGITS with many divisors
_H = 315


def _mirror_cases(base):
    """Denominators coprime to ``base`` with the period 2 * `_H`, named
    by whether base**H is -1 modulo them (the halves mirror) and by their
    width.  A prime of order 2d, for d | H, has base**H = (-1)**(H/d) = -1,
    and one of odd order d | H has base**H = 1; every divisor of base**H +
    1, such as the cyclotomic value at 2H, has base**H = -1."""
    divisors = [d for d in range(1, _H + 1) if _H % d == 0]
    narrow = math.prod(min(_primes_of_order(base, 2 * d) or [1]) for d in divisors)
    odd = min(p for d in divisors[1:] for p in _primes_of_order(base, d) if p > 5)
    wide = _cyclotomic(2 * _H, base)
    # past _DC_BITS bits only bases 10 and 60 split off a pre-period, so a
    # wide den has no prime of 30 * base
    assert narrow.bit_length() <= _LANE_BITS < wide.bit_length() and math.gcd(wide * odd, 30 * base) == 1
    return {"narrow-holds": narrow, "narrow-fails": narrow * odd, "wide-holds": wide, "wide-fails": wide * odd}


def _expand_against_longdiv(num, den, base):
    """The period of num/den in ``base``, after checking `_expand`'s result
    and the bytes it keeps against long division."""
    x = Fraction(num, den)
    pre, period = _longdiv(x.numerator, x.denominator, base, limit=10**5)
    info = _expand(x, base, 8, True)[0]
    assert kept_digits(info)["period"] == bytes(period), (x, base)
    assert info.complete and (info.frac_digits, info.period) == (tuple(pre), tuple(period)), (x, base)
    return period


class TestComplementRoute:
    # an even period L past 2 * _LONGDIV_DIGITS digits is emitted half first
    # where base**(L/2) is -1 modulo the denominator's base-coprime part t,
    # found by one pow() when t has at most _LANE_BITS bits; its second half
    # is the first's complement, base - 1 - d (Midy's theorem).  Every other
    # period, a wide t's too, is emitted whole.  Each period must agree with
    # long division whether the rule holds or not, narrow or wide, after a
    # pre-period and under numerators other than 1.  Only bases 10 and 60
    # take a pre-period past _DC_BITS bits, so in the others a wide den has
    # none.
    @pytest.mark.parametrize("base", [2, 7, 10, 60, 256])
    def test_against_long_division(self, base):
        cofactor = min(_prime_factors(base)) ** 3
        for name, t in _mirror_cases(base).items():
            assert (pow(base, _H, t) == t - 1) == name.endswith("holds"), name
            for den in (t, t * cofactor):
                if den != t and den.bit_length() > _DC_BITS and base not in (10, 60):
                    continue
                for num in (1, den // 3 + 1, den - 1):
                    assert len(_expand_against_longdiv(num, den, base)) == 2 * _H, (name, den)

    # primes of order 2h have base**h = -1: h from either side of
    # _LONGDIV_DIGITS (the guard) and around lane edges K = 21 and 30 of
    # the emitter's first half; primes of odd order 2h + 1 are emitted whole
    @pytest.mark.parametrize("base", [2, 7, 10, 60, 256])
    def test_periods_near_the_cutoffs(self, base):
        halves = [*range(_LONGDIV_DIGITS - 4, _LONGDIV_DIGITS + 26), *range(418, 452)]
        found = {h: _primes_of_order(base, 2 * h) for h in halves}
        assert any(found[h] for h in halves if h <= _LONGDIV_DIGITS)
        assert any(found[h] for h in halves if _LONGDIV_DIGITS < h < 230)
        for h, primes in found.items():
            for p in primes:
                assert len(_expand_against_longdiv(1, p, base)) == 2 * h
                _expand_against_longdiv(p // 2, p * base, base)
            for p in _primes_of_order(base, 2 * h + 1, 20):
                assert len(_expand_against_longdiv(1, p, base)) == 2 * h + 1

    # prime powers have even and odd periods: 7**4 has 2058 decimal digits
    # and 3 * 7**3 sexagesits; 11**4 has 2662 decimal digits, 13310 binary
    # digits and 5 * 11**3 sexagesits
    @pytest.mark.parametrize("base", [2, 7, 10, 60, 256])
    @pytest.mark.parametrize("den", [7**3, 7**4, 11**3, 11**4])
    def test_prime_powers(self, base, den):
        if den % base:
            _expand_against_longdiv(1, den, base)
            _expand_against_longdiv(den - 2, den * base, base)

    # base**k + 1 has the period 2k with mirrored halves, and 7 * (base**k +
    # 1) where base**k is -1 modulo 7 too (not in base 60 at k = 201, where
    # 60 has order 3 modulo 7); the repunit (base**L - 1) / (base - 1) has
    # the period L and halves that do not mirror.  All are wider than
    # _LANE_BITS, so emitted whole.  In base 2 they stay below _DC_BITS
    # bits.
    @pytest.mark.parametrize("base", [2, 10, 60])
    @pytest.mark.parametrize("k", [_LONGDIV_DIGITS, _LONGDIV_DIGITS + 1, 250])
    def test_known_families(self, base, k):
        cases = [(base**k + 1, 2 * k), ((base ** (2 * k) - 1) // (base - 1), 2 * k), (base**k - 1, k)]
        cases.append((7 * (base**k + 1), None))
        for den, length in cases:
            period = _expand_against_longdiv(1, den, base)
            assert length is None or len(period) == length

    # one either side of the bound, the search gives up within the period or
    # resolves it: a period of 2 * _H digits, after 0 or 3 digits of
    # pre-period
    @pytest.mark.parametrize("base", [10, 60])
    @pytest.mark.parametrize("cofactor", [1, 8])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_either_side_of_the_state_bound(self, base, cofactor, offset, monkeypatch):
        den = _mirror_cases(base)["narrow-holds"] * cofactor
        pre, period = _longdiv(1, den, base, limit=10**4)
        total = len(pre) + len(period)
        monkeypatch.setattr(exact, "PERIOD_STATE_BOUND", total + offset)
        info = _expand(Fraction(1, den), base, 2 * total, True)[0]
        if offset >= 0:
            assert info.complete and (info.frac_digits, info.period) == (tuple(pre), tuple(period))
        else:
            assert not info.complete and info.period == ()
            assert info.frac_digits == tuple(frac_stream(1, den, base, total - 1))

    # the emitter is asked for the first half of a mirrored period alone
    # when the den has at most _LANE_BITS bits; for the whole period, in one
    # call, where the rule fails or the den is wider
    @pytest.mark.parametrize("base", [10, 60])
    def test_digits_asked_of_the_emitter(self, base, monkeypatch):
        asked = []

        def counting(out, r, den, b, n):
            asked.append(n)
            return _emit_digits(out, r, den, b, n)
        monkeypatch.setattr(exact, "_emit_digits", counting)
        info = _expand(Fraction(1, 999_983), base, 8, True)[0]
        assert asked == [0, 499_991] and len(info.period) == 999_982
        # the first digits, those either side of the middle and the last
        for start in (0, 499_988, 999_976):
            window = frac_stream(pow(base, start, 999_983), 999_983, base, 6)
            assert info.period[start : start + 6] == tuple(window), start
        cases = _mirror_cases(base)
        repunit = (base ** (2 * _H) - 1) // (base - 1)
        for den, calls in (
            (cases["narrow-holds"], [0, _H]),
            (cases["narrow-fails"], [0, 2 * _H]),
            (cases["wide-holds"], [0, 2 * _H]),
            (cases["wide-fails"], [0, 2 * _H]),
            (repunit, [0, 2 * _H]),
        ):
            asked.clear()
            _expand_against_longdiv(1, den, base)
            assert asked == calls, den


def _naive_text(info):
    # the rendering of earlier versions: str(d) per digit
    sep, point = ("", ".") if info.base == 10 else (":", ";")
    join = lambda digits: sep.join(str(d) for d in digits)  # noqa: E731
    text = join(info.int_digits)
    if info.frac_digits or info.period:
        text += point + join(info.frac_digits)
    if info.period:
        text += "(" + join(info.period) + ")"
    elif not info.complete:
        text += "..."
    return ("-" if info.sign < 0 else "") + text


def _best_of(*calls, rounds=5):
    # interleaved, so that a slow spell of the host weighs on every call
    best = [float("inf")] * len(calls)
    for _ in range(rounds):
        for i, call in enumerate(calls):
            start = time.perf_counter()
            call()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def _median_ratio(call, against, rounds=21):
    # the median over rounds of call's time over against's in the same
    # round: a spell of the host that runs both slow or fast cancels in its
    # round, and a lone fast call is one ratio of 21, where a best of rounds
    # keeps it
    ratios = []
    for _ in range(rounds):
        start = time.perf_counter()
        call()
        mid = time.perf_counter()
        against()
        ratios.append((mid - start) / (time.perf_counter() - mid))
    return statistics.median(ratios)


class TestRendering:
    @given(rationals(max_num=10**9, max_den=10**4), st.integers(0, 12), st.booleans(), st.sampled_from([10, 60]))
    def test_expansion_text_against_naive_join(self, x, max_frac, detect, base):
        if base == 10:
            info = to_decimal(x, max_frac, detect)
        else:
            info = to_sexagesimal(x, max_frac, detect_repetend=detect)[1]
        assert str(info) == _naive_text(info)
        assert info.period_text == _naive_text(exact.Expansion(1, info.period, (), (), base, True, 0, True))
        shown = exact.Expansion(info.sign, info.int_digits, info.frac_digits, (), base, True, None, True)
        assert info.preperiod_text == _naive_text(shown)

    # an expansion keeps the bytes each digit field was made in, under a key
    # that is no field, short periods and long ones alike: it equals,
    # hashes, prints, pickles and copies as the record the constructor
    # builds from its fields, which keeps the same bytes.  The bytes are
    # immutable, so no one can change the text without the fields.
    @pytest.mark.parametrize("base, den", [(10, 7), (60, 60**250 + 1), (10, 999_983), (60, 60**2100 + 1)])
    def test_kept_period_bytes_are_no_field(self, base, den):
        info = _expand(Fraction(-3, den), base, 8, True)[0]
        kept = kept_digits(info)
        assert set(kept) == {"int_digits", "frac_digits", "period"} and not set(kept) & set(vars(info))
        assert all(type(digits) is bytes for digits in kept.values())
        assert not set(exact.Expansion._digit_keys.values()) & set(exact.Expansion._fields)
        built = exact.Expansion(*info._values())
        assert kept_digits(built) == kept and kept["period"] == bytes(info.period)
        assert info == built and hash(info) == hash(built) and repr(info) == repr(built)
        assert str(info) == str(built) and info.period_text == built.period_text
        assert pickle.dumps(info) == pickle.dumps(built) and pickle.loads(pickle.dumps(info)) == built
        assert copy.copy(info) == built and copy.deepcopy(info) == built

    def test_glyph_text_costs_at_most_canonical_text(self):
        # one dict lookup per glyph in str.translate made glyph text of
        # 10**5 sexagesits cost 2.1-2.3x its canonical text
        rng = random.Random(22)
        digits = [rng.randrange(1, 60)] + [rng.randrange(60) for _ in range(10**5 - 1)]
        x = SexNumber.from_digits(1, digits, 50_000)
        glyphs, canonical = _best_of(lambda: encode_glyphs(x), x.canonical_text)
        assert glyphs <= canonical

    @pytest.mark.parametrize("base", [10, 60])
    def test_long_period_costs_at_most_its_expansion(self, base):
        # 999983 has a period of 999982 digits in both bases.  One str(d) per
        # digit made printing cost 7-9x the expansion in base 10 and 1.6-1.8x
        # in base 60.
        x = Fraction(1, 999983)
        if base == 10:
            expand = lambda: to_decimal(x)  # noqa: E731
        else:
            expand = lambda: to_sexagesimal(x, 8, detect_repetend=True)[1]  # noqa: E731
        info = expand()
        assert len(info.period) == 999982
        assert _median_ratio(lambda: str(info), expand) <= 1
        assert str(info) == _naive_text(info)


def _joined(digits):
    # canonical text as earlier versions wrote it: str(d) per sexagesit
    return ":".join(map(str, digits))


def _spell_cases():
    """Digit sequences named by what they hold and how long they are: every
    sexagesit in turn, one-character numerals (below 10) alone, two-character
    ones alone, and random digits, each empty, short, and one either side
    of `_TRANSLATE_DIGITS` and at it."""
    rng = random.Random(25)
    kinds = {
        "every": lambda i: i % 60,
        "short": lambda i: rng.randrange(10),
        "long": lambda i: rng.randrange(10, 60),
        "random": lambda i: rng.randrange(60),
    }
    lengths = [0, 1, 9, 60, _TRANSLATE_DIGITS - 1, _TRANSLATE_DIGITS, _TRANSLATE_DIGITS + 1]
    return {f"{kind}-{n}": [digit(i) for i in range(n)] for kind, digit in kinds.items() for n in lengths}


_SPELL_CASES = _spell_cases()


class TestSpellRoutes:
    # canonical text drops _BCD's f marks by str.replace up to
    # _TRANSLATE_DIGITS digits and by str.translate past it.  Each route,
    # forced by moving the cutoff below or above every length, and the
    # cutoff as it is must spell what a per-digit join spells, from the
    # bytes records keep and from tuples.
    @pytest.mark.parametrize("cutoff", [-1, None, 10**9], ids=["translate", "as-is", "replace"])
    @pytest.mark.parametrize("name", sorted(_SPELL_CASES))
    def test_routes_against_a_joined_numeral_per_digit(self, cutoff, name, monkeypatch):
        if cutoff is not None:
            monkeypatch.setattr(exact, "_TRANSLATE_DIGITS", cutoff)
        digits = _SPELL_CASES[name]
        for given in (bytes(digits), tuple(digits)):
            assert exact._spell(given, None) == _joined(digits), name

    @given(st.lists(st.integers(0, 59), max_size=200), st.sampled_from([-1, 10**9]))
    def test_short_sequences_on_either_route(self, digits, cutoff):
        old = exact._TRANSLATE_DIGITS
        exact._TRANSLATE_DIGITS = cutoff
        try:
            assert exact._spell(digits, None) == _joined(digits)
        finally:
            exact._TRANSLATE_DIGITS = old


def _matched_fields(record):
    match record:
        case exact.Expansion(int_digits=int_digits, frac_digits=frac_digits, period=period):
            return int_digits, frac_digits, period
        case SexNumber(digits=digits):
            return digits
        case SexFloat(mantissa=mantissa):
            return mantissa


# the views of a record that read its fields: each must agree with the
# record the constructor builds, whether its digit fields have been read or not
_VIEWS = {
    "eq": lambda record: record,
    "hash": hash,
    "repr": repr,
    "pickle": pickle.dumps,
    "unpickled": lambda record: pickle.loads(pickle.dumps(record)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "match": _matched_fields,
}


def _constructor_twin(record):
    """The record the constructor builds from ``record``'s field values, the
    digit fields given as the bytes it keeps, so that no field is read."""
    fields = {name: getattr(record, name) for name in type(record)._fields if name not in type(record)._digit_keys}
    return type(record)(**fields, **kept_digits(record))


def _read_digit_fields(record):
    return [getattr(record, name) for name in type(record)._digit_keys]


@pytest.fixture
def tuples_built(monkeypatch):
    """The name of each digit field whose tuple is built, in order."""
    built = []
    read = exact._DigitField.__get__

    def spy(self, record, owner=None):
        built.append(self.name)
        return read(self, record, owner)

    monkeypatch.setattr(exact._DigitField, "__get__", spy)
    return built


class TestPeriodOnRead:
    # an expansion keeps each digit field as bytes, a period of 999,982
    # digits too, and builds a field's tuple only when it is first read,
    # and keeps it; every view of the record sees the fields as the
    # constructor stores them.  The twin is built by the constructor from
    # the kept bytes, so it does not go through the expansion's own reading
    # of the fields.
    X = Fraction(-3_000_000_007, 999_983 * 400)  # a pre-period in bases 10 and 60

    def _pair(self, base):
        info = _expand(self.X, base, 8, True)[0]
        twin = _expand(self.X, base, 8, True)[0]
        built = _constructor_twin(twin)
        assert not {"int_digits", "frac_digits", "period"} & (set(vars(info)) | set(vars(built)))
        return info, built

    @pytest.mark.parametrize("base", [10, 60])
    def test_tuple_is_built_once_on_first_read(self, base, tuples_built):
        info, built = self._pair(base)
        assert str(info) == str(built) and info.period_text == built.period_text
        assert info.preperiod_text == built.preperiod_text and tuples_built == []
        for name in ("int_digits", "frac_digits", "period"):
            digits = getattr(info, name)
            assert type(digits) is tuple and digits and digits == getattr(built, name)
            assert vars(info)[name] is digits and getattr(info, name) is digits
        assert len(info.period) == 999_982
        # each field's, the record's then its twin's
        assert tuples_built == ["int_digits", "int_digits", "frac_digits", "frac_digits", "period", "period"]

    @pytest.mark.parametrize("base", [10, 60])
    @pytest.mark.parametrize("read_first", [False, True])
    @pytest.mark.parametrize("view", sorted(_VIEWS))
    def test_views_match_the_constructor(self, base, read_first, view):
        info, built = self._pair(base)
        if read_first:
            _read_digit_fields(info)
        assert {name: name in vars(info) for name in ("int_digits", "frac_digits", "period")} == dict.fromkeys(
            ("int_digits", "frac_digits", "period"), read_first
        )
        assert _VIEWS[view](info) == _VIEWS[view](built)

    def test_field_has_no_default(self):
        assert not hasattr(exact.Expansion, "period")
        with pytest.raises(TypeError, match="period"):
            exact.Expansion(1, (0,), ())

    # printing reads the kept bytes: the command line prints 1/999983 in
    # every notation, and every golden case, without building a tuple
    def test_cli_builds_no_tuple(self, tuples_built, capsys):
        from test_cli import DATA, GOLDEN_CASES

        assert len(_expand(self.X, 60, 8, True)[0].period) == 999_982 and tuples_built == ["period"]
        tuples_built.clear()
        heads = {
            "canonical": "0;(" + _joined(frac_stream(1, 999_983, 60, 8)) + ":",
            "decimal": "0.(" + "".join(map(str, frac_stream(1, 999_983, 10, 20))),
            "glyph": "",
        }
        for notation, head in heads.items():
            assert cli.main(["arith", "--to", notation, "div", "1", "999983"]) == 0
            out, err = capsys.readouterr()
            assert err == "" and out.startswith(head) and out.endswith(")\n"), notation
        assert len(GOLDEN_CASES) == 21
        for name, argv in GOLDEN_CASES.items():
            assert cli.main(argv) == 0
            out, err = capsys.readouterr()
            assert err == "" and out == (DATA / f"{name}.txt").read_text(encoding="utf-8"), name
        assert tuples_built == []


    # the tuple alone would take 8 bytes a digit, 8 MB; the expansion's peak
    # is the emitter's bytearray and the kept bytes, 1 MB each (1.91 MiB on
    # CPython 3.10-3.13, against 9.54 MiB when the tuple was built)
    def test_expansion_peak_memory_holds_no_tuple(self):
        x = Fraction(1, 999_983)
        to_decimal(x)
        tracemalloc.start()
        try:
            info = to_decimal(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20
        assert len(info.period) == 999_982


# a builder-made record of each kind with digit fields, short and long
_DIGIT_RECORDS = {
    "number": lambda: SexNumber.from_digits(-1, (1, 59, 0, 15), 3),
    "number-long": lambda: to_sexagesimal(Fraction(-(10**400) - 7, 60**150), 150)[0],
    "float": lambda: normalize_float(Fraction(2, 7), 5),
    "float-long": lambda: normalize_float(Fraction(2, 7), 300),
    "expansion": lambda: to_sexagesimal(Fraction(-7, 11 * 3600), 3, detect_repetend=True)[1],
    "expansion-terminating": lambda: to_decimal(Fraction(-(10**300) - 1, 2**600)),
}


class TestDigitFields:
    # SexNumber.digits, SexFloat.mantissa and Expansion's three digit
    # fields are one kind of field: kept as bytes, each built as a tuple on
    # its first read and kept, every view equal to the constructor's
    # record's, whether the fields have been read or not
    @pytest.mark.parametrize("read_first", [False, True])
    @pytest.mark.parametrize("view", sorted(_VIEWS))
    @pytest.mark.parametrize("kind", sorted(_DIGIT_RECORDS))
    def test_views_match_the_constructor(self, kind, view, read_first):
        record = _DIGIT_RECORDS[kind]()
        built = _constructor_twin(record)
        assert kept_digits(record) == kept_digits(built)
        assert all(type(digits) is bytes for digits in kept_digits(record).values())
        if read_first:
            _read_digit_fields(record)
        assert all((name in vars(record)) == read_first for name in type(record)._digit_keys)
        assert _VIEWS[view](record) == _VIEWS[view](built)

    @pytest.mark.parametrize("kind", sorted(_DIGIT_RECORDS))
    def test_tuple_is_built_once_on_first_read(self, kind, tuples_built):
        record = _DIGIT_RECORDS[kind]()
        str(record)
        assert tuples_built == []
        first = _read_digit_fields(record)
        assert tuples_built == list(type(record)._digit_keys)
        assert all(type(digits) is tuple and all(type(d) is int for d in digits) for digits in first)
        second = _read_digit_fields(record)
        assert all(a is b for a, b in zip(first, second)) and len(tuples_built) == len(first)

    # pickles written while the records kept tuples: protocol 2, with the
    # fields by name as their state, as records pickle now
    OLD_PICKLES = {
        SexNumber(-1, (1, 59, 0, 15), 3): (
            b"\x80\x02csexagesimal.exact\nSexNumber\nq\x00)\x81q\x01}q\x02(X\x04\x00\x00\x00signq\x03J\xff\xff"
            b"\xff\xffX\x06\x00\x00\x00digitsq\x04(K\x01K;K\x00K\x0ftq\x05X\n\x00\x00\x00frac_countq\x06K\x03ub."
        ),
        SexFloat(1, (17, 8, 34, 17, 8), 0): (
            b"\x80\x02csexagesimal.floating\nSexFloat\nq\x00)\x81q\x01}q\x02(X\x04\x00\x00\x00signq\x03K\x01X"
            b"\x08\x00\x00\x00mantissaq\x04(K\x11K\x08K\"K\x11K\x08tq\x05X\x08\x00\x00\x00exponentq\x06K\x00ub."
        ),
        exact.Expansion(-1, (0,), (0, 0), (38, 10, 54, 32, 43), 60, False, None, True): (
            b"\x80\x02csexagesimal.exact\nExpansion\nq\x00)\x81q\x01}q\x02(X\x04\x00\x00\x00signq\x03J\xff\xff"
            b"\xff\xffX\n\x00\x00\x00int_digitsq\x04K\x00\x85q\x05X\x0b\x00\x00\x00frac_digitsq\x06K\x00K\x00"
            b"\x86q\x07X\x06\x00\x00\x00periodq\x08(K&K\nK6K K+tq\tX\x04\x00\x00\x00baseq\nK<X\n\x00\x00\x00"
            b"terminatesq\x0b\x89X\x08\x00\x00\x00frac_lenq\x0cNX\x08\x00\x00\x00completeq\r\x88ub."
        ),
    }

    @pytest.mark.parametrize("index", range(3))
    def test_record_from_a_tuple_state(self, index):
        # a state that holds the digit fields as tuples, as every pickle
        # and copy state written before records kept bytes does: the record
        # restored from it keeps bytes, and prints, converts and compares
        # as the constructor's; it pickles to the same bytes again
        expected, old = list(self.OLD_PICKLES.items())[index]
        restored = pickle.loads(old)
        assert kept_digits(restored) == kept_digits(expected)
        assert not set(kept_digits(restored)) & set(vars(restored))
        assert str(restored) == str(expected)
        if isinstance(restored, exact.Expansion):
            assert restored.period_text == expected.period_text
        else:
            assert restored.to_rational() == expected.to_rational()
        assert restored == expected and hash(restored) == hash(expected) and repr(restored) == repr(expected)
        assert pickle.dumps(restored, 2) == pickle.dumps(expected, 2) == old
        state = {name: getattr(expected, name) for name in type(expected)._fields}
        assert expected.__getstate__() == state
        bare = type(expected).__new__(type(expected))
        bare.__setstate__(state)
        assert kept_digits(bare) == kept_digits(expected) and bare == expected
