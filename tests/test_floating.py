"""Normalized base-60 float model and machine epsilon."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import assert_same_record, nonzero_rationals, rationals, run_python, sex_numbers
from sexagesimal import (
    HALF_UP,
    TRUNC,
    DomainError,
    SexFloat,
    SexNumber,
    from_sexagesimal,
    machine_epsilon,
    normalize_float,
    to_decimal,
    to_sexagesimal,
)
from sexagesimal.exact import ROUNDING_MODES
from sexagesimal.floating import _magnitude_exponent


class TestNormalizeFloat:
    def test_tablet_ratio(self):
        f = normalize_float(Fraction(28561, 14400), 8)
        assert f.mantissa == (1, 59, 0, 15, 0, 0, 0, 0)
        assert f.exponent == 1
        assert f.to_rational() == Fraction(28561, 14400)

    def test_mantissa_interval_boundary(self):
        f = normalize_float(Fraction(1, 60), 4)
        assert f.mantissa == (1, 0, 0, 0)
        assert f.exponent == 0

    def test_two(self):
        f = normalize_float(Fraction(2), 8)
        assert f.mantissa == (2, 0, 0, 0, 0, 0, 0, 0)
        assert f.exponent == 1

    def test_zero_is_distinguished(self):
        f = normalize_float(Fraction(0), 8)
        assert f == SexFloat.zero(8)
        assert f.sign == 0 and f.exponent == 0
        assert f.to_rational() == 0

    def test_rounding_carry_bumps_exponent(self):
        # 59.999 rounds up across the whole mantissa at two sexagesits
        f = normalize_float(Fraction(59999, 1000), 2, HALF_UP)
        assert f.mantissa == (1, 0)
        assert f.exponent == 2
        assert f.to_rational() == 60

    def test_precision_validated(self):
        with pytest.raises(DomainError):
            normalize_float(Fraction(1), 0)

    @given(nonzero_rationals(), st.integers(1, 12))
    def test_normalization_invariant(self, x, precision):
        f = normalize_float(x, precision, TRUNC)
        assert f.mantissa[0] != 0
        mantissa_value = abs(f.to_rational()) / Fraction(60) ** f.exponent
        assert Fraction(1, 60) <= mantissa_value < 1

    @given(nonzero_rationals(), st.integers(1, 10))
    def test_truncation_prefix_is_stable(self, x, precision):
        # growing the mantissa never rewrites already-emitted sexagesits
        small = normalize_float(x, precision, TRUNC)
        large = normalize_float(x, precision + 1, TRUNC)
        assert large.mantissa[:precision] == small.mantissa
        assert large.exponent == small.exponent

    def test_half_up_can_carry_once(self):
        # the documented exception to prefix stability: a single rounding carry
        x = Fraction(7199, 7200)  # 0;59:59:30, a tie at two sexagesits
        short = normalize_float(x, 2, HALF_UP)
        longer = normalize_float(x, 3, HALF_UP)
        assert short.mantissa == (1, 0) and short.exponent == 1
        assert longer.mantissa == (59, 59, 30) and longer.exponent == 0


def _naive_magnitude_exponent(x):
    # one division or multiplication by 60 per sexagesit of magnitude
    num, den = abs(x.numerator), x.denominator
    e = 0
    if num >= den:
        q = num // den
        while q:
            q //= 60
            e += 1
        return e
    while num < den:
        num *= 60
        e -= 1
    return e + 1


def _best_of_3(call):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


class TestMagnitudeExponent:
    def test_powers_of_sixty_boundaries(self):
        tiny = Fraction(1, 10**120)
        for k in range(-60, 61):
            power = Fraction(60) ** k
            for x in (power - tiny, power, power + tiny):
                assert _magnitude_exponent(x) == _magnitude_exponent(-x) == _naive_magnitude_exponent(x)
            assert _magnitude_exponent(power) == k + 1
            assert _magnitude_exponent(power - tiny) == k

    @given(nonzero_rationals())
    def test_small_against_naive_loop(self, x):
        assert _magnitude_exponent(x) == _naive_magnitude_exponent(x)

    @given(st.integers(1, 10**400), st.integers(1, 10**400))
    def test_large_against_naive_loop(self, num, den):
        x = Fraction(num, den)
        assert _magnitude_exponent(x) == _naive_magnitude_exponent(x)

    def test_large_operand_costs_about_one_conversion(self):
        # counting sexagesits one division at a time made this about ten
        # times the cost of converting the same value to digits
        x = Fraction(7**20000)
        convert = _best_of_3(lambda: to_sexagesimal(x, 8))
        normalize = _best_of_3(lambda: normalize_float(x, 8))
        assert normalize < 3 * convert


class TestSexFloatConversions:
    def test_to_sex_number_positive_exponent(self):
        f = SexFloat(1, (1, 24, 51, 10), 1)
        assert f.to_sex_number() == SexNumber(1, (1, 24, 51, 10), 3)

    def test_to_sex_number_negative_exponent(self):
        f = SexFloat(1, (30,), -1)
        assert f.to_sex_number().canonical_text() == "0;0:30"

    def test_to_sex_number_exponent_beyond_mantissa(self):
        f = SexFloat(1, (1,), 3)
        assert f.to_sex_number().canonical_text() == "1:0:0"

    def test_from_sex_number_pads(self):
        x = SexNumber(1, (2,), 0)
        f = SexFloat.from_sex_number(x, precision=4)
        assert f.mantissa == (2, 0, 0, 0)
        assert f.exponent == 1

    def test_from_sex_number_overflow(self):
        with pytest.raises(DomainError):
            SexFloat.from_sex_number(SexNumber(1, (1, 2, 3), 0), precision=2)

    @given(sex_numbers(), st.integers(0, 4))
    def test_round_trip_keeps_the_value(self, x, pad):
        f = SexFloat.from_sex_number(x)
        assert f.to_sex_number() == x
        assert f.to_rational() == from_sexagesimal(x)
        padded = SexFloat.from_sex_number(x, precision=f.precision + pad)
        assert padded.mantissa == f.mantissa + (0,) * pad and padded.to_sex_number() == x
        # the positional value of mantissa and exponent, digit by digit
        value = sum(Fraction(d, 60**i) for i, d in enumerate(f.mantissa, 1)) * Fraction(60) ** f.exponent
        assert f.to_rational() == f.sign * value

    def test_from_sex_number_within_deadline(self):
        # dropping 3 * 10**5 leading zeros one list.pop(0) at a time took
        # about 9 s; 10**5 took 1 s
        code = (
            "from fractions import Fraction\n"
            "from sexagesimal import SexFloat, SexNumber\n"
            "x = SexNumber(1, bytes(300001) + b'\\x07', 300001)\n"
            "f = SexFloat.from_sex_number(x)\n"
            "print(f.mantissa, f.exponent, f.to_sex_number() == x, f.to_rational() == Fraction(7, 60**300001))\n"
        )
        proc = run_python(["-c", code], timeout=5)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["(7,)", "-300000", "True", "True"]

    def test_validation(self):
        with pytest.raises(ValueError):
            SexFloat(1, (0, 1), 0)  # unnormalized
        with pytest.raises(ValueError):
            SexFloat(0, (1, 0), 0)  # zero sign with nonzero mantissa
        # one range check and message for digits of any sequence type
        for mantissa in ((1, 60), b"\x01\x3c", bytearray(b"\x01\x3c"), [1, 60]):
            with pytest.raises(ValueError, match="sexagesit out of range: 60"):
                SexFloat(1, mantissa, 0)


class TestBuildersMatchTheConstructor:
    """`normalize_float`, `SexFloat.from_sex_number` and `SexFloat.zero` set
    the fields of a float they have just made normalized without the
    constructor's checks; each must be the record the checking constructor
    builds from the same fields."""

    @given(rationals(max_num=10**30, max_den=10**30), st.integers(1, 32), st.sampled_from(ROUNDING_MODES))
    def test_normalize_float(self, x, precision, mode):
        f = normalize_float(x, precision, mode)
        assert_same_record(f, SexFloat(f.sign, f.mantissa, f.exponent))
        assert type(f.mantissa) is tuple and all(type(d) is int for d in f.mantissa)

    @given(rationals(max_num=10**30, max_den=10**30), st.integers(1, 32), st.integers(0, 4))
    def test_from_sex_number(self, x, precision, pad):
        number, _ = to_sexagesimal(x, precision)
        for f in (SexFloat.from_sex_number(number), SexFloat.from_sex_number(number, precision + pad + 30)):
            assert_same_record(f, SexFloat(f.sign, f.mantissa, f.exponent))
            assert type(f.mantissa) is tuple and all(type(d) is int for d in f.mantissa)

    @pytest.mark.parametrize("precision", [1, 2, 32])
    def test_zero(self, precision):
        assert_same_record(SexFloat.zero(precision), SexFloat(0, (0,) * precision, 0))

    @pytest.mark.parametrize("precision", [0, -1])
    def test_zero_refuses_an_empty_mantissa_like_the_constructor(self, precision):
        with pytest.raises(ValueError, match="^mantissa is empty$"):
            SexFloat.zero(precision)


class TestMachineEpsilon:
    def test_exact_value(self):
        assert machine_epsilon(8) == Fraction(1, 60**8)
        assert machine_epsilon(1) == Fraction(1, 60)

    def test_decimal_expansion_of_p2(self):
        exp = to_decimal(machine_epsilon(2))
        assert exp.preperiod_text == "0.0002"
        assert exp.period_text == "7"

    @pytest.mark.parametrize("precision", range(1, 65))
    def test_ordering(self, precision):
        assert machine_epsilon(precision + 1) * 60 == machine_epsilon(precision)

    def test_validation(self):
        with pytest.raises(DomainError):
            machine_epsilon(0)
