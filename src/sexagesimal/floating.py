"""Normalized base-60 floating point: sign, P-sexagesit mantissa, exponent.

A nonzero value is sign * (0.m1 m2 ... mP)_60 * 60**e with m1 != 0, so the
mantissa M always satisfies 1/60 <= M < 1.  Zero is the one distinguished
value exempt from that rule: sign 0, all-zero mantissa, exponent 0 (the
exponent bias is fixed to 0 throughout).
"""

import math
from fractions import Fraction

from .errors import DomainError
from .exact import (
    BASE,
    TRUNC,
    SexNumber,
    _check_mode,
    _check_signed_digits,
    _digits_of_int,
    _rational,
    _Record,
    _round_quotient,
    from_sexagesimal,
)


class SexFloat(_Record):
    sign: int
    mantissa: tuple[int, ...]
    exponent: int

    def _check(self):
        sign, mantissa = self.sign, self._mantissa
        _check_signed_digits(sign, mantissa, "mantissa")
        if sign == 0:
            if any(mantissa) or self.exponent != 0:
                raise ValueError("zero must have an all-zero mantissa and exponent 0")
        elif mantissa[0] == 0:
            raise ValueError("mantissa is not normalized (leading sexagesit 0)")

    @classmethod
    def zero(cls, precision: int) -> "SexFloat":
        mantissa = b"\0" * precision
        if not mantissa:  # the constructor's error
            return cls(0, mantissa, 0)
        return cls._build(0, mantissa, 0)

    @property
    def precision(self) -> int:
        return len(self._mantissa)

    def to_rational(self) -> Fraction:
        return from_sexagesimal(self.to_sex_number())

    def to_sex_number(self) -> SexNumber:
        """Lay the mantissa out positionally (exact; trailing zeros dropped)."""
        digits = self._mantissa.ljust(self.exponent, b"\0")  # zeros up to the radix point
        return SexNumber.from_digits(self.sign, digits, len(digits) - self.exponent)

    @classmethod
    def from_sex_number(cls, x: SexNumber, precision: int | None = None) -> "SexFloat":
        """Exact conversion; optionally zero-pad the mantissa to ``precision``.
        The digits of a canonical ``x``, stripped of leading zeros, are a
        normalized mantissa, so it is set without the constructor's checks."""
        if x.is_zero:
            return cls.zero(precision or 1)
        digits = x._digits.lstrip(b"\0")
        exponent = len(digits) - x.frac_count
        digits = digits.rstrip(b"\0")
        if precision is not None:
            if len(digits) > precision:
                raise DomainError(f"{len(digits)} significant sexagesits do not fit precision {precision}")
            digits = digits.ljust(precision, b"\0")
        return cls._build(x.sign, digits, exponent)

    def __str__(self) -> str:
        return self.to_sex_number().canonical_text()


_LN60 = math.log(BASE)


def _at_least(num: int, den: int, k: int) -> bool:
    """Whether num / den >= 60**k, exactly."""
    return num >= den * BASE**k if k >= 0 else num * BASE**-k >= den


def _magnitude_exponent(x: Fraction) -> int:
    """The unique e with 60**(e-1) <= |x| < 60**e, for x != 0.

    e - 1 = floor(log60 |x|) comes from float logarithms, which CPython takes
    for ints of any size from their leading bits.  Only a logarithm too
    close to an integer for its rounding error is settled by an exact
    comparison with a power of 60.
    """
    num, den = abs(x.numerator), x.denominator
    ln_num, ln_den = math.log(num), math.log(den)
    y = (ln_num - ln_den) / _LN60
    k = math.floor(y)
    # far above the few ulps of error in y, which grow with ln num + ln den
    slack = 1e-12 * (2 + (ln_num + ln_den) / _LN60)
    if y - k < slack or k + 1 - y < slack:
        if not _at_least(num, den, k):
            k -= 1
        elif _at_least(num, den, k + 1):
            k += 1
    return k + 1


def normalize_float(x: Fraction, precision: int, mode: str = TRUNC) -> SexFloat:
    """Normalize ``x`` to a `SexFloat` with exactly ``precision`` mantissa
    sexagesits, rounding per ``mode``.

    A rounding carry out of the mantissa (all 59s rounding up) bumps the
    exponent, keeping 1/60 <= M < 1.
    """
    if precision < 1:
        raise DomainError("precision must be at least 1")
    _check_mode(mode)
    x = _rational(x)
    if not x.numerator:
        return SexFloat.zero(precision)
    e = _magnitude_exponent(x)
    shift = precision - e
    num = abs(x.numerator) * BASE ** max(shift, 0)
    den = x.denominator * BASE ** max(-shift, 0)
    m = _round_quotient(num, den, mode)
    if m == BASE**precision:
        m //= BASE
        e += 1
    # 60**(precision - 1) <= m < 60**precision: a normalized mantissa
    return SexFloat._build(1 if x.numerator > 0 else -1, _digits_of_int(m, width=precision), e)


def machine_epsilon(precision: int) -> Fraction:
    """One unit in the last mantissa place: exactly 60**(-precision)."""
    if precision < 1:
        raise DomainError("precision must be at least 1")
    return Fraction(1, BASE**precision)
