"""Normalized base-60 floating point: sign, P-sexagesit mantissa, exponent.

A nonzero value is sign * (0.m1 m2 ... mP)_60 * 60**e with m1 != 0, so the
mantissa M always satisfies 1/60 <= M < 1.  Zero is the one distinguished
value exempt from that rule: sign 0, all-zero mantissa, exponent 0 (the
exponent bias is fixed to 0 throughout).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .exact import BASE, TRUNC, SexNumber, _check_mode, _digits_of_int, _int_of_digits, _round_quotient


@dataclass(frozen=True)
class SexFloat:
    sign: int
    mantissa: tuple[int, ...]
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "mantissa", tuple(self.mantissa))
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, not {self.sign!r}")
        if not self.mantissa:
            raise ValueError("mantissa is empty")
        for d in self.mantissa:
            if not (isinstance(d, int) and 0 <= d < BASE):
                raise ValueError(f"sexagesit out of range: {d!r}")
        if self.sign == 0:
            if any(self.mantissa) or self.exponent != 0:
                raise ValueError("zero must have an all-zero mantissa and exponent 0")
        elif self.mantissa[0] == 0:
            raise ValueError("mantissa is not normalized (leading sexagesit 0)")

    @classmethod
    def zero(cls, precision: int) -> "SexFloat":
        return cls(0, (0,) * precision, 0)

    @property
    def precision(self) -> int:
        return len(self.mantissa)

    def to_rational(self) -> Fraction:
        value = Fraction(self.sign * _int_of_digits(self.mantissa), BASE**self.precision)
        return value * Fraction(BASE) ** self.exponent

    def to_sex_number(self) -> SexNumber:
        """Lay the mantissa out positionally (exact; trailing zeros dropped)."""
        if self.sign == 0:
            return SexNumber(0, (0,), 0)
        digits = list(self.mantissa)
        frac_count = self.precision - self.exponent
        if frac_count < 0:
            digits += [0] * -frac_count
            frac_count = 0
        return SexNumber.from_digits(self.sign, digits, frac_count)

    @classmethod
    def from_sex_number(cls, x: SexNumber, precision: int | None = None) -> "SexFloat":
        """Exact conversion; optionally zero-pad the mantissa to ``precision``."""
        if x.is_zero:
            return cls.zero(precision or 1)
        digits = list(x.digits)
        exponent = len(x.int_digits)
        while digits and digits[0] == 0:
            digits.pop(0)
            exponent -= 1
        while digits and digits[-1] == 0:
            digits.pop()
        if precision is not None:
            if len(digits) > precision:
                raise DomainError(f"{len(digits)} significant sexagesits do not fit precision {precision}")
            digits += [0] * (precision - len(digits))
        return cls(x.sign, tuple(digits), exponent)

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
    x = Fraction(x)
    if x == 0:
        return SexFloat.zero(precision)
    e = _magnitude_exponent(x)
    shift = precision - e
    num = abs(x.numerator) * BASE ** max(shift, 0)
    den = x.denominator * BASE ** max(-shift, 0)
    m = _round_quotient(num, den, mode)
    if m == BASE**precision:
        m //= BASE
        e += 1
    return SexFloat(1 if x > 0 else -1, tuple(_digits_of_int(m, width=precision)), e)


def machine_epsilon(precision: int) -> Fraction:
    """One unit in the last mantissa place: exactly 60**(-precision)."""
    if precision < 1:
        raise DomainError("precision must be at least 1")
    return Fraction(1, BASE**precision)
