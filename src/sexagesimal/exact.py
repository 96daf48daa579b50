"""Exact rational arithmetic and base-60 positional form.

All numeric truth lives in `fractions.Fraction` (aliased ``Rational``): values
are always stored reduced, with a positive denominator and zero as 0/1.  A
base-60 digit ("sexagesit") is a plain int in 0..59; `SexNumber` holds a
sign, a digit sequence and the count of digits right of the radix point.

Canonical base-60 text writes sexagesits as decimal numbers separated by
``:`` with ``;`` as the radix point, e.g. ``1;59:0:15`` or ``2:49``.
"""

import math
import sys
from fractions import Fraction
from itertools import zip_longest

from .errors import DomainError, ParseError, quote

Rational = Fraction

BASE = 60

# rounding modes (applied to the magnitude; ties per mode name)
TRUNC = "trunc"
HALF_UP = "half-up"
HALF_EVEN = "half-even"
ROUNDING_MODES = (TRUNC, HALF_UP, HALF_EVEN)

# Repetend detection gives up when the pre-period plus the period would be
# longer than this many digits (that is, when long division would visit more
# than this many distinct remainders).  Read at call time.  Deciding costs
# about 3 * sqrt(bound) steps, not one per digit: a short walk plus a
# baby-step giant-step search for the period's length (see `_repetend`).
PERIOD_STATE_BOUND = 10**6

# Operands of more than this many bits are converted between int and digits
# by divide and conquer on base**(leaf * 2**k), and their denominators split
# into base primes by valuations; smaller ones keep the plain per-digit and
# gcd loops, which are faster there.
_DC_BITS = 512

# the decimal digits; indexed by digit value, also the digit -> text table of
# decimal text
_ASCII_DIGITS = "0123456789"

# canonical text: each sexagesit as the byte whose two hex digits are its
# decimal numeral, with the tens digit f (dropped) below 10
_BCD = bytes(d + 0xF0 if d < 10 else d // 10 * 16 + d % 10 for d in range(BASE)).ljust(256, b"\0")

# `_emit_digits` blocks: decimal digits per "%d" block (far below CPython's
# int-string limit), and ASCII digits to digit values
_DEC_BLOCK = 300
_ASCII_TO_DIGIT = bytes.maketrans(_ASCII_DIGITS.encode(), bytes(range(10)))


class DecimalParseError(ParseError):
    pass


def parse_decimal(text: str) -> Fraction:
    """Parse a decimal literal ``[-]digits[.digits][(e|E)[-]digits]`` exactly.

    No binary float is ever constructed; ``"5.95374180765127242e-15"`` comes
    back as the literal fraction over a power of ten.
    """
    s = text
    n = len(s)
    i = 0

    def fail(msg: str, pos: int):
        raise DecimalParseError(f"{msg} at position {pos}: {quote(text)}", position=pos)

    if n == 0:
        fail("empty decimal literal", 1)
    sign = 1
    if s[i] == "-":
        sign = -1
        i += 1

    def scan_digits(what: str) -> str:
        nonlocal i
        start = i
        while i < n and s[i] in _ASCII_DIGITS:
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
        # 10**|exp| has |exp| + 1 digits, so the same limit bounds its cost
        limit = sys.get_int_max_str_digits()
        if limit and abs(exp) > limit:
            fail(f"exponent {exp} exceeds the int-string limit of {limit}", exp_at)
        value *= Fraction(10) ** exp
    return sign * value


def arith(op: str, x: Fraction, y: Fraction) -> Fraction:
    """Exact add/sub/mul/div; the result is stored reduced."""
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "div":
        if y == 0:
            raise DomainError("division by zero")
        return x / y
    raise DomainError(f"unknown operation {op!r}")


def int_sqrt(n: int) -> tuple[int, bool]:
    """Floor square root of a non-negative integer, plus a perfect-square flag."""
    if n < 0:
        raise DomainError("int_sqrt of a negative number")
    r = math.isqrt(n)
    return r, r * r == n


def _check_mode(mode: str):
    if mode not in ROUNDING_MODES:
        raise DomainError(f"unknown rounding mode {mode!r}")


def _round_quotient(num: int, den: int, mode: str) -> int:
    # num, den > 0; rounds num/den to an integer per mode
    q, r = divmod(num, den)
    if mode == TRUNC or r == 0:
        return q
    if mode == HALF_UP:
        return q + (1 if 2 * r >= den else 0)
    return q + (1 if (2 * r > den or (2 * r == den and q % 2 == 1)) else 0)


def _digits_of_int(n: int, base: int = BASE, width: int = 1) -> list[int]:
    """Digits of ``n >= 0`` in ``base``, most significant first, left-padded
    with zeros to ``width`` digits when shorter (zero has no digits of its
    own, so it comes back as ``width`` zeros)."""
    if n.bit_length() <= _DC_BITS:
        out = []
        while n:
            n, d = divmod(n, base)
            out.append(d)
        out.extend([0] * (width - len(out)))
        out.reverse()
        return out
    leaf = _DC_BITS // base.bit_length()  # so base**leaf < 2**_DC_BITS
    powers = [base**leaf]  # powers[k] = base**(leaf * 2**k)
    while powers[-1] <= n:
        powers.append(powers[-1] * powers[-1])
    out = []

    def split(n: int, k: int, pad: bool):
        # the digits of n < powers[k]: all leaf * 2**k of them when pad, else
        # without leading zeros
        if k == 0 or (pad and not n):
            out.extend(_digits_of_int(n, base, leaf << k if pad else 0))
            return
        hi, lo = divmod(n, powers[k - 1])
        if hi or pad:
            split(hi, k - 1, pad)
            pad = True
        split(lo, k - 1, pad)

    split(n, len(powers) - 1, False)
    if len(out) < width:
        out[:0] = [0] * (width - len(out))
    return out


def _int_of_digits(digits, base: int = BASE) -> int:
    """Value of a digit sequence, most significant first (the inverse of
    `_digits_of_int`): Horner's rule on leaves of digits, then pairwise
    products with base**(leaf * 2**k)."""
    leaf = _DC_BITS // base.bit_length()
    values = []
    start = 0
    for stop in range(len(digits) % leaf, len(digits) + 1, leaf):
        value = 0
        for d in digits[start:stop]:
            value = value * base + d
        values.append(value)
        start = stop
    if len(values) == 1:
        return values[0]
    power = base**leaf
    while len(values) > 1:
        odd = len(values) % 2  # an unpaired value is the most significant
        values[odd:] = [hi * power + lo for hi, lo in zip(values[odd::2], values[odd + 1 :: 2])]
        power *= power
    return values[0]


def _spell(digits, symbols) -> str:
    """The digits written as symbols[d] each, run together by one
    `str.translate` over the digits as code points; with no ``symbols``, as
    canonical ``:``-separated decimal numerals."""
    if symbols is not None:
        return bytes(digits).decode("latin-1").translate(symbols)
    # each sexagesit as one packed-BCD byte, hex-printed with ":" between
    # bytes; below 10 the tens nibble is f, a mark that is then dropped
    return bytes(digits).translate(_BCD).hex(":").replace("f", "")


def _render(sign, int_digits, frac_digits=(), period=(), complete=True, symbols=None, point=";") -> str:
    """Positional text in any notation: ``-`` for a negative sign, the
    integer digits, ``point`` and the fractional digits when there are any
    or a period, the period in parentheses, else ``...`` when incomplete.
    A digit d is written symbols[d] with nothing between digits (a glyph
    table's ``forward`` for glyphs, `_ASCII_DIGITS` for decimal digits), or
    without ``symbols`` as a canonical ``:``-separated sexagesit."""
    text = _spell(int_digits, symbols)
    if frac_digits or period:
        text += point + _spell(frac_digits, symbols)
    if period:
        text += "(" + _spell(period, symbols) + ")"
    elif not complete:
        text += "..."
    return "-" + text if sign < 0 else text


def _diff_digits(published, derived, record) -> tuple:
    """``record(position, published, derived)`` at each 1-based position where
    two digit sequences differ; past the shorter one's end its digit is None."""
    pairs = enumerate(zip_longest(published, derived), 1)
    return tuple(record(i, p, d) for i, (p, d) in pairs if p != d)


# a record's __init__ sets its fields with this, past `_Record.__setattr__`;
# bound once, it takes one lookup fewer per field than object.__setattr__
_setattr = object.__setattr__


class _Record:
    """Immutable value behaviour over the fields a subclass annotates, in
    order, which its ``__init__`` sets with `_setattr`: fields cannot be
    assigned or deleted, records of one class compare and hash by their
    field values, and the repr is ``Name(field=value, ...)``.  The fields
    are also the positional ``match`` arguments, unless the subclass
    names its own ``__match_args__``."""

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        cls.__match_args__ = vars(cls).get("__match_args__", cls._fields)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class SexNumber(_Record):
    """A base-60 positional numeral: sign, digits (most significant first),
    and how many of those digits lie right of the radix point.

    Instances are canonical: no leading zeros on a nonzero integer part, a
    single leading 0 when the value is purely fractional, no trailing zero
    fractional digits, and zero is sign=0, digits=(0,), frac_count=0.
    """

    sign: int
    digits: tuple[int, ...]
    frac_count: int

    def __init__(self, sign: int, digits: tuple[int, ...], frac_count: int):
        digits = tuple(digits)
        _setattr(self, "sign", sign)
        _setattr(self, "digits", digits)
        _setattr(self, "frac_count", frac_count)
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, not {sign!r}")
        if not digits:
            raise ValueError("digit sequence is empty")
        for d in digits:
            if not (isinstance(d, int) and 0 <= d < BASE):
                raise ValueError(f"sexagesit out of range: {d!r}")
        if not 0 <= frac_count <= len(digits):
            raise ValueError("frac_count out of range")
        if sign == 0:
            if digits != (0,) or frac_count != 0:
                raise ValueError("zero must be digits=(0,), frac_count=0")
            return
        int_digits = digits[: len(digits) - frac_count]
        if not int_digits:
            raise ValueError("integer part must carry at least one digit")
        if len(int_digits) > 1 and int_digits[0] == 0:
            raise ValueError("leading zero in integer part")
        if int_digits == (0,) and frac_count == 0:
            raise ValueError("nonzero sign with zero digits")
        if frac_count and digits[-1] == 0:
            raise ValueError("trailing zero fractional digit")

    @classmethod
    def from_digits(cls, sign: int, digits, frac_count: int) -> "SexNumber":
        """Build the canonical SexNumber for an arbitrary digit string."""
        digits = list(digits)
        if frac_count > len(digits):
            digits = [0] * (frac_count - len(digits)) + digits
        if sign == 0 or not any(digits):
            return cls(0, (0,), 0)
        while frac_count and digits[-1] == 0:
            digits.pop()
            frac_count -= 1
        int_len = len(digits) - frac_count
        if int_len == 0:
            digits = [0] + digits
            int_len = 1
        keep = int_len
        while keep > 1 and digits[int_len - keep] == 0:
            keep -= 1
        digits = digits[int_len - keep :]
        return cls(1 if sign > 0 else -1, tuple(digits), frac_count)

    @classmethod
    def from_int(cls, n: int) -> "SexNumber":
        return cls.from_digits(1 if n >= 0 else -1, _digits_of_int(abs(n)), 0)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    @property
    def int_digits(self) -> tuple[int, ...]:
        return self.digits[: len(self.digits) - self.frac_count]

    @property
    def frac_digits(self) -> tuple[int, ...]:
        return self.digits[len(self.digits) - self.frac_count :]

    def to_rational(self) -> Fraction:
        return from_sexagesimal(self)

    def canonical_text(self) -> str:
        """Render in the canonical ``1;59:0:15`` text form."""
        return _render(self.sign, self.int_digits, self.frac_digits)

    def __str__(self) -> str:
        return self.canonical_text()


def from_sexagesimal(x: SexNumber) -> Fraction:
    """Exact rational value of a positional numeral (inverse of
    `to_sexagesimal` on terminating inputs)."""
    return Fraction(x.sign * _int_of_digits(x.digits), BASE**x.frac_count)


class Expansion(_Record):
    """The exact positional expansion of a rational in some base.

    ``frac_digits`` holds the emitted fractional digits before any repetend;
    ``period`` is the minimal repetend (empty when the expansion terminates
    or was not resolved).  ``terminates`` is exact (decided from the reduced
    denominator), and ``frac_len`` gives the exact terminating length when
    it applies.  ``complete`` tells whether the digits shown fully
    characterize the value.
    """

    sign: int
    int_digits: tuple[int, ...]
    frac_digits: tuple[int, ...]
    period: tuple[int, ...]
    base: int
    terminates: bool
    frac_len: int | None
    complete: bool

    def __init__(
        self,
        sign: int,
        int_digits: tuple[int, ...],
        frac_digits: tuple[int, ...],
        period: tuple[int, ...],
        base: int,
        terminates: bool,
        frac_len: int | None,
        complete: bool,
    ):
        _setattr(self, "sign", sign)
        _setattr(self, "int_digits", int_digits)
        _setattr(self, "frac_digits", frac_digits)
        _setattr(self, "period", period)
        _setattr(self, "base", base)
        _setattr(self, "terminates", terminates)
        _setattr(self, "frac_len", frac_len)
        _setattr(self, "complete", complete)

    @property
    def _style(self) -> dict:
        # decimal digits run together; sexagesits are ":" separated
        return {"symbols": _ASCII_DIGITS, "point": "."} if self.base == 10 else {}

    @property
    def preperiod_text(self) -> str:
        """Sign, integer part and fractional digits before the repetend,
        e.g. ``0.01`` for 1/60 in base 10."""
        return _render(self.sign, self.int_digits, self.frac_digits, **self._style)

    @property
    def period_text(self) -> str:
        return _render(1, self.period, **self._style)

    def terminates_within(self, max_frac: int) -> bool:
        return self.terminates and self.frac_len is not None and self.frac_len <= max_frac

    def __str__(self) -> str:
        return _render(
            self.sign, self.int_digits, self.frac_digits, self.period, self.complete, **self._style
        )


def _valuation(n: int, p: int) -> tuple[int, int]:
    """(v, n // p**v) for the largest v with p**v | n, found by dividing out
    p**(2**j) from the largest j down: O(log v) big divisions, not v."""
    powers = []
    q = p
    while n % q == 0:
        powers.append(q)
        q *= q
    v = 0
    for j in reversed(range(len(powers))):
        quotient, r = divmod(n, powers[j])
        if r == 0:
            n = quotient
            v += 1 << j
    return v, n


def _split_denominator(den: int, base: int) -> tuple[int, int]:
    """(k, t) with den = s * t, s made of the primes of ``base`` and t coprime
    to it; k is the least k with s | base**k, which is the pre-period length
    of every reduced fraction over den.

    Dividing by gcd(den, base) once per step lowers every prime exponent by
    at most one base's worth, so the step count is k; past `_DC_BITS` the
    exponents come from valuations instead, k = max ceil(v_p / e_p) over
    the primes p**e_p of base.
    """
    if den.bit_length() <= _DC_BITS:
        k = 0
        while (g := math.gcd(den, base)) > 1:
            den //= g
            k += 1
        return k, den
    k = 0
    p, rest = 2, base
    while rest > 1:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e:
            v, den = _valuation(den, p)
            k = max(k, -(-v // e))
        p += 1
    return k, den


def _terminating_frac_len(den: int, base: int) -> int | None:
    """Exact count of fractional digits of 1/den in ``base``, or None when
    the expansion does not terminate (den carries a prime not in base)."""
    k, rest = _split_denominator(den, base)
    return k if rest == 1 else None


def _emit_digits(walk: bytearray, r: int, den: int, base: int, n: int) -> int:
    """Append the next ``n`` digits of r/den (0 <= r < den) in ``base`` to
    ``walk`` and return the remainder after them.

    Base 10 takes one quotient of up to `_DEC_BLOCK` digits per interpreter
    step, written by ``"%d"``.  Every other base runs K = isqrt(n) + 1 long
    divisions side by side, in byte-aligned fields of one integer (Lamport,
    "Multiple byte processing with full-word instructions", CACM 1975):
    field j starts at r * base**(j*S) mod den and yields digits j*S up to
    (j+1)*S - 1, for S = ceil(n / K).  One step multiplies every field's
    remainder by base and takes each field's digit from a fixed reciprocal
    of den (Granlund & Montgomery, PLDI 1994), which is exact because the
    field product stays below base * den; so S steps of big-int arithmetic
    emit the n digits.
    """
    if base == 10:
        block, power = _DEC_BLOCK, 10**_DEC_BLOCK
        while n > 0:
            if n < block:
                block, power = n, 10**n
            c, r = divmod(r * power, den)
            walk += ("%0*d" % (block, c)).encode().translate(_ASCII_TO_DIGIT)
            n -= block
        return r
    if n <= 0:
        return r
    lanes = math.isqrt(n) + 1
    steps = -(-n // lanes)
    # x * inv >> shift is x // den for every x < base * den, and a field holds
    # x * inv < (base + 1) * 2**shift with bits to spare below the next field
    shift = (base * den).bit_length() + den.bit_length() + 1
    width = -(-(shift + base.bit_length() + 2) // 8)  # bytes per field
    inv = -(-(1 << shift) // den)
    jump = pow(base, steps, den)
    starts = bytearray()
    lane = r
    for _ in range(lanes):
        starts += lane.to_bytes(width, "little")
        lane = lane * jump % den
    rem = int.from_bytes(starts, "little")
    # after the shift each field's digit sits in its low bits, below the
    # shifted-in low bits of the next field
    mask = int.from_bytes(((1 << base.bit_length()) - 1).to_bytes(width, "little") * lanes, "little")
    size = lanes * width
    # grow walk in place to its lanes' end, since every byte there is written
    # below: a zero-filled n-byte temporary left the heap where a period's
    # tuple goes split, and raised peak RSS by up to 8 MB at 10**6 digits
    at, end = len(walk), len(walk) + lanes * steps
    walk.append(0)
    while len(walk) < end:
        walk *= 2
    del walk[end:]
    for i in range(steps):
        x = rem * base
        d = (x * inv >> shift) & mask
        rem = x - d * den
        # a digit < base <= 256 is the low byte of its field
        walk[at + i :: steps] = d.to_bytes(size, "little")[::width]
    del walk[at + n :]
    return r * pow(base, n, den) % den


def _order(base: int, t: int, m: int, limit: int) -> int | None:
    """The multiplicative order of ``base`` modulo ``t`` (coprime to base),
    or None when it exceeds ``limit``, by baby-step giant-step (Shanks) with
    ``m`` >= 1 baby steps: about m + limit / m products mod t.

    The baby steps map base**j mod t to j for j < m, keeping the largest j
    when an order below m repeats a value.  The first giant step base**(i*m)
    found among them, at i = ceil(order / m), gives the order i*m - j.
    """
    baby = {}
    y = 1 % t
    for j in range(m):
        baby[y] = j
        y = y * base % t
    giant = y
    for i in range(1, limit // m + 2):
        j = baby.get(y)
        if j is not None:
            order = i * m - j
            return order if order <= limit else None
        y = y * giant % t
    return None


def _repetend(rem: int, den: int, coprime: int, base: int, preperiod: int, max_frac: int):
    """(frac_digits, period, complete) of rem/den, for 0 < rem < den in
    lowest terms, where ``coprime`` > 1 is the part of den coprime to
    ``base``.

    The pre-period digits are one exact quotient; what follows is the purely
    periodic u/coprime, whose period is the order of base modulo coprime.
    Long division walks at most m = ceil(sqrt(min(bound - preperiod,
    coprime - 1))) digits from u, one step each, and a period that closes
    there comes back as walked.  A longer period's length comes from
    `_order`, and its other digits from `_emit_digits`.  When pre-period
    plus period would exceed `PERIOD_STATE_BOUND` digits the search gives
    up, and the first min(max_frac, bound) digits come back unresolved.
    """
    bound = PERIOD_STATE_BOUND
    shown = min(max_frac, bound)
    if preperiod >= bound:
        # gives up within the pre-period: emit only the digits kept
        return _digits_of_int(rem * base**shown // den, base, shown), (), False
    head, start = divmod(rem * base**preperiod, den)
    frac = _digits_of_int(head, base, preperiod)
    # den's part made of base primes divides base**preperiod, hence start
    u = start // (den // coprime)
    limit = bound - preperiod
    # the period is below coprime, so a small coprime needs a shorter walk
    m = math.isqrt(min(limit, coprime - 1) - 1) + 1
    walk = bytearray()  # digits of base <= 256 fit a byte each
    r = u
    for _ in range(m):
        d, r = divmod(r * base, coprime)
        walk.append(d)
        if r == u:
            return frac, tuple(walk), True
    period = _order(base, coprime, m, limit)
    if period is None:
        if shown > preperiod + m:
            _emit_digits(walk, r, coprime, base, shown - preperiod - m)
        return (frac + list(walk))[:shown], (), False
    _emit_digits(walk, r, coprime, base, period - m)
    return frac, tuple(walk), True


def _expand(x: Fraction, base: int, max_frac: int, detect_repetend: bool) -> Expansion:
    num, den = abs(x.numerator), x.denominator
    sign = 0 if num == 0 else (1 if x.numerator > 0 else -1)
    preperiod, rest = _split_denominator(den, base)
    terminates = rest == 1
    period: tuple[int, ...] = ()
    if terminates:
        # den | base**preperiod, so this is num / den * base**preperiod exactly
        digits = _digits_of_int(num * (base**preperiod // den), base, preperiod + 1)
        cut = len(digits) - preperiod
        int_digits, frac = digits[:cut], digits[cut:]
        complete = True
    else:
        int_digits = _digits_of_int(num // den, base)
        rem = num % den
        if detect_repetend:
            frac, period, complete = _repetend(rem, den, rest, base, preperiod, max_frac)
        else:
            frac = []
            while len(frac) < max_frac:
                rem *= base
                frac.append(rem // den)
                rem %= den
            complete = False

    return Expansion(
        sign=sign,
        int_digits=tuple(int_digits),
        frac_digits=tuple(frac),
        period=period,
        base=base,
        terminates=terminates,
        frac_len=preperiod if terminates else None,
        complete=complete,
    )


def to_sexagesimal(
    x: Fraction,
    max_frac: int,
    mode: str = TRUNC,
    detect_repetend: bool = False,
) -> tuple[SexNumber, Expansion]:
    """Round ``x`` to at most ``max_frac`` fractional sexagesits and report
    how the exact expansion behaves (terminates within/beyond the budget, or
    repeats -- with the minimal repetend when ``detect_repetend`` is set)."""
    if max_frac < 0:
        raise DomainError("max_frac must be non-negative")
    _check_mode(mode)
    x = Fraction(x)
    info = _expand(x, BASE, max_frac, detect_repetend)
    if info.terminates_within(max_frac):
        # exact at this budget: the expansion's digits are the number's
        return SexNumber.from_digits(info.sign, info.int_digits + info.frac_digits, info.frac_len), info
    return _round_to(x, max_frac, mode), info


def _round_to(x: Fraction, max_frac: int, mode: str) -> SexNumber:
    """``x`` rounded to ``max_frac`` fractional sexagesits per ``mode``: the
    number `to_sexagesimal` returns, for callers that need no `Expansion`."""
    scaled = _round_quotient(abs(x.numerator) * BASE**max_frac, x.denominator, mode)
    sign = 0 if scaled == 0 else (1 if x.numerator > 0 else -1)
    return SexNumber.from_digits(sign, _digits_of_int(scaled), max_frac)


def to_decimal(x: Fraction, max_frac: int = 64, detect_repetend: bool = True) -> Expansion:
    """Exact decimal expansion of a rational.

    When the expansion repeats and ``detect_repetend`` is set, the minimal
    repetend is found: the pre-period length comes from the denominator's
    factors of 2 and 5, and the period's length is the multiplicative order
    of 10 modulo the rest of the denominator, found by a short walk of long
    division and then baby-step giant-step in O(sqrt(`PERIOD_STATE_BOUND`))
    steps.  The digits past the walk are emitted 300 to a step, so time and
    memory are otherwise linear in the digits emitted.  When pre-period plus
    period would exceed `PERIOD_STATE_BOUND` digits the result is marked
    incomplete and truncated at min(``max_frac``, bound) digits.
    """
    if max_frac < 0:
        raise DomainError("max_frac must be non-negative")
    return _expand(Fraction(x), 10, max_frac, detect_repetend)
