"""Exact rational arithmetic and base-60 positional form.

All numeric truth lives in `fractions.Fraction` (aliased ``Rational``): values
are always stored reduced, with a positive denominator and zero as 0/1.  A
base-60 digit ("sexagesit") is a plain int in 0..59; `SexNumber` holds a
sign, a digit sequence and the count of digits right of the radix point.

Canonical base-60 text writes sexagesits as decimal numbers separated by
``:`` with ``;`` as the radix point, e.g. ``1;59:0:15`` or ``2:49``.
"""

import codecs
import math
import re
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
# about 2 * sqrt(bound) products, not one per digit: a baby-step giant-step
# search for the period's length (see `_order`).
PERIOD_STATE_BOUND = 10**6

# Operands of more than this many bits are converted from int to digits by
# divide and conquer on base**(leaf * 2**k), their denominators split into
# base primes by valuations, and digit values over 60**f reduced by
# valuations; smaller ones keep the plain per-digit and gcd loops, which are
# faster there.
_DC_BITS = 512

# `_divmod` leaves divisors and quotients of at most this many bits to the
# builtin divmod, which is faster there (the cutoff of CPython's `_pylong`)
_DIV_BITS = 4000

# the decimal digits; indexed by digit value, also the digit -> text table of
# decimal text
_ASCII_DIGITS = "0123456789"

# canonical text: each sexagesit as the byte whose two hex digits are its
# decimal numeral, with the tens digit f (dropped) below 10
_BCD = bytes(d + 0xF0 if d < 10 else d // 10 * 16 + d % 10 for d in range(BASE)).ljust(256, b"\0")

# the inverse of `_BCD` on zero-padded numerals: the byte whose hex digits
# are "00" to "59" to its value; every other byte to 0xFF, out of range
_UNBCD = bytes((b >> 4) * 10 + (b & 15) if b >> 4 < 6 and b & 15 < 10 else 255 for b in range(256))

# every sexagesit as a byte: ``raw.translate(None, _SEXAGESITS)`` deletes
# them, leaving the bytes of ``raw`` that are out of range, in order
_SEXAGESITS = bytes(range(BASE))

# `_emit_digits`: decimal digits per "%d" chunk (far below CPython's int-string
# limit), ASCII digits to values, measured route cutoffs and the one-digit bound
_DEC_BLOCK = 300
_ASCII_TO_DIGIT = bytes.maketrans(_ASCII_DIGITS.encode(), bytes(range(10)))
_LANE_BITS, _LONGDIV_DIGITS, _LANE_DIGITS, _ONE_DIGIT = 96, 200, 128, 1 << sys.int_info.bits_per_digit

# drops the f marks from `_BCD`'s hex text: past `_TRANSLATE_DIGITS` digits
# ``str.translate``'s ASCII fast path beats ``str.replace``, which wins on
# short text, where the translate's set-up costs more (crossover at 700 to
# 1000 digits on CPython 3.11-3.13; 4.7 against 8.0 ms at 10**6 digits)
_NO_MARK = {ord("f"): None}
_TRANSLATE_DIGITS = 1 << 12

# `_int_of_digits` folds more digits than this as packed byte fields, in
# leaves of `_FOLD_LEAF` digits; fewer take Horner's rule, which is faster
# there.  `_digits_of_int` spells its leaves of `_FOLD_LEAF` digits the same
# way; six halvings of a field reach one digit, hence 64.
_FOLD_DIGITS = 128
_FOLD_LEAF = 64


# a decimal literal as `parse_decimal` reads it; [0-9], since \d would take
# other Unicode digits
_DECIMAL = re.compile(r"(-?)([0-9]*)(?:(\.)([0-9]*))?(?:([eE])(-?)([0-9]*))?")


class DecimalParseError(ParseError):
    origin = "exact"  # the module a diagnostic names


def parse_decimal(text: str) -> Fraction:
    """Parse a decimal literal ``[-]digits[.digits][(e|E)[-]digits]`` exactly.

    No binary float is ever constructed; ``"5.95374180765127242e-15"`` comes
    back as the literal fraction over a power of ten.

    The literal is read by one match of `_DECIMAL`, and every diagnostic
    comes from that match: an empty digit run or the first character past
    its end.  The checks run in the order a left-to-right read meets them,
    so an over-long exponent is reported before a trailing character and
    that before an over-long mantissa.
    """
    m = _DECIMAL.match(text)
    sign, int_part, point, frac_part, e, exp_sign, exp_part = m.groups("")
    digits = int_part + frac_part
    # CPython's int-string limit counts every digit, leading zeros too; 0 is none
    limit = sys.get_int_max_str_digits()
    if not int_part:
        fault = "expected digit" if text else "empty decimal literal", m.end(2)
    elif point and not frac_part:
        fault = "expected digit after '.'", m.end(4)
    elif e and not exp_part:
        fault = "expected exponent digit", m.end(7)
    elif limit and len(exp_part) > limit:
        fault = f"{len(exp_part)} digits exceed the int-string limit of {limit}", m.start(7)
    elif m.end() < len(text):
        fault = f"unexpected character {text[m.end()]!r}", m.end()
    elif limit and len(digits) > limit:
        fault = f"{len(digits)} digits exceed the int-string limit of {limit}", m.start(2)
    else:
        exp = int(exp_sign + exp_part) if e else 0
        # 10**|exp| has |exp| + 1 digits, so the same limit bounds its cost
        if not limit or abs(exp) <= limit:
            mantissa = int(sign + digits)
            scale = exp - len(frac_part)
            return Fraction(mantissa * 10**scale) if scale >= 0 else Fraction(mantissa, 10**-scale)
        fault = f"exponent {exp} exceeds the int-string limit of {limit}", m.start(7)
    message, at = fault
    raise DecimalParseError(f"{message} at position {at + 1}: {quote(text)}", position=at + 1)


def _rational(x) -> Fraction:
    """``x`` as a `Fraction`: ``x`` itself when it is one, with no copy by
    the constructor, else ``Fraction(x)``."""
    return x if x.__class__ is Fraction else Fraction(x)


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


def _divmod(a: int, b: int) -> tuple[int, int]:
    """``divmod(a, b)`` for a >= 0 and b > 0, by Burnikel and Ziegler's
    recursive division ("Fast Recursive Division", MPI-I-98-1-022, 1998),
    the scheme of CPython 3.12's `_pylong`: about two n-bit products, not
    n**2 steps, per n-bit quotient chunk.

    The quotient comes in chunks of n = bits(b) bits.  A dividend of c
    chunks is split at whole chunks, the high part first, and its remainder
    leads the low part, so each step is `_div2n1n` of one chunk.  Divisors
    and quotients of at most `_DIV_BITS` bits take the builtin divmod.
    """
    n = b.bit_length()
    if n <= _DIV_BITS or a.bit_length() - n <= _DIV_BITS:
        return divmod(a, b)

    def chunks(a: int, c: int) -> tuple[int, int]:
        # a < b << c*n
        if c == 1:
            return _div2n1n(a, b, n)
        shift = c // 2 * n
        q, r = chunks(a >> shift, c - c // 2)
        low_q, r = chunks(r << shift | a & ((1 << shift) - 1), c // 2)
        return q << shift | low_q, r

    # the least c with a < 2**(n - 1 + c*n) <= b << c*n
    return chunks(a, -(-(a.bit_length() - n + 1) // n))


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """``divmod(a, b)`` for b of exactly n bits and 0 <= a < b << n: two
    `_div3n2n` steps of n/2 quotient bits each, after shifting a and b up
    one bit when n is odd (the remainder is shifted back)."""
    if a.bit_length() - n <= _DIV_BITS:
        return divmod(a, b)
    pad = n & 1
    a, b, n = a << pad, b << pad, n + pad
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, a >> half & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return q1 << half | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    """``divmod(a12 << n | a3, b)`` for b = b1 << n | b2 of 2n bits, a3 < 2**n
    and a12 < b << n: the quotient estimated from a12 // b1, which is at
    most 2 too high, then corrected down."""
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def _digits_of_int(n: int, base: int = BASE, width: int = 1) -> bytes:
    """Digits of ``n >= 0`` in ``base`` <= 256, a byte each, most
    significant first, left-padded with zeros to ``width`` digits when
    shorter (zero has no digits of its own, so it comes back as ``width``
    zeros).

    Up to `_DC_BITS` bits, one remainder and one quotient per digit.  Past
    that, n is split one level at a time, most significant first, down the power tower
    base**(`_FOLD_LEAF` * 2**k) from its first power whose square is sure to
    exceed n, by bit lengths: each level halves every leaf on the next power
    by `_divmod`, whose recursive division keeps the split subquadratic on
    every CPython (the builtin divmod is quadratic through 3.11), and drops
    a leading zero leaf.  The leaves, each below base**64, become digits
    together in six steps over packed big-endian fields of one integer, the
    inverse of `_int_of_digits`'s fold: each step splits every field's
    x < P**2, for P = base**32 down to base**1, into x // P and x % P, the
    quotient from a fixed reciprocal of P (Granlund & Montgomery, PLDI
    1994), in two fields of half the width."""
    if n.bit_length() <= _DC_BITS:
        out = bytearray()
        while n:
            out.append(n % base)
            n //= base
        out.reverse()
        return bytes(out).rjust(width, b"\0")
    powers = [base**_FOLD_LEAF]  # powers[k] = base**(_FOLD_LEAF * 2**k)
    # a square has at least 2b - 1 bits for a power of b bits
    while 2 * powers[-1].bit_length() - 1 <= n.bit_length():
        powers.append(powers[-1] * powers[-1])
    leaves = [n]
    for p in reversed(powers):
        leaves = [half for v in leaves for half in _divmod(v, p)]
        if not leaves[0]:
            del leaves[0]
    # A field of w bytes holds x < P**2 for P = base**m, m = 32 * w // size,
    # and 8w >= 4 * bits(P) + 1 for every m when size >= 16 * bits(base) + 4.
    # With s = 3 * bits(P) and inv = ceil(2**s / P), x * inv >> s is x // P
    # exactly, and x * inv < 2**(4 * bits(P) + 1) stays inside the field, its
    # bits shifted below the next field's quotient.
    size = -(-(16 * base.bit_length() + 4) // _FOLD_LEAF) * _FOLD_LEAF  # bytes per leaf
    nbytes = len(leaves) * size  # of x, at every field width
    x = int.from_bytes(b"".join(v.to_bytes(size, "big") for v in leaves), "big")
    m, w = _FOLD_LEAF // 2, size
    while m:
        p = base**m
        bits = p.bit_length()
        shift = 3 * bits
        low_bits = int.from_bytes(((1 << bits) - 1).to_bytes(w, "big") * (nbytes // w), "big")
        q = x * -(-(1 << shift) // p) >> shift & low_bits
        w //= 2
        x = x - q * p | q << 8 * w  # the remainder in the low half, the quotient in the high
        m //= 2
    digits = x.to_bytes(nbytes, "big")[w - 1 :: w]  # a digit in the low byte of each field
    return digits.lstrip(b"\0").rjust(width, b"\0")


def _int_of_digits(digits, base: int = BASE) -> int:
    """Value of a digit sequence, most significant first (the inverse of
    `_digits_of_int`), for ``base`` <= 256.

    Up to `_FOLD_DIGITS` digits, Horner's rule.  Longer sequences are folded
    as packed fields of one integer (Lamport, "Multiple byte processing with
    full-word instructions", CACM 1975): the digits are its big-endian
    bytes, and each of six steps of mask, shift, multiply and add turns
    every pair of w-byte fields into one 2w-byte field, from 1 up to 64
    bytes; ``int.from_bytes`` then reads the 64-byte fields, each the value
    of `_FOLD_LEAF` digits, and pairwise products with
    base**(`_FOLD_LEAF` * 2**k), taken as a product with its odd part and
    a shift, join them."""
    if len(digits) <= _FOLD_DIGITS:
        value = 0
        for d in digits:
            value = value * base + d
        return value
    leaf = _FOLD_LEAF
    raw = bytes(-len(digits) % leaf) + bytes(digits)  # leading zeros fill the top leaf
    size = len(raw)
    x = int.from_bytes(raw, "big")
    power, w = base, 1
    while w < leaf:
        # the low w bytes of every 2w-byte field
        mask = int.from_bytes((bytes(w) + b"\xff" * w) * (size // (2 * w)), "big")
        x = (x >> 8 * w & mask) * power + (x & mask)
        power *= power
        w *= 2
    raw = x.to_bytes(size, "big")
    values = [int.from_bytes(raw[i : i + leaf], "big") for i in range(0, size, leaf)]
    # with base = odd << twos, base**m = odd**m << twos * m: a high half is
    # multiplied by the shorter odd**m and shifted (60**m = 15**m << 2m)
    twos = (base & -base).bit_length() - 1
    power, shift = (base >> twos) ** leaf, twos * leaf
    while True:
        lone = len(values) % 2  # an unpaired value is the most significant
        values[lone:] = [(hi * power << shift) + lo for hi, lo in zip(values[lone::2], values[lone + 1 :: 2])]
        if len(values) == 1:  # before a square that would go unused
            return values[0]
        power *= power
        shift *= 2


def _spell(digits, symbols) -> str:
    """The digits written as symbols[d] each, run together, for a string of
    ``symbols``: ASCII ones (decimal) by `str.translate`'s ASCII fast path,
    others (glyphs) by one `codecs.charmap_decode`, with no dict lookup per
    glyph; with no ``symbols``, as canonical ``:``-separated numerals."""
    if symbols is None:
        # each sexagesit as one packed-BCD byte, hex-printed with ":" between
        # bytes; below 10 the tens nibble is f, a mark that is then dropped
        text = bytes(digits).translate(_BCD).hex(":")
        return text.translate(_NO_MARK) if len(digits) > _TRANSLATE_DIGITS else text.replace("f", "")
    # charmap reads a U+FFFE glyph as its mark for "unmapped"
    if not symbols.isascii() and "\ufffe" not in symbols:
        return codecs.charmap_decode(bytes(digits), "strict", symbols)[0]
    return bytes(digits).decode("latin-1").translate(symbols)


def _render(sign, int_digits, frac_digits=b"", period=b"", complete=True, symbols=None, point=";") -> str:
    """Positional text in any notation: ``-`` for a negative sign, the
    integer digits, ``point`` and the fractional digits when there are any
    or a period, the period in parentheses, else ``...`` when incomplete.
    A digit d is written symbols[d] with nothing between digits (a glyph
    table's ``_alphabet`` for glyphs, `_ASCII_DIGITS` for decimal digits), or
    without ``symbols`` as a canonical ``:``-separated sexagesit.  Each
    part's text is copied once, into the result."""
    text = _spell(int_digits, symbols)
    sign = "-" if sign < 0 else ""
    if period:
        return f"{sign}{text}{point}{_spell(frac_digits, symbols)}({_spell(period, symbols)})"
    tail = "" if complete else "..."
    if frac_digits:
        return f"{sign}{text}{point}{_spell(frac_digits, symbols)}{tail}"
    return sign + text + tail


def _diff_digits(published, derived, record) -> tuple:
    """``record(position, published, derived)`` at each 1-based position where
    two digit sequences differ; past the shorter one's end its digit is None."""
    pairs = enumerate(zip_longest(published, derived), 1)
    return tuple(record(i, p, d) for i, (p, d) in pairs if p != d)


# record constructors, `GlyphTable`'s and those `_Record` writes, set fields
# with this, past `_Record.__setattr__`: bound once, it takes one lookup
# fewer per field than object.__setattr__.  `_Record._build` makes a record
# with `_new` and sets its fields the same way.
_setattr = object.__setattr__
_new = object.__new__

# the annotation of a digit field, such as `SexNumber.digits`
_DIGITS = tuple[int, ...]


class _DigitField:
    """A record's digit field, one annotated `_DIGITS`.  The record keeps
    the digits as bytes (one a digit, against a tuple's 8), under the
    field's name with a leading ``_``, where the package's code reads them.
    The field's first read builds their tuple and stores it in the record;
    a non-data descriptor, this is not called again for that record.  On
    the class the attribute is missing, so the field has no default."""

    def __init__(self, name: str):
        self.name, self.key = name, "_" + name

    def __get__(self, record, owner=None):
        if record is None:
            raise AttributeError(self.name)
        digits = tuple(getattr(record, self.key))
        _setattr(record, self.name, digits)
        return digits


def _digit_bytes(digits):
    """What a digit field keeps of ``digits``, which are no `bytes`: their
    bytes, or their tuple when one is no int in 0..255, for the record's
    ``_check`` to refuse."""
    digits = tuple(digits)
    try:
        return bytes(digits)
    except (TypeError, ValueError):
        return digits


class _Record:
    """Immutable value behaviour over the fields a subclass annotates, in
    order, which its ``__init__`` sets with `_setattr`: fields cannot be
    assigned or deleted, records of one class compare and hash by their
    field values (`GlyphTable`'s read-only maps make its hash raise
    `TypeError`), and the repr is ``Name(field=value, ...)``.  The fields
    are also the positional ``match`` arguments, unless the subclass names
    its own ``__match_args__``.  A subclass of a record keeps its parent's
    fields, followed by any it annotates itself; if it annotates some and
    defines no ``__init__``, `_field_init` writes one, which stores a field
    annotated ``tuple[...]`` as a tuple of any iterable it is given, except
    a digit field (see `_DigitField`), which it keeps as bytes.  A record
    whose fields obey rules states them in a ``_check`` method, which reads
    the fields set and raises on a bad one; the written ``__init__`` calls
    it last, and `_build` does not.  A record with digit fields pickles
    and copies its fields by name, digit fields as tuples."""

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = vars(cls).get("__annotations__", {})
        # each field's annotation by its name, in order; before this
        # assignment, ``cls._fields`` is the parent record's
        cls._fields = {**getattr(cls, "_fields", {}), **own}
        cls.__match_args__ = vars(cls).get("__match_args__", tuple(cls._fields))
        # the key of each field's value in a record, in order, and of each
        # digit field's bytes by its name
        cls._digit_keys = {name: "_" + name for name, hint in cls._fields.items() if hint == _DIGITS}
        cls._keys = tuple(cls._digit_keys.get(name, name) for name in cls._fields)
        if own and "__init__" not in vars(cls):
            cls.__init__ = _field_init(cls)
        for name in own:
            if name in cls._digit_keys:
                setattr(cls, name, _DigitField(name))

    @classmethod
    def _build(cls, first, second, third):
        """The record of a class of three fields, such as `SexNumber` and
        `SexFloat`, from values its caller has just made valid: they are set
        in field order without ``__init__``'s checks, as `_coprime_fraction`
        builds a `Fraction`.  Three named arguments, not a loop over
        ``*values``, keep it as fast as setting each field by its name."""
        x = _new(cls)
        key1, key2, key3 = cls._keys
        _setattr(x, key1, first)
        _setattr(x, key2, second)
        _setattr(x, key3, third)
        return x

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __getstate__(self) -> dict:
        # by name, digit fields as tuples: the same whether a field has been
        # read or not, and the state of records that kept no bytes, which
        # pickles written before they did hold
        if not self._digit_keys:
            return vars(self)
        return {name: getattr(self, name) for name in self._fields}

    def __setstate__(self, state: dict) -> None:
        keys = self._digit_keys
        for name, value in state.items():
            if name in keys:
                _setattr(self, keys[name], _digit_bytes(value))
            else:
                _setattr(self, name, value)


def _field_init(cls):
    """``__init__(self, f1, ..., fn)`` over ``cls._fields``, compiled once:
    one `_setattr` per field, in order, of the value `_stored` names under
    its key, then ``self._check()`` if the class has one.  A field's value in
    the class body is its default."""
    names = cls._fields
    defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
    params = ", ".join(f"{name}=_defaults[{name!r}]" if name in defaults else name for name in names)
    body = "".join(
        f"\n    _setattr(self, {key!r}, {_stored(name, hint)})" for key, (name, hint) in zip(cls._keys, names.items())
    )
    if hasattr(cls, "_check"):
        body += "\n    self._check()"
    namespace = {"_setattr": _setattr, "_digit_bytes": _digit_bytes, "_defaults": defaults, "__name__": cls.__module__}
    exec(f"def __init__(self, {params}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _stored(name: str, hint) -> str:
    """The expression a written ``__init__`` stores argument ``name`` as:
    `_digit_bytes` of it for a digit field, with no call for bytes (the
    builders' argument), ``tuple(name)`` for another field annotated
    ``tuple[...]``, the same with None kept as None for ``tuple[...] |
    None``, and else the argument itself."""
    if hint == _DIGITS:
        return f"{name} if {name}.__class__ is bytes else _digit_bytes({name})"
    if getattr(hint, "__origin__", None) is tuple:
        return f"tuple({name})"
    args = getattr(hint, "__args__", ())
    if len(args) == 2 and args[1] is type(None) and getattr(args[0], "__origin__", None) is tuple:
        return f"None if {name} is None else tuple({name})"
    return name


def _check_sexagesits(digits) -> None:
    """Refuse a digit that is no int in 0..59, naming the first.  Of `bytes`
    and `bytearray`, one C-level ``translate`` leaves only the bad digits;
    other sequences are checked digit by digit.  ``from None``: the builder
    `SexNumber.from_digits` calls this while handling ``bytes()``'s error."""
    for d in digits.translate(None, _SEXAGESITS) if digits.__class__ in (bytes, bytearray) else digits:
        if not (isinstance(d, int) and 0 <= d < BASE):
            raise ValueError(f"sexagesit out of range: {d!r}") from None


def _check_signed_digits(sign, digits, name: str) -> None:
    """The sign, non-empty ``name`` and sexagesit checks of `SexNumber` and `SexFloat`."""
    if sign not in (-1, 0, 1):
        raise ValueError(f"sign must be -1, 0 or 1, not {sign!r}")
    if not digits:
        raise ValueError(f"{name} is empty")
    _check_sexagesits(digits)


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

    def _check(self):
        sign, digits, frac_count = self.sign, self._digits, self.frac_count
        _check_signed_digits(sign, digits, "digit sequence")
        if not 0 <= frac_count <= len(digits):
            raise ValueError("frac_count out of range")
        if sign == 0:
            if digits != b"\0" or frac_count != 0:
                raise ValueError("zero must be digits=(0,), frac_count=0")
            return
        int_digits = digits[: len(digits) - frac_count]
        if not int_digits:
            raise ValueError("integer part must carry at least one digit")
        if len(int_digits) > 1 and int_digits[0] == 0:
            raise ValueError("leading zero in integer part")
        if int_digits == b"\0" and frac_count == 0:
            raise ValueError("nonzero sign with zero digits")
        if frac_count and digits[-1] == 0:
            raise ValueError("trailing zero fractional digit")

    @classmethod
    def from_digits(cls, sign: int, digits, frac_count: int) -> "SexNumber":
        """The canonical SexNumber of an arbitrary digit sequence: leading
        integer zeros and trailing fractional zeros are dropped, a missing
        integer digit becomes 0, and a zero value or ``sign`` 0 gives zero.

        The digits are trimmed as `bytes` by C-level strips and slices, and
        their range is checked once, by `_check_sexagesits`'s one
        ``translate``; a digit that is no int in 0..59 is refused with the
        constructor's message.  The result is canonical by construction, so
        its fields are set without the constructor's checks."""
        if sign == 0:
            return cls._build(0, b"\0", 0)
        if digits.__class__ is not bytes:
            digits = digits if digits.__class__ is bytearray else list(digits)
            try:
                digits = bytes(digits)
            except (TypeError, ValueError):  # not an int in 0..255
                _check_sexagesits(digits)
        if not 0 <= frac_count <= len(digits):
            if frac_count < 0:
                raise ValueError("frac_count out of range")
            digits = bytes(frac_count - len(digits)) + digits
        int_len = len(digits) - frac_count
        head = digits[:int_len].lstrip(b"\0") or b"\0"
        tail = digits[int_len:].rstrip(b"\0")
        if not tail and head == b"\0":
            return cls._build(0, b"\0", 0)
        digits = head + tail
        _check_sexagesits(digits)
        return cls._build(1 if sign > 0 else -1, digits, len(tail))

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

    @property
    def _parts(self) -> tuple[bytes, bytes]:
        # the integer and the fractional digits, as bytes
        cut = len(self._digits) - self.frac_count
        return self._digits[:cut], self._digits[cut:]

    def to_rational(self) -> Fraction:
        return from_sexagesimal(self)

    def canonical_text(self) -> str:
        """Render in the canonical ``1;59:0:15`` text form."""
        int_digits, frac_digits = self._parts
        return _render(self.sign, int_digits, frac_digits)

    def __str__(self) -> str:
        return self.canonical_text()


def from_sexagesimal(x: SexNumber) -> Fraction:
    """Exact rational value of a positional numeral (inverse of
    `to_sexagesimal` on terminating inputs).

    The value is N / 60**f for the digits' integer N and f = frac_count.
    Up to `_DC_BITS` bits of N, `Fraction` reduces it by gcd.  Past that,
    where the gcd is quadratic, the common factor 2**a * 3**b * 5**c comes
    from `_valuations_235` capped at 2f, f and f, which divides it out of N.
    """
    f = x.frac_count
    n = _int_of_digits(x._digits)
    if n.bit_length() <= _DC_BITS:
        return Fraction(x.sign * n, BASE**f)
    a, b, c, n = _valuations_235(n, 2 * f, f, f)
    return _coprime_fraction(x.sign * n, 3 ** (f - b) * 5 ** (f - c) << 2 * f - a)


def _coprime_fraction(num: int, den: int) -> Fraction:
    """The `Fraction` num/den for coprime num and den > 0, built without the
    gcd its constructor runs, as CPython 3.12's private
    ``Fraction._from_coprime_ints`` does."""
    x = _new(Fraction)
    x._numerator = num
    x._denominator = den
    return x


class Expansion(_Record):
    """The exact positional expansion of a rational in some base.

    ``frac_digits`` holds the emitted fractional digits before any repetend;
    ``period`` is the minimal repetend (empty when the expansion terminates
    or was not resolved).  ``terminates`` is exact (decided from the reduced
    denominator), and ``frac_len`` gives the exact terminating length when
    it applies.  ``complete`` tells whether the digits shown fully
    characterize the value.

    Of an even period whose halves mirror each other, `_expand` makes the
    second half as the first's complement, not by its emitter.
    """

    sign: int
    int_digits: tuple[int, ...]
    frac_digits: tuple[int, ...]
    period: tuple[int, ...]
    base: int
    terminates: bool
    frac_len: int | None
    complete: bool

    @property
    def _style(self) -> dict:
        # decimal digits run together; sexagesits are ":" separated
        return {"symbols": _ASCII_DIGITS, "point": "."} if self.base == 10 else {}

    @property
    def preperiod_text(self) -> str:
        """Sign, integer part and fractional digits before the repetend,
        e.g. ``0.01`` for 1/60 in base 10."""
        return _render(self.sign, self._int_digits, self._frac_digits, **self._style)

    @property
    def period_text(self) -> str:
        return _render(1, self._period, **self._style)

    def terminates_within(self, max_frac: int) -> bool:
        return self.terminates and self.frac_len is not None and self.frac_len <= max_frac

    def __str__(self) -> str:
        return _render(self.sign, self._int_digits, self._frac_digits, self._period, self.complete, **self._style)


def _valuation(n: int, p: int, cap: int) -> tuple[int, int]:
    """(v, n // p**v) for the largest v <= cap with p**v | n, found by
    dividing out p**(2**j) from the largest j down: O(log v) big divisions
    for the v it returns, not v.  They take `_divmod`, so they are
    subquadratic also where the builtin is not.  The squaring loop's last
    quotient is the first step down, so no power divides n twice."""
    if cap < 1 or n % p:
        return 0, n
    powers, top, q = [], n, p
    while 1 << len(powers) <= cap:
        quotient, r = _divmod(n, q)
        if r:
            break
        powers.append(q)
        top = quotient
        q *= q
    v = (1 << len(powers)) >> 1
    n = top
    for j in reversed(range(len(powers) - 1)):
        if v + (1 << j) <= cap:
            quotient, r = _divmod(n, powers[j])
            if r == 0:
                n = quotient
                v += 1 << j
    return v, n


def _valuations_235(n: int, cap2: int, cap3: int, cap5: int) -> tuple[int, int, int, int]:
    """(a, b, c, n // (2**a * 3**b * 5**c)) for n > 0, with a, b and c the
    exponents of 2, 3 and 5 in n, each capped at its ``cap``.  The power of
    2 is n's lowest set bit, one shift; those of 3 and 5 take `_valuation`'s
    O(log v) big divisions, not one division per power, which is quadratic
    in n's length."""
    a = min((n & -n).bit_length() - 1, cap2)
    b, n = _valuation(n >> a, 3, cap3)
    c, n = _valuation(n, 5, cap5)
    return a, b, c, n


def _split_denominator(den: int, base: int) -> tuple[int, int]:
    """(k, t) with den = s * t, s made of the primes of ``base`` and t coprime
    to it; k is the least k with s | base**k, which is the pre-period length
    of every reduced fraction over den.

    Dividing by gcd(den, base) once per step lowers every prime exponent by
    at most one base's worth, so the step count is k.  Past `_DC_BITS` the
    exponents come from `_valuations_235` instead, k = max ceil(v_p / e_p)
    over the primes p**e_p of base; only bases 10 and 60 reach that route.
    """
    if den.bit_length() <= _DC_BITS:
        k = 0
        while (g := math.gcd(den, base)) > 1:
            den //= g
            k += 1
        return k, den
    cap = den.bit_length()
    if base == 10:
        a, _, c, den = _valuations_235(den, cap, 0, cap)
        return max(a, c), den
    a, b, c, den = _valuations_235(den, cap, cap, cap)
    return max(-(-a // 2), b, c), den


def _emit_digits(out: bytearray | list, r: int, den: int, base: int, n: int) -> int:
    """Append the next ``n`` digits of r/den (0 <= r < den) in ``base`` to
    ``out`` and return the remainder after them, by one of three routes.
    Base 10 and a den over `_LANE_BITS` bits take the chunks.  Otherwise
    the lanes take n past a curve over den's width, where they begin to
    cost less (measured in base 60 from 20 to 96 bits, CPython 3.11-3.13):
    `_LONGDIV_DIGITS` for den * base below `_ONE_DIGIT`, else
    max(`_LANE_DIGITS`, bits(den)**2 / 20), which passes 200 digits at 64
    bits; per-digit long division or the chunks take n up to it.

    - per-digit long division outside base 10 over a den below `_ONE_DIGIT`,
      one int digit: the least set-up;
    - chunks: ``divmod(r * base**c, den)`` per c digits, spelled by ``"%d"``
      (c = `_DEC_BLOCK`) or `_digits_of_int` (c digits of about bits(den)
      bits, a balanced division), so time is near linear in n;
    - lanes: K = isqrt(2n) + 1 long divisions side by side in byte
      fields of one integer (Lamport, CACM 1975), field j yielding digits
      j*S to (j+1)*S - 1 from r * base**(j*S) mod den, S = ceil(n / K), by
      one fixed reciprocal of den (Granlund & Montgomery, PLDI 1994); up to
      a field's width of steps are ORed into one integer, a byte of every
      field each, for one ``to_bytes``; a field spans about 2 * bits(den)
      bits, hence the chunks past that.
    """
    if base != 10 and den < _ONE_DIGIT and n <= (_LONGDIV_DIGITS if den * base < _ONE_DIGIT else _LANE_DIGITS):
        for _ in range(n):
            r *= base
            out.append(r // den)
            r %= den
        return r
    if base == 10 or n <= _LANE_DIGITS or (bits := den.bit_length()) > _LANE_BITS or n <= bits * bits // 20:
        c = min(n, _DEC_BLOCK if base == 10 else max(_FOLD_LEAF, den.bit_length() // base.bit_length()))
        div = _divmod if c * base.bit_length() > _DIV_BITS else divmod
        power = base**c
        while n > 0:
            if n < c:
                c, power = n, base**n
            q, r = div(r * power, den)
            out += (b"%0*d" % (c, q)).translate(_ASCII_TO_DIGIT) if base == 10 else _digits_of_int(q, base, c)
            n -= c
        return r
    lanes = math.isqrt(2 * n) + 1
    steps = -(-n // lanes)
    # x * inv >> shift is x // den for every x < base * den, and a field holds
    # x * inv < (base + 1) * 2**shift with bits to spare below the next field
    shift = (base * den).bit_length() + den.bit_length() + 1
    width = -(-(shift + base.bit_length() + 2) // 8)  # bytes per field
    inv = -(-(1 << shift) // den)
    jump = pow(base, steps, den)
    starts, lane = bytearray(), r
    for _ in range(lanes):
        starts += lane.to_bytes(width, "little")
        lane = lane * jump % den
    rem = int.from_bytes(starts, "little")
    # after the shift each field's digit sits in its low bits, below the
    # shifted-in low bits of the next field
    mask = int.from_bytes(((1 << base.bit_length()) - 1).to_bytes(width, "little") * lanes, "little")
    # grow ``out`` in place to its lanes' end, since every byte there is written
    # below: a zero-filled temporary of n bytes (1 MB at 10**6 digits) from
    # ``out += bytes(lanes * steps)`` split the heap, and the benchmark's
    # ``exact_large`` peak RSS read 30.2-30.3 MB with it against 28.6-28.9
    at, end = len(out), len(out) + lanes * steps
    out.append(0)
    while len(out) < end:
        out *= 2
    del out[end:]
    for i in range(0, steps, width):
        # step i + t's digits in byte t of each field: a digit < base <= 256 is a byte
        packed, k = 0, min(width, steps - i)
        for t in range(0, 8 * k, 8):
            x = rem * base
            d = (x * inv >> shift) & mask
            rem = x - d * den
            packed |= d << t
        raw = packed.to_bytes(lanes * width, "little")
        for t in range(k):
            out[at + i + t :: steps] = raw[t::width]
    del out[at + n :]
    return r * pow(base, n, den) % den


def _order(base: int, t: int, m: int, limit: int) -> int | None:
    """The multiplicative order of ``base`` modulo ``t`` (coprime to base),
    or None when it exceeds ``limit``, by baby-step giant-step (Shanks) with
    at most ``m`` >= 1 baby steps: about m + limit / m products mod t.

    The baby steps map base**j mod t to j for j < m, and stop at the order
    when it is at most m, after that many products.  Otherwise their values
    are distinct, and the first giant step base**(i*m) found among them, at
    i = ceil(order / m), gives the order i*m - j.
    """
    baby = {}
    y = one = 1 % t
    for j in range(m):
        baby[y] = j
        y = y * base % t
        if y == one:
            return j + 1 if j < limit else None
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

    Past the pre-period comes the purely periodic u/coprime, whose period
    is the order of base modulo coprime: `_order` finds its length with m =
    ceil(sqrt(min(bound - preperiod, coprime - 1))) baby steps, and
    `_emit_digits` makes its digits.  Past `PERIOD_STATE_BOUND` digits of
    pre-period plus period the search gives up, and the first min(max_frac,
    bound) digits come back unresolved.  A resolved period comes back as a
    bytearray.

    An even period L past 2 * `_LONGDIV_DIGITS` digits whose coprime has at
    most `_LANE_BITS` bits is emitted half first when one ``pow`` finds
    base**(L/2) = -1 mod coprime (Midy's theorem; Ginsberg, Math. Magazine
    2004): then remainder i + L/2 is coprime minus remainder i, so digit i +
    L/2 is base - 1 - digit i, and the second half is one ``translate`` of
    the first.  Any other period takes one emitter call, as a ``pow`` at
    the width of a wider coprime is quadratic.
    """
    bound = PERIOD_STATE_BOUND
    shown = min(max_frac, bound)
    frac = bytearray()  # digits of base <= 256 fit a byte each
    start = _emit_digits(frac, rem, den, base, preperiod if preperiod < bound else shown)
    if preperiod >= bound:  # gives up within the pre-period, with the digits kept
        return frac, (), False
    # den's part made of base primes divides base**preperiod, hence start
    u = start // (den // coprime)
    limit = bound - preperiod
    # the period is below coprime, so a small coprime needs fewer baby steps
    m = math.isqrt(min(limit, coprime - 1) - 1) + 1
    period = _order(base, coprime, m, limit)
    if period is None:
        _emit_digits(frac, u, coprime, base, max(0, shown - preperiod))
        return frac[:shown], (), False
    if period >= 1 << 17:  # a tuple of 1 MiB or more, once read
        _keep_heap()
    out, half = bytearray(), period >> 1
    if (
        half > _LONGDIV_DIGITS
        and not period & 1
        and coprime.bit_length() <= _LANE_BITS
        and pow(base, half, coprime) == coprime - 1
    ):
        _emit_digits(out, u, coprime, base, half)
        out += out.translate(bytes(range(base - 1, -1, -1)).ljust(256, b"\0"))
    else:
        _emit_digits(out, u, coprime, base, period)
    return frac, out, True


def _keep_heap() -> None:
    """Fix glibc's malloc thresholds for the whole process, the same values
    at every call: a block under 16 MiB comes from the heap, and up to 32
    MiB of free heap stays for the next.  Left to itself glibc raises its
    mmap threshold to each mapped block it frees, so where a block lands
    depends on the sizes freed before.  Heap growth stays unbounded in
    general: a block longer than every free hole still extends the heap
    when a live allocation sits above it.

    What this buys is a steady peak RSS for a caller that reads a long
    ``Expansion.period``, an 8 MB tuple at 10**6 digits, as the benchmark's
    checker does: ``exact_large`` read 28.6-28.9 MB with the call here,
    35.6-35.9 MB on 4 of 8 seeds with none, and 30.6 MB with the call at
    the tuple's first read (CPython 3.11.7, x86-64, 30 s runs)."""
    try:
        import ctypes

        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD: free heap below this stays for the next
    except (ImportError, AttributeError, OSError, TypeError):  # no ctypes, no C library, or no mallopt
        pass


def _within_budget(num: int, den: int, base: int, max_frac: int) -> tuple[bytes, int] | None:
    """(digits, frac_len) of num/den in ``base`` for a den of more than
    `_DC_BITS` bits when it terminates within ``max_frac`` digits, tested
    by one division of base**max_frac by den: then x * base**k is an
    integer iff base**(max_frac - k) divides num * q, for the quotient q, so
    the digits of num * q, less their trailing zeros, hold frac_len of
    them past the point.  None when den does not divide base**max_frac, or
    when that power has more than twice den's bits, where the division
    would cost more than `_split_denominator`'s valuations."""
    if max_frac * base.bit_length() > 2 * den.bit_length():
        return None
    # the power as its odd part's, shifted (60**f = 15**f << 2f): half the
    # time of base**max_frac at thousands of digits, where it squares zeros
    twos = (base & -base).bit_length() - 1
    q, r = _divmod((base >> twos) ** max_frac << twos * max_frac, den)
    if r:
        return None
    digits = _digits_of_int(num * q, base, max_frac + 1)
    kept = digits.rstrip(b"\0")  # den > 1, so a fractional digit is not 0
    return kept, max_frac - (len(digits) - len(kept))


def _expand(x: Fraction, base: int, max_frac: int, detect_repetend: bool) -> tuple[Expansion, int | None]:
    num, den = abs(x.numerator), x.denominator
    sign = 0 if num == 0 else (1 if x.numerator > 0 else -1)
    period = b""
    r = None  # the remainder after frac, when it holds max_frac digits made here
    if den.bit_length() > _DC_BITS and (within := _within_budget(num, den, base, max_frac)):
        digits, preperiod = within
        terminates = True
    else:
        preperiod, rest = _split_denominator(den, base)
        terminates = rest == 1
        if terminates:
            # den | base**preperiod, so this is num / den * base**preperiod exactly
            digits = _digits_of_int(num * (base**preperiod // den), base, preperiod + 1)
    if terminates:
        cut = len(digits) - preperiod
        int_digits, frac = digits[:cut], digits[cut:]
        complete = True
    else:
        int_digits = _digits_of_int(num // den, base)
        rem = num % den
        if detect_repetend:
            frac, period, complete = _repetend(rem, den, rest, base, preperiod, max_frac)
        else:
            frac, complete = bytearray(), False
            r = _emit_digits(frac, rem, den, base, max_frac)
    info = Expansion(
        sign, int_digits, bytes(frac), bytes(period), base, terminates, preperiod if terminates else None, complete
    )
    return info, r


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
    x = _rational(x)
    info, r = _expand(x, BASE, max_frac, detect_repetend)
    if info.terminates_within(max_frac):
        # exact at this budget: the expansion's digits are the number's
        return SexNumber.from_digits(info.sign, info._int_digits + info._frac_digits, info.frac_len), info
    # the first max_frac fractional digits: the pre-period, then the period
    # repeated (sliced first, as a period may be far longer), and past a
    # give-up the digits the search did not reach; r is the remainder after
    # them, which `_expand` returns when it made the digits itself
    num, den = abs(x.numerator), x.denominator
    frac = bytearray(info._frac_digits[:max_frac])
    period = info._period
    if period:
        frac += period[:max_frac] * -((len(frac) - max_frac) // len(period))
        del frac[max_frac:]
    if r is None:
        r = _emit_digits(frac, num * pow(BASE, len(frac), den) % den, den, BASE, max_frac - len(frac))
    # a spare leading 0 takes a carry out of the top
    digits = bytearray(1) + info._int_digits + frac
    d = digits[-1]
    # 60 is even, so d has the parity of the whole quotient
    if _round_quotient(d * den + r, den, mode) > d:
        kept = digits.rstrip(bytes((BASE - 1,)))  # the carry turns trailing 59s into 0s
        digits = kept[:-1] + bytes((kept[-1] + 1,)) + bytes(len(digits) - len(kept))
    return SexNumber.from_digits(info.sign, digits, max_frac), info


def _round_to(x: Fraction, max_frac: int) -> SexNumber:
    """``x`` truncated to ``max_frac`` fractional sexagesits, for callers
    that build no `Expansion`."""
    scaled = abs(x.numerator) * BASE**max_frac // x.denominator
    sign = 0 if scaled == 0 else (1 if x.numerator > 0 else -1)
    return SexNumber.from_digits(sign, _digits_of_int(scaled), max_frac)


def to_decimal(x: Fraction, max_frac: int = 64, detect_repetend: bool = True) -> Expansion:
    """Exact decimal expansion of a rational.

    When the expansion repeats and ``detect_repetend`` is set, the minimal
    repetend is found: the pre-period length comes from the denominator's
    factors of 2 and 5, and the period's length is the order of 10 modulo
    the rest of the denominator, by baby-step giant-step in
    O(sqrt(`PERIOD_STATE_BOUND`)) products, fewer for a short period.  The
    digits come 300 to a quotient, in time and memory linear in the digits
    emitted, except the second half of an even period past 400 digits whose
    halves mirror each other (Midy's theorem) over a rest of up to 96 bits:
    there digit i + L/2 is 9 - digit i, written with no division, as
    `_repetend` states.  Past
    `PERIOD_STATE_BOUND` digits of pre-period plus period the result is
    marked incomplete and truncated at min(``max_frac``, bound).
    """
    if max_frac < 0:
        raise DomainError("max_frac must be non-negative")
    return _expand(_rational(x), 10, max_frac, detect_repetend)[0]
