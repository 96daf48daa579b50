"""Heron's square-root iteration and area formula, base-divisor analysis,
regular numbers, Pythagorean triple generation, and the Plimpton 322
reconstruction against the embedded transcription.

Everything runs in exact rational arithmetic; square roots are the only
approximate results and they carry their own precision contract.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError
from .exact import (
    BASE,
    TRUNC,
    Rational,
    SexNumber,
    _diff_digits,
    _Record,
    _round_to,
    _setattr,
    _split_denominator,
    int_sqrt,
)
from .floating import SexFloat, _magnitude_exponent
from .glyphs import GlyphError, _read_tsv, decode_glyphs

HERON_ITERATION_CAP = 1000

# `nontrivial_divisors` finds divisors by trial division up to sqrt(n), so it
# refuses n above this bound: at most 10**6 divisions
DIVISORS_BOUND = 10**12

# interpretations of the tablet's ratio column
RATIO_DIAGONAL = "d2b2"  # (d/b)^2, reproduces the printed leading 1
RATIO_SHORT = "a2b2"  # (a/b)^2, drops the leading 1

_PLIMPTON_RESOURCE = "data/plimpton322.tsv"


class Regularity(NamedTuple):
    """Factorization of n as 2^a * 3^b * 5^c * cofactor."""

    is_regular: bool
    exp2: int
    exp3: int
    exp5: int
    cofactor: int


class Triple(_Record):
    """A Pythagorean triple: short side, medium side, diagonal."""

    a: int
    b: int
    d: int

    def __init__(self, a: int, b: int, d: int):
        _setattr(self, "a", a)
        _setattr(self, "b", b)
        _setattr(self, "d", d)
        if not 0 < a <= b < d:
            raise ValueError("sides must satisfy 0 < a <= b < d")
        if a**2 + b**2 != d**2:
            raise ValueError("not a Pythagorean triple")


class HeronResult(_Record):
    value: SexFloat
    iterations: int
    residual: Fraction

    def __init__(self, value: SexFloat, iterations: int, residual: Fraction):
        _setattr(self, "value", value)
        _setattr(self, "iterations", iterations)
        _setattr(self, "residual", residual)


class PlimptonRow(_Record):
    """One reconstructed tablet row: the ratio column as exact sexagesimal
    digits, plus the short side and diagonal."""

    index: int
    ratio_digits: SexNumber
    a: int
    d: int

    def __init__(self, index: int, ratio_digits: SexNumber, a: int, d: int):
        _setattr(self, "index", index)
        _setattr(self, "ratio_digits", ratio_digits)
        _setattr(self, "a", a)
        _setattr(self, "d", d)
        if not 1 <= index <= 15:
            raise ValueError("row index must be in 1..15")
        if not 0 < a < d:
            raise ValueError("require 0 < a < d")
        root, perfect = int_sqrt(d**2 - a**2)
        if not perfect:
            raise ValueError("d^2 - a^2 is not a perfect square")
        _setattr(self, "_b", root)

    @property
    def b(self) -> int:
        return self._b

    @property
    def triple(self) -> Triple:
        sides = sorted((self.a, self.b))
        return Triple(sides[0], sides[1], self.d)


def heron_sqrt(
    x: Rational,
    start: Rational | None = None,
    precision: int = 8,
) -> HeronResult:
    """Square root by the iteration a(n+1) = (a(n) + x/a(n)) / 2, run in
    exact rationals until successive iterates differ by less than
    60**(-precision).

    The result is the final iterate truncated to ``precision`` fractional
    sexagesits and normalized.  ``start`` defaults to isqrt(floor(x)) for
    x >= 1, and for x < 1 to isqrt(floor(x * 60**(2k))) / 60**k with k the
    least k >= 1 such that x * 60**(2k) >= 60**2: a root of at least two
    sexagesits, so the start is within one sexagesit of sqrt(x).
    """
    x = Fraction(x)
    if x <= 0:
        raise DomainError("square root requires a positive value")
    if precision < 1:
        raise DomainError("precision must be at least 1")
    if start is None and x >= 1:
        cur = Fraction(math.isqrt(int(x)))
    elif start is None:
        # with 60**(e-1) <= x < 60**e, k = ceil((3 - e) / 2)
        scale = BASE ** ((4 - _magnitude_exponent(x)) // 2)
        cur = Fraction(math.isqrt(x.numerator * scale * scale // x.denominator), scale)
    else:
        cur = Fraction(start)
        if cur <= 0:
            raise DomainError("starting guess must be positive")
    eps = Fraction(1, 60**precision)
    for iterations in range(1, HERON_ITERATION_CAP + 1):
        nxt = (cur + x / cur) / 2
        residual = abs(nxt - cur)
        cur = nxt
        if residual < eps:
            break
    else:
        raise DomainError(f"no convergence within {HERON_ITERATION_CAP} iterations")
    number = _round_to(cur, precision, TRUNC)
    if number.is_zero:
        value = SexFloat.zero(precision)
    else:
        int_width = 0 if number.int_digits == (0,) else len(number.int_digits)
        value = SexFloat.from_sex_number(number, precision=int_width + precision)
    return HeronResult(value=value, iterations=iterations, residual=residual)


def heron_area(a: Rational, b: Rational, c: Rational, precision: int = 8) -> SexFloat:
    """Triangle area from the three sides: sqrt(s(s-a)(s-b)(s-c)) with s the
    semiperimeter, the radicand exact and the root via `heron_sqrt`."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if min(a, b, c) <= 0:
        raise DomainError("sides must be positive")
    s = (a + b + c) / 2
    radicand = s * (s - a) * (s - b) * (s - c)
    if radicand <= 0:
        raise DomainError("degenerate or impossible triangle")
    return heron_sqrt(radicand, precision=precision).value


def nontrivial_divisors(n: int) -> list[int]:
    """All divisors d of n with 1 < d < n, ascending, for 2 <= n <=
    `DIVISORS_BOUND`."""
    if n < 2:
        raise DomainError("n must be at least 2")
    if n > DIVISORS_BOUND:
        raise DomainError(f"n must be at most {DIVISORS_BOUND} (divisors are found by trial division)")
    small, large = [], []
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def is_regular(n: int) -> Regularity:
    """Whether n = 2^a * 3^b * 5^c; exactly these denominators give
    terminating base-60 expansions."""
    if n < 1:
        raise DomainError("n must be at least 1")
    exps = []
    for p in (2, 3, 5):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        exps.append(e)
    return Regularity(n == 1, exps[0], exps[1], exps[2], n)


def triple_from_generators(p: int, q: int) -> Triple:
    """Primitive-triple parametrization: sides {p^2-q^2, 2pq}, diagonal
    p^2+q^2, for coprime p > q >= 1 of opposite parity."""
    if not p > q >= 1:
        raise DomainError("require p > q >= 1")
    if math.gcd(p, q) != 1:
        raise DomainError("require gcd(p, q) = 1")
    if p % 2 == 1 and q % 2 == 1:
        raise DomainError("require p and q not both odd")
    legs = sorted((p * p - q * q, 2 * p * q))
    return Triple(legs[0], legs[1], p * p + q * q)


def _terminating_sexagesimal(x: Fraction) -> SexNumber:
    frac_len, cofactor = _split_denominator(x.denominator, BASE)
    if cofactor != 1:
        raise DomainError(f"expansion of {x} does not terminate (denominator cofactor {cofactor})")
    return _round_to(x, frac_len, TRUNC)


def plimpton_row_compute(a: int, d: int, index: int, ratio: str = RATIO_DIAGONAL) -> PlimptonRow:
    """Rebuild a tablet row from its short side and diagonal: recover
    b = sqrt(d^2 - a^2) and expand the ratio column exactly."""
    if not 0 < a < d:
        raise DomainError("require 0 < a < d")
    b, perfect = int_sqrt(d * d - a * a)
    if not perfect:
        raise DomainError(f"d^2 - a^2 = {d * d - a * a} is not a perfect square")
    if ratio == RATIO_DIAGONAL:
        value = Fraction(d * d, b * b)
    elif ratio == RATIO_SHORT:
        value = Fraction(a * a, b * b)
    else:
        raise DomainError(f"unknown ratio interpretation {ratio!r}")
    return PlimptonRow(index=index, ratio_digits=_terminating_sexagesimal(value), a=a, d=d)


class TableRecord(NamedTuple):
    """One verbatim record of the embedded transcription."""

    index: int
    ratio_glyphs: str
    a_glyphs: str
    d_glyphs: str


def load_table() -> list[TableRecord]:
    """The embedded 15-row transcription (index, ratio, a, d glyph strings)."""
    return [
        TableRecord(int(index), ratio_glyphs, a_glyphs, d_glyphs)
        for index, ratio_glyphs, a_glyphs, d_glyphs in _read_tsv(_PLIMPTON_RESOURCE)
    ]


class DigitMismatch(NamedTuple):
    position: int  # 1-based sexagesit position in the published string
    published: int | None
    computed: int | None


class RowDiff(_Record):
    """Reconstruction of one row diffed against its published glyphs."""

    index: int
    row: PlimptonRow | None
    published: SexNumber | None
    mismatches: tuple[DigitMismatch, ...]
    error: str | None

    def __init__(
        self,
        index: int,
        row: PlimptonRow | None,
        published: SexNumber | None,
        mismatches: tuple[DigitMismatch, ...],
        error: str | None,
    ):
        _setattr(self, "index", index)
        _setattr(self, "row", row)
        _setattr(self, "published", published)
        _setattr(self, "mismatches", mismatches)
        _setattr(self, "error", error)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.mismatches


def reconstruct_table(ratio: str = RATIO_DIAGONAL) -> list[RowDiff]:
    """Decode every embedded row, recompute b and the ratio column, and diff
    the result per sexagesit against the published glyphs.  Rows that fail
    to decode or reconstruct are reported in the diff, never raised."""
    diffs = []
    for record in load_table():
        try:
            a = decode_glyphs(record.a_glyphs)
            d = decode_glyphs(record.d_glyphs)
            published = decode_glyphs(record.ratio_glyphs)
            if a.frac_count or d.frac_count:
                raise DomainError("side columns must be integers")
            row = plimpton_row_compute(
                int(a.to_rational()), int(d.to_rational()), record.index, ratio
            )
        except (GlyphError, DomainError) as exc:
            diffs.append(
                RowDiff(record.index, row=None, published=None, mismatches=(), error=str(exc))
            )
            continue
        if ratio == RATIO_SHORT:
            # the published column keeps the ambiguous leading 1; the (a/b)^2
            # reading drops it and keeps the fractional tail
            mismatches = _diff_digits(published.digits[1:], row.ratio_digits.frac_digits, DigitMismatch)
        else:
            mismatches = _diff_digits(published.digits, row.ratio_digits.digits, DigitMismatch)
        diffs.append(
            RowDiff(record.index, row=row, published=published, mismatches=mismatches, error=None)
        )
    return diffs
