"""Heron's square-root iteration and area formula, base-divisor analysis,
regular numbers, Pythagorean triple generation, and the Plimpton 322
reconstruction against the embedded transcription.

Everything runs in exact rational arithmetic; square roots are the only
approximate results and they carry their own precision contract.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError
from .exact import (
    BASE,
    Rational,
    SexNumber,
    _coprime_fraction,
    _diff_digits,
    _rational,
    _Record,
    _round_to,
    _split_denominator,
    _valuations_235,
    int_sqrt,
)
from .floating import SexFloat, _magnitude_exponent
from .glyphs import GlyphError, _read_tsv, decode_glyphs

# `heron_sqrt` keeps its iterates exact, so each step about doubles their
# size, and a start far from the root would cost time without limit.  It
# refuses to step from an iterate whose numerator and denominator together
# pass this many bits, where one step costs about 0.2 s (CPython 3.11).
# Iterates from a start within a thousandfold of the root, at up to 8
# sexagesits, stay below half of it.
HERON_OPERAND_BITS = 2**21

# `nontrivial_divisors` factors n by trial division over 2, 3, 5 and the
# integers coprime to 30 up to sqrt(n), so it refuses n above this bound: at
# most 266,668 trial divisors, for a prime n
DIVISORS_BOUND = 10**12

# interpretations of the tablet's ratio column
RATIO_DIAGONAL = "d2b2"  # (d/b)^2, reproduces the printed leading 1
RATIO_SHORT = "a2b2"  # (a/b)^2, drops the leading 1

_PLIMPTON_RESOURCE = "data/plimpton322.tsv"


Regularity = namedtuple("Regularity", ["is_regular", "exp2", "exp3", "exp5", "cofactor"])
Regularity.__doc__ = """Factorization of n as 2^a * 3^b * 5^c * cofactor."""


class Triple(_Record):
    """A Pythagorean triple: short side, medium side, diagonal."""

    a: int
    b: int
    d: int

    def _check(self):
        a, b, d = self.a, self.b, self.d
        if not 0 < a <= b < d:
            raise ValueError("sides must satisfy 0 < a <= b < d")
        if a**2 + b**2 != d**2:
            raise ValueError("not a Pythagorean triple")


class HeronResult(_Record):
    value: SexFloat
    iterations: int
    residual: Fraction


class PlimptonRow(_Record):
    """One reconstructed tablet row: the ratio column as exact sexagesimal
    digits, plus the short side and diagonal."""

    index: int
    ratio_digits: SexNumber
    a: int
    d: int

    def _check(self):
        a, d = self.a, self.d
        if not 1 <= self.index <= 15:
            raise ValueError("row index must be in 1..15")
        if not 0 < a < d:
            raise ValueError("require 0 < a < d")
        if not int_sqrt(d**2 - a**2)[1]:
            raise ValueError("d^2 - a^2 is not a perfect square")

    @property
    def b(self) -> int:
        return math.isqrt(self.d**2 - self.a**2)

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
    sexagesits, so the start is within one sexagesit of sqrt(x).  An
    iterate past `HERON_OPERAND_BITS` before convergence is a `DomainError`.

    The step runs in integers (Henrici's method, Knuth TAOCP vol. 2,
    4.5.1).  With x = A/B and the iterate p/q, both in lowest terms, the next
    iterate is (Bp^2 + Aq^2) / 2Bpq and it differs from p/q by
    (Aq^2 - Bp^2) / 2Bpq, so the stopping test needs no division.  A prime
    common to that numerator and denominator divides 2AB, so every gcd is
    taken against A, B or a divisor of 2AB, never between two iterates:
    with gA = gcd(A, p) and gB = gcd(B, q) divided out of the factors before
    they are multiplied, the common primes left divide 2 * gcd(gB, B/gB).
    """
    x = _rational(x)
    if x.numerator <= 0:
        raise DomainError("square root requires a positive value")
    if precision < 1:
        raise DomainError("precision must be at least 1")
    if start is None and x.numerator >= x.denominator:
        cur = Fraction(math.isqrt(x.numerator // x.denominator))
    elif start is None:
        # with 60**(e-1) <= x < 60**e, k = ceil((3 - e) / 2)
        scale = BASE ** ((4 - _magnitude_exponent(x)) // 2)
        cur = Fraction(math.isqrt(x.numerator * scale * scale // x.denominator), scale)
    else:
        cur = _rational(start)
        if cur.numerator <= 0:
            raise DomainError("starting guess must be positive")
    a, b = x.numerator, x.denominator
    p, q = cur.numerator, cur.denominator
    scale = BASE**precision
    iterations = 0
    while True:
        if p.bit_length() + q.bit_length() > HERON_OPERAND_BITS:
            raise DomainError(f"iterate passed {HERON_OPERAND_BITS} bits (HERON_OPERAND_BITS) before converging")
        # Bp^2, Aq^2 and 2Bpq, each divided by gA * gB
        ga, gb = math.gcd(a, p), math.gcd(b, q)
        a1, b1, p1, q1 = a // ga, b // gb, p // ga, q // gb
        bpp, aqq = ga * b1 * p1 * p1, gb * a1 * q1 * q1
        den = 2 * b * p1 * q1
        common = 2 * math.gcd(gb, b1)
        iterations += 1
        if abs(aqq - bpp) * scale < den:
            break
        p, q = _lowest_terms(bpp + aqq, den, common)
    if aqq == bpp:
        residual = Fraction(0)
    else:
        residual = _coprime_fraction(*_lowest_terms(abs(aqq - bpp), den, common))
    number = _round_to(_coprime_fraction(*_lowest_terms(bpp + aqq, den, common)), precision)
    int_digits = number._parts[0]
    int_width = 0 if int_digits == b"\0" else len(int_digits)
    value = SexFloat.from_sex_number(number, precision=int_width + precision)
    return HeronResult(value=value, iterations=iterations, residual=residual)


def _lowest_terms(n: int, d: int, common: int) -> tuple[int, int]:
    """n/d in lowest terms, for n and d whose common primes all divide
    ``common``.  Each gcd has ``common`` or one of its divisors as an
    argument, so for a short ``common`` it costs time linear in n and d.  A
    prime may divide n and d to a higher power than it divides ``common``,
    so the gcds repeat until they reach 1."""
    g = math.gcd(math.gcd(common, n), d)
    while g > 1:
        n //= g
        d //= g
        g = math.gcd(math.gcd(g, n), d)
    return n, d


def heron_area(a: Rational, b: Rational, c: Rational, precision: int = 8) -> SexFloat:
    """Triangle area from the three sides: sqrt(s(s-a)(s-b)(s-c)) with s the
    semiperimeter, the radicand exact and the root via `heron_sqrt`.  Over
    the sides' common denominator L the radicand is
    (a+b+c)(b+c-a)(a+c-b)(a+b-c) / 16L^4, one product of integers."""
    a, b, c = _rational(a), _rational(b), _rational(c)
    if min(a.numerator, b.numerator, c.numerator) <= 0:
        raise DomainError("sides must be positive")
    common = math.lcm(a.denominator, b.denominator, c.denominator)
    a, b, c = (side.numerator * (common // side.denominator) for side in (a, b, c))
    product = (a + b + c) * (b + c - a) * (a + c - b) * (a + b - c)
    if product <= 0:
        raise DomainError("degenerate or impossible triangle")
    return heron_sqrt(Fraction(product, 16 * common**4), precision=precision).value


# steps from 2 to 3, 5 and 7, then the gaps between the integers coprime to
# 30 (7, 11, 13, 17, 19, 23, 29, 31, 37, ...), which repeat from index 3
_WHEEL = (1, 2, 2, 4, 2, 4, 2, 4, 6, 2, 6)


def nontrivial_divisors(n: int) -> list[int]:
    """All divisors d of n with 1 < d < n, ascending, for 2 <= n <=
    `DIVISORS_BOUND`: n is factored over 2, 3, 5 and then the integers
    coprime to 30 up to the square root of the cofactor left, and the
    divisors are built from its prime powers."""
    if n < 2:
        raise DomainError("n must be at least 2")
    if n > DIVISORS_BOUND:
        raise DomainError(f"n must be at most {DIVISORS_BOUND} (divisors are found by trial division)")
    divisors, rest = [1], n
    p, i = 2, 0
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            divisors = [d * p**k for d in divisors for k in range(e + 1)]
        p += _WHEEL[i]
        i = i + 1 if i < 10 else 3
    if rest > 1:
        divisors += [d * rest for d in divisors]
    divisors.sort()
    return divisors[1:-1]


def is_regular(n: int) -> Regularity:
    """Whether n = 2^a * 3^b * 5^c; exactly these denominators give
    terminating base-60 expansions.  The exponents come from
    `_valuations_235`, uncapped."""
    if n < 1:
        raise DomainError("n must be at least 1")
    cap = n.bit_length()
    a, b, c, n = _valuations_235(n, cap, cap, cap)
    return Regularity(n == 1, a, b, c, n)


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
    return _round_to(x, frac_len)


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


TableRecord = namedtuple("TableRecord", ["index", "ratio_glyphs", "a_glyphs", "d_glyphs"])
TableRecord.__doc__ = """One verbatim record of the embedded transcription."""


def load_table() -> list[TableRecord]:
    """The embedded 15-row transcription (index, ratio, a, d glyph strings)."""
    return [
        TableRecord(int(index), ratio_glyphs, a_glyphs, d_glyphs)
        for index, ratio_glyphs, a_glyphs, d_glyphs in _read_tsv(_PLIMPTON_RESOURCE)
    ]


# position is the 1-based sexagesit position in the published string;
# published and computed are the digits there, None past a string's end
DigitMismatch = namedtuple("DigitMismatch", ["position", "published", "computed"])


class RowDiff(_Record):
    """Reconstruction of one row diffed against its published glyphs."""

    index: int
    row: PlimptonRow | None
    published: SexNumber | None
    mismatches: tuple[DigitMismatch, ...]
    error: str | None

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
            mismatches = _diff_digits(published._digits[1:], row.ratio_digits._parts[1], DigitMismatch)
        else:
            mismatches = _diff_digits(published._digits, row.ratio_digits._digits, DigitMismatch)
        diffs.append(
            RowDiff(record.index, row=row, published=published, mismatches=mismatches, error=None)
        )
    return diffs
