"""Reference arithmetic for checking outputs, written from the documented
behaviour (README) and from number theory, never from the package source.

Every check here is independent of the code under test: digit strings are
folded by divide and conquer, repetends are verified block by block with
modular exponentiation, and period and pre-period lengths come from the
multiplicative order of the base.
"""

import math
from fractions import Fraction

BASE = 60

# README "Glyph alphabet": 0-9, A-Z, then lowercase Greek with 50 = Latin 'o'
GLYPHS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ" + "αβγδεζηθικλμνξoπρστυφχψω"
GLYPH_VALUE = {g: v for v, g in enumerate(GLYPHS)}
GLYPH_ALIASES = {"ϕ": 56, "ϵ": 40, "ϑ": 43, "ο": 50}
assert len(GLYPHS) == BASE

# README: period search gives up past 10^6 long-division states
PERIOD_STATE_BOUND = 10**6

_PRIME_FACTORS_OF_BASE = {10: (2, 5), 60: (2, 3, 5)}


class Mismatch(Exception):
    """An output differs from the reference."""


def expect(condition: bool, what: str):
    if not condition:
        raise Mismatch(what)


# -- digit strings ----------------------------------------------------------

def fold(digits, base: int = BASE) -> int:
    """Integer value of a most-significant-first digit sequence, by splitting
    in halves (subquadratic with Karatsuba multiplication)."""
    n = len(digits)
    if n <= 64:
        value = 0
        for d in digits:
            value = value * base + d
        return value
    half = n // 2
    return fold(digits[:half], base) * base ** (n - half) + fold(digits[half:], base)


def small_digits(n: int, base: int = BASE) -> list[int]:
    """Digits of a small non-negative integer (int parts, exponents)."""
    out = [n % base]
    n //= base
    while n:
        out.append(n % base)
        n //= base
    return out[::-1]


def glyph_text(sign: int, digits, frac_count: int) -> str:
    int_part = digits[: len(digits) - frac_count]
    text = "".join(GLYPHS[d] for d in int_part)
    if frac_count:
        text += ";" + "".join(GLYPHS[d] for d in digits[len(digits) - frac_count:])
    return ("-" if sign < 0 else "") + text


def canonical_text(sign: int, digits, frac_count: int) -> str:
    int_part = digits[: len(digits) - frac_count]
    text = ":".join(map(str, int_part))
    if frac_count:
        text += ";" + ":".join(map(str, digits[len(digits) - frac_count:]))
    return ("-" if sign < 0 else "") + text


def numeral_value(sign: int, digits, frac_count: int) -> Fraction:
    return Fraction(sign * fold(digits), BASE**frac_count)


# -- number theory ----------------------------------------------------------

def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def multiplicative_order(base: int, n: int) -> int:
    """Least L >= 1 with base**L = 1 (mod n), for n > 1 coprime to base."""
    lam = 1
    for p, e in factorize(n).items():
        phi = (p - 1) * p ** (e - 1)
        lam = lam * phi // math.gcd(lam, phi)
    order = lam
    for q in factorize(lam):
        while order % q == 0 and pow(base, order // q, n) == 1:
            order //= q
    return order


def split_denominator(den: int, base: int) -> tuple[int, int]:
    """(pre-period length, denominator part coprime to the base)."""
    regular = 1
    for p in _PRIME_FACTORS_OF_BASE[base]:
        while den % p == 0:
            den //= p
            regular *= p
    k = 0
    while base**k % regular:
        k += 1
    return k, den


def expansion_shape(x: Fraction, base: int) -> tuple[int, int]:
    """(pre-period length, period length); period 0 when x terminates."""
    pre, rest = split_denominator(x.denominator, base)
    return pre, (multiplicative_order(base, rest) if rest > 1 else 0)


def frac_digits_ok(frac: Fraction, digits, base: int, block: int = 256) -> bool:
    """Whether ``digits`` are the first len(digits) fractional digits of
    ``frac`` (0 <= frac < 1), checked block by block: the block starting
    at digit c is floor(base**K * ((A * base**c) mod den) / den)."""
    a, den = frac.numerator, frac.denominator
    for c in range(0, len(digits), block):
        chunk = digits[c: c + block]
        r = a * pow(base, c, den) % den
        if fold(chunk, base) != r * base ** len(chunk) // den:
            return False
    return True


def check_expansion(exp, x: Fraction, base: int, max_frac: int, detect: bool):
    """An `Expansion` of x (through its public fields) against the reference."""
    expect(exp.base == base, "expansion base")
    sign = (x > 0) - (x < 0)
    mag = abs(x)
    whole = mag.numerator // mag.denominator
    expect(exp.sign == sign, "expansion sign")
    expect(tuple(exp.int_digits) == tuple(small_digits(whole, base)), "expansion integer digits")
    frac = mag - whole
    pre, period = expansion_shape(mag, base)
    stream = tuple(exp.frac_digits) + tuple(exp.period)
    if period == 0:
        expect(exp.terminates and exp.frac_len == pre, "terminating length")
        expect(exp.complete and not exp.period and len(exp.frac_digits) == pre,
               "terminating digits count")
    else:
        expect(not exp.terminates and exp.frac_len is None, "non-terminating flag")
        if detect and pre + period <= PERIOD_STATE_BOUND:
            expect(exp.complete, "repetend resolved")
            expect(len(exp.frac_digits) == pre and len(exp.period) == period,
                   f"pre-period/period lengths {len(exp.frac_digits)}/{len(exp.period)}"
                   f" vs {pre}/{period}")
        else:
            expect(not exp.complete and not exp.period, "unresolved expansion flagged")
            expect(len(exp.frac_digits) == max_frac, "truncated digit count")
    expect(frac_digits_ok(frac, stream, base), "fractional digits")


def check_rounded(number, x: Fraction, max_frac: int, mode: str):
    """A `SexNumber` that should be x rounded to max_frac sexagesits."""
    scaled = round_scaled(abs(x) * BASE**max_frac, mode)
    sign = 0 if scaled == 0 else ((x > 0) - (x < 0))
    expect(number.sign == sign, "rounded sign")
    expect(number.frac_count <= max_frac, "rounded frac_count")
    got = fold(number.digits) * BASE ** (max_frac - number.frac_count)
    expect(got == scaled, "rounded value")


def round_scaled(v: Fraction, mode: str) -> int:
    """Round a non-negative rational to an integer: trunc, half-up or
    half-even (ties to the even neighbour)."""
    q, r = divmod(v.numerator, v.denominator)
    twice = 2 * r
    if mode == "trunc" or r == 0:
        return q
    if mode == "half-up":
        return q + (twice >= v.denominator)
    return q + (twice > v.denominator or (twice == v.denominator and q % 2 == 1))


def magnitude_exponent(x: Fraction) -> int:
    """The e with 60**(e-1) <= |x| < 60**e."""
    x = abs(x)
    e = 0
    while Fraction(BASE) ** e <= x:
        e += 1
    while Fraction(BASE) ** (e - 1) > x:
        e -= 1
    return e


def sexfloat_value(f) -> Fraction:
    """Value of a `SexFloat` from its public fields."""
    return f.sign * Fraction(fold(f.mantissa)) * Fraction(BASE) ** (f.exponent - len(f.mantissa))


def check_sqrt(value: Fraction, x: Fraction, precision: int):
    """|value - sqrt(x)| < 2 * 60**-precision, decided exactly."""
    tol = Fraction(2, BASE**precision)
    lo, hi = value - tol, value + tol
    expect(hi > 0 and hi * hi > x, "square root too small")
    expect(lo <= 0 or lo * lo < x, "square root too large")


# -- command-line output ----------------------------------------------------

def parse_output(text: str, notation: str) -> tuple[Fraction, bool]:
    """Value of a rendered number and whether it is exact (no '...').

    Renderings: decimal ``-12.3(45)``, canonical ``1;2:3(4:5)`` and glyph
    ``1;23(45)``; a trailing ``...`` marks a truncated expansion."""
    exact = not text.endswith("...")
    if not exact:
        text = text[:-3]
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    period_text = ""
    if text.endswith(")"):
        text, period_text = text[:-1].split("(")
    base = 10 if notation == "decimal" else BASE
    point = "." if notation == "decimal" else ";"
    int_text, _, frac_text = text.partition(point)

    def digits_of(s: str) -> list[int]:
        if not s:
            return []
        if notation == "decimal":
            return [int(c) for c in s]
        if notation == "canonical":
            return [int(t) for t in s.split(":")]
        return [GLYPH_VALUE[c] for c in s]

    whole = fold(digits_of(int_text), base)
    pre = digits_of(frac_text)
    value = Fraction(whole) + Fraction(fold(pre, base), base ** len(pre))
    if period_text:
        per = digits_of(period_text)
        value += Fraction(fold(per, base), base ** len(pre) * (base ** len(per) - 1))
    return sign * value, exact
