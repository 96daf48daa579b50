"""Bijective codec between sexagesit values 0..59 and a one-character-per-digit
glyph alphabet, plus the canonical colon/semicolon text form.

Alphabet: 0-9 for values 0..9, A-Z for 10..35, then lowercase Greek for
36..59 -- with value 50 written as the Latin letter 'o'.  Decoding also
accepts a few typographic variants (phi/epsilon/theta symbol forms, Greek
omicron) via an alias table; encoding only ever emits canonical glyphs.
"""

import os
from types import MappingProxyType

from .errors import QUOTE_CHARS, ParseError, quote
from .exact import BASE, SexNumber, _Record, _render, _setattr

# values 36..59; index 14 (= value 50) is LATIN SMALL LETTER O, as published
_GREEK = "αβγδεζηθικλμ" \
         "νξoπρστυφχψω"

_DEFAULT_FORWARD = {}
for _v in range(10):
    _DEFAULT_FORWARD[_v] = str(_v)
for _v in range(10, 36):
    _DEFAULT_FORWARD[_v] = chr(ord("A") + _v - 10)
for _i, _g in enumerate(_GREEK):
    _DEFAULT_FORWARD[36 + _i] = _g

# variant glyph -> value: phi symbol, lunate epsilon, theta symbol, omicron
_DEFAULT_ALIASES = {
    "ϕ": 56,
    "ϵ": 40,
    "ϑ": 43,
    "ο": 50,
}


class GlyphError(ParseError):
    pass


class UnknownGlyphError(GlyphError):
    def __init__(self, glyph: str, position: int):
        super().__init__(f"unknown glyph {glyph!r} at position {position}", position=position)
        self.glyph = glyph


class DigitRangeError(GlyphError):
    pass


class GlyphTable(_Record):
    """Immutable digit<->glyph mapping with decode-only aliases; ``forward``
    and ``aliases`` default to the standard alphabet's, and are kept as
    read-only copies."""

    forward: dict
    aliases: dict
    reverse: dict
    __match_args__ = ("forward", "aliases")  # the constructor's; reverse is derived

    def __init__(self, forward: dict | None = None, aliases: dict | None = None):
        forward = _DEFAULT_FORWARD if forward is None else forward
        aliases = _DEFAULT_ALIASES if aliases is None else aliases
        if sorted(forward) != list(range(BASE)):
            raise ValueError("forward map must cover exactly the values 0..59")
        if len(set(forward.values())) != BASE:
            raise ValueError("forward map is not injective")
        for g in forward.values():
            if len(g) != 1:
                raise ValueError(f"glyph {g!r} is not a single character")
        reverse = {g: v for v, g in forward.items()}
        for g, v in aliases.items():
            if g in reverse:
                raise ValueError(f"alias {g!r} shadows a primary glyph")
            if v not in forward:
                raise ValueError(f"alias {g!r} maps to invalid value {v!r}")
        _setattr(self, "forward", MappingProxyType(dict(forward)))
        _setattr(self, "aliases", MappingProxyType(dict(aliases)))
        _setattr(self, "reverse", MappingProxyType(reverse))

    def glyph(self, value: int) -> str:
        return self.forward[value]

    def value(self, glyph: str) -> int | None:
        """Digit value of a glyph, alias-aware; None when unknown."""
        v = self.reverse.get(glyph)
        if v is None:
            v = self.aliases.get(glyph)
        return v

    def rows(self) -> list[tuple[int, str, str, str]]:
        """(value, glyph, code point, alias glyphs) for the 60-row doc table."""
        by_value = {}
        for g, v in self.aliases.items():
            by_value.setdefault(v, []).append(g)
        return [
            (v, g, f"U+{ord(g):04X}", " ".join(sorted(by_value.get(v, []))))
            for v, g in sorted(self.forward.items())
        ]


DEFAULT_TABLE = GlyphTable()


def _read_tsv(resource: str) -> list[list[str]]:
    """The tab-separated fields of each line of an embedded data file,
    skipping blank lines and ``#`` comment lines.  The package's loader
    reads it, as `pkgutil.get_data` would, without the imports of
    `importlib.resources`."""
    path = os.path.join(os.path.dirname(__file__), *resource.split("/"))
    text = __spec__.loader.get_data(path).decode("utf-8")
    return [line.split("\t") for line in text.splitlines() if line and not line.startswith("#")]


def encode_glyphs(x: SexNumber, table: GlyphTable = DEFAULT_TABLE) -> str:
    """One canonical glyph per sexagesit; ``;`` as radix point, ``-`` sign."""
    return _render(x.sign, x.int_digits, x.frac_digits, symbols=table.forward)


def _decode_raw(text: str, table: GlyphTable) -> list[int]:
    """The digit values of glyph text as printed, with nothing canonicalized:
    spaces are skipped and aliases resolve to their value.  Any other
    character, ``-`` and ``;`` included, is an `UnknownGlyphError` at its
    1-based position in text."""
    digits = []
    for pos, ch in enumerate(text, 1):
        if ch != " ":
            v = table.value(ch)
            if v is None:
                raise UnknownGlyphError(ch, pos)
            digits.append(v)
    return digits


def decode_glyphs(text: str, table: GlyphTable = DEFAULT_TABLE) -> SexNumber:
    """Inverse of `encode_glyphs`; spaces between glyphs are ignored and
    aliases resolve to their canonical digit.  Positions in errors are
    1-based indexes into the original text."""
    sign = 1
    digits: list[int] = []
    frac_start: int | None = None
    seen_glyph = False
    for i, ch in enumerate(text):
        pos = i + 1
        if ch == " ":
            continue
        if ch == "-":
            if seen_glyph or sign < 0 or frac_start is not None:
                raise GlyphError(f"unexpected '-' at position {pos}", position=pos)
            sign = -1
            continue
        if ch == ";":
            if frac_start is not None:
                raise GlyphError(f"second radix point at position {pos}", position=pos)
            if not seen_glyph:
                raise GlyphError(f"radix point before any digit at position {pos}", position=pos)
            frac_start = len(digits)
            continue
        v = table.value(ch)
        if v is None:
            raise UnknownGlyphError(ch, pos)
        digits.append(v)
        seen_glyph = True
    if not seen_glyph:
        raise GlyphError("no digits in glyph text", position=1)
    if frac_start == len(digits):
        raise GlyphError("radix point with no fractional digits", position=len(text))
    frac_count = 0 if frac_start is None else len(digits) - frac_start
    return SexNumber.from_digits(sign, digits, frac_count)


def encode_canonical(x: SexNumber) -> str:
    """Canonical text form: sexagesits as decimal numbers, ``:`` separated,
    ``;`` radix point, e.g. ``1;59:0:15``."""
    return x.canonical_text()


def decode_canonical(text: str) -> SexNumber:
    """Parse the canonical text form (lossless inverse of `encode_canonical`)."""
    s = text
    i = 0
    n = len(s)
    sign = 1
    if i < n and s[i] == "-":
        sign = -1
        i += 1
    digits: list[int] = []
    frac_start: int | None = None
    while True:
        start = i
        while i < n and s[i].isascii() and s[i].isdigit():
            i += 1
        if i == start:
            raise GlyphError(f"expected sexagesit at position {start + 1}: {quote(text)}", position=start + 1)
        token = s[start:i]
        if len(token) > 2:
            token = token.lstrip("0") or "0"
        # a sexagesit has at most two significant digits, so a longer token is
        # out of range without converting it (and whatever its length)
        value = int(token) if len(token) <= 2 else BASE
        if value >= BASE:
            shown = token if len(token) <= QUOTE_CHARS else quote(token)
            raise DigitRangeError(f"sexagesit {shown} out of range at position {start + 1}", position=start + 1)
        digits.append(value)
        if i == n:
            break
        if s[i] == ":":
            i += 1
        elif s[i] == ";":
            if frac_start is not None:
                raise GlyphError(f"second radix point at position {i + 1}", position=i + 1)
            frac_start = len(digits)
            i += 1
        else:
            raise GlyphError(f"unexpected character {s[i]!r} at position {i + 1}", position=i + 1)
    frac_count = 0 if frac_start is None else len(digits) - frac_start
    return SexNumber.from_digits(sign, digits, frac_count)
