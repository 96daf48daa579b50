"""Bijective codec between sexagesit values 0..59 and a one-character-per-digit
glyph alphabet, plus the canonical colon/semicolon text form.

Alphabet: 0-9 for values 0..9, A-Z for 10..35, then lowercase Greek for
36..59 -- with value 50 written as the Latin letter 'o'.  Decoding also
accepts a few typographic variants (phi/epsilon/theta symbol forms, Greek
omicron) via an alias table; encoding only ever emits canonical glyphs.
"""

import os
from itertools import repeat
from types import MappingProxyType

from .errors import QUOTE_CHARS, ParseError, quote
from .exact import _UNBCD, BASE, SexNumber, _Record, _render, _setattr

# the glyph of each value 0..59 at its index; value 50 is LATIN SMALL LETTER
# O, as published, among the Greek letters
_DEFAULT_FORWARD = dict(enumerate("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZαβγδεζηθικλμνξoπρστυφχψω"))

# variant glyph -> value: phi symbol, lunate epsilon, theta symbol, omicron
_DEFAULT_ALIASES = {
    "ϕ": 56,
    "ϵ": 40,
    "ϑ": 43,
    "ο": 50,
}


class GlyphError(ParseError):
    origin = "glyphs"  # the module a diagnostic names


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
        for g in (*forward.values(), *aliases):
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
        # derived, not a field: the `str.translate` map of `decode_glyphs`, for
        # every code point below 256: each glyph and alias to its value, but
        # syntax first: " " to nothing, ";" to 254, and "-" and the rest to 255
        bulk_map = dict.fromkeys(range(256), 255)
        bulk_map.update({ord(g): v for g, v in [*reverse.items(), *aliases.items()]})
        bulk_map.update({ord(" "): None, ord("-"): 255, ord(";"): 254})
        _setattr(self, "_bulk_map", bulk_map)
        # derived too: each value's glyph at its index, the string `_render` spells with
        _setattr(self, "_alphabet", "".join(forward[v] for v in range(BASE)))

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
    int_digits, frac_digits = x._parts
    return _render(x.sign, int_digits, frac_digits, symbols=table._alphabet)


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
    1-based indexes into the original text.

    The text is read by C-level string operations, whatever its length:
    the spaces before a ``-`` sign are stripped, one ``str.translate`` of
    the rest through the table's map must encode as Latin-1, and one
    ``partition`` at the radix point's byte 254 splits the digit values,
    which `SexNumber.from_digits` checks are below BASE as it builds the
    number.  Text this refuses is malformed; `_glyph_fault` names its fault."""
    body = text.lstrip(" ")
    sign = -1 if body[:1] == "-" else 1
    try:
        raw = body[sign < 0 :].translate(table._bulk_map).encode("latin-1")
    except UnicodeEncodeError:  # a code point past 255, not a glyph
        _glyph_fault(text, table)
    int_digits, point, frac_digits = raw.partition(b"\xfe")
    if int_digits and (frac_digits or not point):
        try:
            return SexNumber.from_digits(sign, int_digits + frac_digits, len(frac_digits))
        except ValueError:  # a byte that is no sexagesit
            pass
    _glyph_fault(text, table)


def _glyph_fault(text: str, table: GlyphTable):
    """Raise the `GlyphError` for the first fault of glyph text, scanning it
    one character at a time; it builds no digits.  Text without a fault is
    a defect of the caller, and fails an assertion."""
    negative = seen_glyph = in_frac = frac_glyph = False
    for pos, ch in enumerate(text, 1):
        if ch == " ":
            continue
        if ch == "-":
            if seen_glyph or negative or in_frac:
                raise GlyphError(f"unexpected '-' at position {pos}", position=pos)
            negative = True
        elif ch == ";":
            if in_frac:
                raise GlyphError(f"second radix point at position {pos}", position=pos)
            if not seen_glyph:
                raise GlyphError(f"radix point before any digit at position {pos}", position=pos)
            in_frac = True
        elif table.value(ch) is None:
            raise UnknownGlyphError(ch, pos)
        else:
            seen_glyph = True
            frac_glyph = in_frac
    if not seen_glyph:
        raise GlyphError("no digits in glyph text", position=1)
    if in_frac and not frac_glyph:
        raise GlyphError("radix point with no fractional digits", position=len(text))
    raise AssertionError(f"glyph text without a fault: {quote(text)}")


def encode_canonical(x: SexNumber) -> str:
    """Canonical text form: sexagesits as decimal numbers, ``:`` separated,
    ``;`` radix point, e.g. ``1;59:0:15``."""
    return x.canonical_text()


def decode_canonical(text: str) -> SexNumber:
    """Parse the canonical text form (lossless inverse of `encode_canonical`).
    A sexagesit may carry leading zeros (``007`` is 7).

    The text is read by C-level string operations, whatever its length:
    ``partition`` at the radix point and ``split`` at the colons; every
    token, its leading zeros stripped when it has more than two characters,
    is zero-filled to two ASCII digits, and one ``bytes.fromhex`` and one
    ``bytes.translate`` through `exact._UNBCD` give the digit values, which
    `SexNumber.from_digits` checks are below BASE as it builds the number.
    Text this refuses is malformed, and `_canonical_fault` names its fault."""
    sign = -1 if text[:1] == "-" else 1
    int_part, point, frac_part = text[sign < 0 :].partition(";")
    tokens = int_part.split(":")
    frac_count = 0
    if point:
        frac_tokens = frac_part.split(":")
        frac_count = len(frac_tokens)
        tokens += frac_tokens
    numerals = "".join(map(str.zfill, tokens, repeat(2)))
    if len(numerals) != 2 * len(tokens):  # a token of three characters or more
        numerals = "".join(map(str.zfill, map(str.lstrip, tokens, repeat("0")), repeat(2)))
    if "" in tokens or len(numerals) != 2 * len(tokens) or not (numerals.isascii() and numerals.isdigit()):
        _canonical_fault(text)
    try:
        return SexNumber.from_digits(sign, bytes.fromhex(numerals).translate(_UNBCD), frac_count)
    except ValueError:  # a token of 60 to 99
        pass
    _canonical_fault(text)


def _canonical_fault(text: str):
    """Raise the `GlyphError` for the first fault of canonical text,
    scanning it one token at a time; it builds no digits.  Text without a
    fault is a defect of the caller, and fails an assertion."""
    n = len(text)
    i = 1 if text[:1] == "-" else 0
    in_frac = False
    while True:
        start = i
        while i < n and text[i].isascii() and text[i].isdigit():
            i += 1
        if i == start:
            raise GlyphError(f"expected sexagesit at position {start + 1}: {quote(text)}", position=start + 1)
        token = text[start:i]
        if len(token) > 2:
            token = token.lstrip("0") or "0"
        # a sexagesit has at most two significant digits, so a longer token is
        # out of range without converting it (and whatever its length)
        if len(token) > 2 or int(token) >= BASE:
            shown = token if len(token) <= QUOTE_CHARS else quote(token)
            raise DigitRangeError(f"sexagesit {shown} out of range at position {start + 1}", position=start + 1)
        if i == n:
            break
        if text[i] == ";":
            if in_frac:
                raise GlyphError(f"second radix point at position {i + 1}", position=i + 1)
            in_frac = True
        elif text[i] != ":":
            raise GlyphError(f"unexpected character {text[i]!r} at position {i + 1}", position=i + 1)
        i += 1
    raise AssertionError(f"canonical text without a fault: {quote(text)}")
