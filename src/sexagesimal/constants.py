"""Digit-level verification of the embedded physical-constants table.

Each embedded entry carries a published glyph string, an optional published
scale notation (``10^{-L}`` meaning sixty to the power -(value of L),
applied to the glyphs read as an integer-part numeral), and an independent
reference decimal value.  Verification re-derives the encoding from the
reference value at the published digit count and reports match, per-digit
mismatch, or undecodable -- published strings are never "corrected".
"""

from collections import namedtuple
from fractions import Fraction

from .errors import DomainError
from .exact import TRUNC, _diff_digits, _digits_of_int, _int_of_digits, _rational, _Record, _render, parse_decimal
from .floating import normalize_float
from .glyphs import DEFAULT_TABLE, GlyphTable, UnknownGlyphError, _decode_raw, _read_tsv

_CONSTANTS_RESOURCE = "data/constants60.tsv"

MATCH = "match"
MISMATCH = "mismatch"
UNDECODABLE = "undecodable"


class ConstantEntry(_Record):
    name: str
    symbol: str
    glyphs: str
    exponent_glyphs: str | None
    unit: str
    reference_value: Fraction
    reference_source: str

    def _check(self):
        if self.reference_value <= 0:
            raise ValueError("reference value must be positive")


# position is the 1-based sexagesit position in the published string;
# published and derived are the digits there, None past a string's end
DigitDiff = namedtuple("DigitDiff", ["position", "published", "derived"])


class EntryStatus(_Record):
    """Verification outcome for one entry."""

    entry: ConstantEntry
    kind: str
    published_digits: tuple[int, ...] | None = None
    derived_digits: tuple[int, ...] | None = None
    published_scale: int | None = None
    derived_scale: int | None = None
    digit_diffs: tuple[DigitDiff, ...] = ()
    glyph: str | None = None  # offending glyph when undecodable
    position: int | None = None


class VerificationReport(_Record):
    statuses: tuple[EntryStatus, ...]

    def count(self, kind: str) -> int:
        return sum(1 for s in self.statuses if s.kind == kind)

    @property
    def summary(self) -> str:
        return (
            f"{len(self.statuses)} entries, {self.count(MATCH)} match, "
            f"{self.count(MISMATCH)} mismatch, {self.count(UNDECODABLE)} undecodable"
        )


def load_constants() -> list[ConstantEntry]:
    """The embedded constants table, in published order."""
    return [
        ConstantEntry(
            name=name,
            symbol=symbol,
            glyphs=glyphs,
            exponent_glyphs=exponent or None,
            unit=unit,
            reference_value=parse_decimal(reference),
            reference_source=source,
        )
        for name, symbol, glyphs, exponent, unit, reference, source in _read_tsv(_CONSTANTS_RESOURCE)
    ]


def _parse_scale(notation: str, table: GlyphTable) -> int:
    """``10^{-L}`` -> -21 etc.; the braces hold a glyph-coded integer."""
    if not (notation.startswith("10^{") and notation.endswith("}")):
        raise DomainError(f"malformed exponent notation {notation!r}")
    inner = notation[4:-1]
    sign = 1
    if inner.startswith("-"):
        sign = -1
        inner = inner[1:]
    digits = _decode_raw(inner, table)
    if not digits:
        raise DomainError(f"empty exponent in {notation!r}")
    return sign * _int_of_digits(digits)


def encode_scientific(
    x: Fraction,
    precision: int,
    mode: str = TRUNC,
    table: GlyphTable = DEFAULT_TABLE,
) -> tuple[str, int, str]:
    """Encode a positive rational as (mantissa glyphs, exponent, exponent
    notation) with value ~= glyphs-as-integer * 60**exponent.

    The mantissa keeps at most ``precision`` sexagesits (leading sexagesit
    nonzero, trailing zeros dropped); the notation renders the exponent in
    glyphs, e.g. ``10^{-L}`` for -21, empty for 0.
    """
    x = _rational(x)
    if x.numerator <= 0:
        raise DomainError("scientific encoding requires a positive value")
    f = normalize_float(x, precision, mode)
    # the leading sexagesit is nonzero, so some digit remains
    digits = bytes(f.mantissa).rstrip(b"\0")
    exponent = f.exponent - len(digits)
    glyphs = _render(1, digits, symbols=table.forward)
    if exponent == 0:
        notation = ""
    else:
        mag = _render(exponent, _digits_of_int(abs(exponent)), symbols=table.forward)
        notation = "10^{" + mag + "}"
    return glyphs, exponent, notation


def verify_constant(
    entry: ConstantEntry,
    precision: int | None = None,
    table: GlyphTable = DEFAULT_TABLE,
) -> EntryStatus:
    """Re-derive one entry from its reference value and compare digit-by-digit
    at the published digit count (or ``precision`` when given).  An
    out-of-alphabet glyph, or no glyphs at all, is a status, not an error."""
    try:
        published = _decode_raw(entry.glyphs, table)
        if entry.exponent_glyphs is None:
            published_scale = 0
        else:
            published_scale = _parse_scale(entry.exponent_glyphs, table)
    except UnknownGlyphError as exc:
        return EntryStatus(entry, UNDECODABLE, glyph=exc.glyph, position=exc.position)
    if precision is None:
        if not published:
            # blank glyphs publish no digit count to derive at
            return EntryStatus(entry, UNDECODABLE)
        precision = len(published)
    f = normalize_float(entry.reference_value, precision, TRUNC)
    derived = f.mantissa
    derived_scale = f.exponent - precision
    diffs = _diff_digits(published, derived, DigitDiff)
    kind = MATCH if not diffs and published_scale == derived_scale else MISMATCH
    return EntryStatus(
        entry,
        kind,
        published_digits=published,
        derived_digits=derived,
        published_scale=published_scale,
        derived_scale=derived_scale,
        digit_diffs=diffs,
    )


def verify_table(entries: list[ConstantEntry] | None = None) -> VerificationReport:
    """Verify every entry, in table order; never aborts on bad glyphs."""
    if entries is None:
        entries = load_constants()
    return VerificationReport(verify_constant(e) for e in entries)


def _scale_text(scale: int) -> str:
    return f"60^{scale}"


def _digit_csv(digits) -> str:
    return ",".join(str(d) for d in digits)


def _status_detail(s: EntryStatus) -> str:
    if s.kind == UNDECODABLE:
        return "no glyphs" if s.glyph is None else f"glyph {s.glyph!r} at position {s.position}"
    parts = []
    if s.digit_diffs:
        pos = _digit_csv(d.position for d in s.digit_diffs)
        pub = _digit_csv("-" if d.published is None else d.published for d in s.digit_diffs)
        drv = _digit_csv("-" if d.derived is None else d.derived for d in s.digit_diffs)
        noun = "sexagesit" if len(s.digit_diffs) == 1 else "sexagesits"
        parts.append(f"{noun} {pos}: published {pub} vs derived {drv}")
    if s.published_scale != s.derived_scale:
        parts.append(
            f"scale: published {_scale_text(s.published_scale)}"
            f" vs derived {_scale_text(s.derived_scale)}"
        )
    return "; ".join(parts) if parts else "all sexagesits and scale agree"


def render_report(report: VerificationReport, machine: bool = False, table: GlyphTable = DEFAULT_TABLE) -> str:
    """Human-readable table or machine-readable (one tab-separated record
    per line) rendering of a verification report."""
    lines = []
    if machine:
        for s in report.statuses:
            derived = _render(1, s.derived_digits or (), symbols=table.forward)
            lines.append(
                "\t".join(
                    (
                        s.entry.name,
                        s.entry.symbol,
                        s.kind,
                        s.entry.glyphs,
                        "" if s.published_scale is None else str(s.published_scale),
                        derived,
                        "" if s.derived_scale is None else str(s.derived_scale),
                        _status_detail(s),
                    )
                )
            )
        return "\n".join(lines) + "\n"
    width = max(len(s.entry.name) for s in report.statuses) if report.statuses else 4
    for i, s in enumerate(report.statuses, start=1):
        lines.append(f"{i:2d}  {s.entry.name:<{width}}  {s.kind:<11}  {_status_detail(s)}")
    lines.append("summary: " + report.summary)
    return "\n".join(lines) + "\n"
