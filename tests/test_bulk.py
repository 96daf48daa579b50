"""Bulk digit kernels against the per-digit code they stand in for: the
decoders' C-level routes against their scanners, the packed-field fold and
split against Horner's rule, and the byte-sequence range check of
`SexNumber` against the digit-by-digit one."""

import random
import sys
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from sexagesimal import DEFAULT_TABLE, GlyphTable, ParseError, SexNumber, from_sexagesimal, glyphs
from sexagesimal.exact import _FOLD_DIGITS, _FOLD_LEAF, _digits_of_int, _int_of_digits, to_sexagesimal
from sexagesimal.glyphs import _BULK_CHARS, _bulk_canonical, _bulk_glyphs, decode_canonical, decode_glyphs


def _outcome(decode, text, *args):
    """The number a decoder returns, or the type, message and position of
    the parse error it raises."""
    try:
        return decode(text, *args)
    except ParseError as exc:
        return type(exc), str(exc), exc.position


def _scanned(decode, text, *args):
    """`_outcome` of the scanner alone: no text is long enough for the bulk
    route."""
    with mock.patch.object(glyphs, "_BULK_CHARS", sys.maxsize):
        return _outcome(decode, text, *args)


def _long(draw, pieces, separators, filler):
    """Text past `_BULK_CHARS`: an optional sign, then pieces joined by
    drawn separators, then valid filler until it is long enough."""
    sign = draw(st.sampled_from(["", "-", " -", "--"]))
    parts = draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=40))
    seps = draw(st.lists(st.sampled_from(separators), min_size=len(parts), max_size=len(parts)))
    text = sign + "".join(p + s for p, s in zip(parts, seps))
    while len(text) <= _BULK_CHARS:
        text = filler + text
    return text


# tokens: empty, the values 60 and 99, 007, a non-ASCII digit, a sign inside
_TOKENS = ["0", "1", "5", "07", "00", "10", "59", "", "60", "99", "007", "٣", "-", "- 1", " 1", "1-"]


@st.composite
def _canonical_texts(draw):
    return _long(draw, _TOKENS, [":", ":", ":", ";", ""], "1:")


# glyphs, aliases and spaces, and the unknown: Latin v, a code point below
# 60, one past Latin-1, ":", and a second "-" or ";"
_GLYPHS = [*DEFAULT_TABLE.forward.values(), *DEFAULT_TABLE.aliases, " ", "v", "\x05", ":", "Ω", "-", ";"]


@st.composite
def _glyph_texts(draw):
    return _long(draw, _GLYPHS, ["", "", "", " ", ";"], "1")


class TestDecodersAgainstScanners:
    @given(_canonical_texts())
    def test_canonical(self, text):
        assert _outcome(decode_canonical, text) == _scanned(decode_canonical, text)

    @given(_glyph_texts())
    def test_glyphs(self, text):
        assert _outcome(decode_glyphs, text) == _scanned(decode_glyphs, text)

    @pytest.mark.parametrize(
        "text",
        [
            "11:2:3:4:5:6:7:8:",  # trailing ':'
            "11:2:3:4:5:6:7:8;",  # trailing ';'
            "11:2:3:4;5:6:7;8:9",  # second ';'
            "11:2:3::4:5:6:7:8",  # empty token
            ":11:2:3:4:5:6:7:8",
            ";11:2:3:4:5:6:7:8",
            "11:2:3:4:5:6:7:60",  # the values 60 and 99
            "11:2:3:99;4:5:6:7",
            "11:2:3:4:5:6:7:8:٣",  # a non-ASCII digit
            "11:2:3:4-5:6:7:8:9",  # '-' inside
            "  -1:2:3:4:5:6:7:8",  # spaces before '-'
            "-11:2:3:4:5:6:7:8:9",
            "007:2:3:4:5:6:7:8",  # accepted by the scanner alone
            "11:2:3:4:5:6:7:0080",
            "0:0:0:0:0:0:0:0;0:0",
        ],
    )
    def test_canonical_cases(self, text):
        assert len(text) > _BULK_CHARS
        assert _outcome(decode_canonical, text) == _scanned(decode_canonical, text)

    @pytest.mark.parametrize(
        "text",
        [
            "1ω0F1ω0F1ω0F1ω0F;",  # trailing ';'
            "1ω0F1ω0F;1ω0F1ω0F;2",  # second ';'
            ";1ω0F1ω0F1ω0F1ω0F",
            "1ω0F1ω0F1ω-0F1ω0F",  # '-' inside
            "  -1ω0F1ω0F1ω0F1ω0F",  # spaces before '-'
            "- 1 ω 0 F 1 ω 0 F 1 ω",
            "ϕϵϑο ϕϵϑο ϕϵϑο ϕϵϑο;ο",  # aliases
            "1ω0F1ω0F1vω0F1ω0F",  # unknown glyphs
            "1ω0F1ω0F1Ωω0F1ω0F",
            "1ω0F1ω0F1:ω0F1ω0F",
            "1ω0F1ω0F1\x05ω0F1ω0F",
            "00000000000000000;0",
            "-                 ",
        ],
    )
    def test_glyph_cases(self, text):
        assert len(text) > _BULK_CHARS
        assert _outcome(decode_glyphs, text) == _scanned(decode_glyphs, text)

    def test_custom_table_with_separator_glyphs(self):
        # a table whose glyphs include ' ', '-' and ';': the scanner reads
        # these as space, sign and radix point first, and so does the bulk map
        forward = dict(DEFAULT_TABLE.forward)
        forward[1], forward[2], forward[3] = " ", "-", ";"
        table = GlyphTable(forward, {})
        for text in ["-5A5A5A5A5A5A5A5A5A", "5A5A5A5A5A5A-5A5A5A", "5A5A 5A5A5A;5A5A5A5A", "5A5A5A5A;5A5A;5A5A"]:
            assert _outcome(decode_glyphs, text, table) == _scanned(decode_glyphs, text, table)


class TestBulkRouteRuns:
    """Long valid text decodes with the scanners' constructor,
    `SexNumber.from_digits`, patched to raise; the bulk routes build through
    `SexNumber._from_digit_bytes`."""

    @pytest.fixture
    def no_scanners(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a scanner was called")

        monkeypatch.setattr(SexNumber, "from_digits", refuse)

    @pytest.mark.parametrize("n", [_BULK_CHARS, 1_000, 30_000])
    def test_long_numerals(self, no_scanners, n):
        rng = random.Random(n)
        digits = [rng.randrange(1, 60)] + [rng.randrange(60) for _ in range(n - 2)] + [rng.randrange(1, 60)]
        x = SexNumber(-1, tuple(digits), n // 4)
        assert decode_canonical(x.canonical_text()) == _bulk_canonical(x.canonical_text()) == x
        assert decode_glyphs(glyphs.encode_glyphs(x)) == x
        spaced = " ".join(glyphs.encode_glyphs(x)).replace("φ", "ϕ")
        assert decode_glyphs(spaced) == _bulk_glyphs(spaced, DEFAULT_TABLE) == x

    def test_zeros_are_trimmed(self, no_scanners):
        text = "0:0:0:0:1:0:0;0:30:0:0:0"
        assert decode_canonical(text) == SexNumber(1, (1, 0, 0, 0, 30), 2)
        assert decode_canonical("-" + text.replace("1", "0").replace("30", "0")) == SexNumber(0, (0,), 0)
        assert decode_glyphs("000001000;0U000000") == SexNumber(1, (1, 0, 0, 0, 0, 30), 2)


def _horner(digits, base):
    value = 0
    for d in digits:
        value = value * base + d
    return value


class TestPackedFold:
    @pytest.mark.parametrize("base", [10, 60])
    def test_against_horner(self, base):
        leaf = _FOLD_LEAF
        lengths = {1, 2, _FOLD_DIGITS - 1, _FOLD_DIGITS, _FOLD_DIGITS + 1, 2 * _FOLD_DIGITS + 1}
        for k in (1, 2, 3, 5, 16, 33, 64):
            lengths |= {k * leaf - 1, k * leaf, k * leaf + 1}
        rng = random.Random(base)
        for n in sorted(lengths):
            cases = [
                [0] * n,
                [base - 1] * n,
                [0] * (n // 2) + [rng.randrange(base) for _ in range(n - n // 2)],  # leading zeros
                [rng.randrange(base) for _ in range(n)],
            ]
            for digits in cases:
                value = _horner(digits, base)
                assert _int_of_digits(digits, base) == value, (n, digits[:3])
                assert _int_of_digits(tuple(digits), base) == value
                assert _int_of_digits(bytes(digits), base) == value
                padded = _digits_of_int(value, base, n)
                assert padded == digits
                assert isinstance(padded, list)

    @pytest.mark.parametrize("base", [10, 60])
    def test_split_leaf_edges(self, base):
        # values whose digits in the split's leaves of _FOLD_LEAF digits are
        # all base - 1, all 0 or 1, at every level of the packed split
        leaf = _FOLD_LEAF
        for k in (2, 3, 17, 64):
            for n in (base ** (k * leaf) - 1, base ** (k * leaf), base ** (k * leaf) + 1, base ** (k * leaf - 1)):
                digits = _digits_of_int(n, base)
                assert _horner(digits, base) == n
                assert digits[0] != 0
                assert _digits_of_int(n, base, len(digits) + 70) == [0] * 70 + digits

    @given(st.lists(st.integers(0, 59), min_size=_FOLD_DIGITS + 1, max_size=2_000), st.integers(0, 3))
    def test_random_sequences(self, digits, zeros):
        digits = [0] * zeros + digits
        value = _horner(digits, 60)
        assert _int_of_digits(digits) == value
        assert _digits_of_int(value, 60, len(digits)) == digits


class TestDigitBytes:
    @pytest.mark.parametrize("bad", [60, 99, 200, 255])
    def test_out_of_range_byte_is_refused_like_the_tuple(self, bad):
        digits = (1, 2, bad, 3)
        for given_digits in (bytes(digits), bytearray(digits)):
            for build in (SexNumber.from_digits, SexNumber):
                with pytest.raises(ValueError) as as_bytes:
                    build(1, given_digits, 1)
                with pytest.raises(ValueError) as as_tuple:
                    build(1, digits, 1)
                assert str(as_bytes.value) == str(as_tuple.value) == f"sexagesit out of range: {bad}"

    @pytest.mark.parametrize("bad", ["2", 2.0, None, -1, 60])
    def test_non_int_digit_is_still_refused(self, bad):
        with pytest.raises(ValueError, match="sexagesit out of range"):
            SexNumber(1, (1, bad), 0)
        with pytest.raises(ValueError, match="sexagesit out of range"):
            SexNumber.from_digits(1, [1, bad], 0)

    def test_digits_are_stored_as_a_tuple_of_ints(self):
        x = SexNumber(1, b"\x01\x1e", 1)
        assert x.digits == (1, 30) and type(x.digits) is tuple
        assert x == SexNumber(1, (1, 30), 1) and repr(x) == repr(SexNumber(1, (1, 30), 1))

    @given(st.lists(st.integers(0, 59), max_size=40), st.data())
    def test_byte_builder_matches_from_digits(self, digits, data):
        frac_count = data.draw(st.integers(0, len(digits)))
        sign = data.draw(st.sampled_from([-1, 1]))
        expected = SexNumber.from_digits(sign, digits, frac_count)
        for raw in (bytes(digits), bytearray(digits)):
            assert SexNumber._from_digit_bytes(sign, raw, frac_count) == expected

    def test_to_sexagesimal_round_trip_across_the_cutoffs(self):
        rng = random.Random(7)
        for n in (_FOLD_DIGITS - 1, _FOLD_DIGITS + 1, 3 * _FOLD_LEAF, 1_000):
            digits = [rng.randrange(1, 60)] + [rng.randrange(60) for _ in range(n - 2)] + [rng.randrange(1, 60)]
            x = SexNumber(1, tuple(digits), n // 3)
            number, info = to_sexagesimal(from_sexagesimal(x), x.frac_count)
            assert number == x and info.frac_len == x.frac_count
