"""Bulk digit kernels against the per-digit code they stand in for: the
decoders against reference scanners that build each number digit by digit,
the packed-field fold and split against Horner's rule, and `SexNumber`'s
byte-sequence builder and range check against the digit-by-digit ones."""

import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from conftest import assert_same_record
from sexagesimal import (
    DEFAULT_TABLE,
    GlyphTable,
    ParseError,
    SexFloat,
    SexNumber,
    exact,
    floating,
    from_sexagesimal,
    glyphs,
    normalize_float,
)
from sexagesimal.errors import QUOTE_CHARS, quote
from sexagesimal.exact import _FOLD_DIGITS, _FOLD_LEAF, _digits_of_int, _int_of_digits, to_sexagesimal
from sexagesimal.glyphs import DigitRangeError, GlyphError, UnknownGlyphError, decode_canonical, decode_glyphs


def _reference_from_digits(sign, digits, frac_count):
    """The canonical `SexNumber` of a digit sequence, trimmed one list item
    at a time."""
    digits = list(digits)
    if frac_count > len(digits):
        digits = [0] * (frac_count - len(digits)) + digits
    if sign == 0 or not any(digits):
        return SexNumber(0, (0,), 0)
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
    return SexNumber(1 if sign > 0 else -1, tuple(digits), frac_count)


def _reference_glyphs(text, table=DEFAULT_TABLE):
    """`decode_glyphs` as a scan of one character at a time."""
    sign = 1
    digits = []
    frac_start = None
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
    return _reference_from_digits(sign, digits, frac_count)


def _reference_canonical(text):
    """`decode_canonical` as a scan of one token at a time."""
    s = text
    i = 0
    n = len(s)
    sign = 1
    if i < n and s[i] == "-":
        sign = -1
        i += 1
    digits = []
    frac_start = None
    while True:
        start = i
        while i < n and s[i].isascii() and s[i].isdigit():
            i += 1
        if i == start:
            raise GlyphError(f"expected sexagesit at position {start + 1}: {quote(text)}", position=start + 1)
        token = s[start:i]
        if len(token) > 2:
            token = token.lstrip("0") or "0"
        value = int(token) if len(token) <= 2 else 60
        if value >= 60:
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
    return _reference_from_digits(sign, digits, frac_count)


def _outcome(decode, text, *args):
    """The number a decoder returns, or the type, message and position of
    the parse error it raises."""
    try:
        return decode(text, *args)
    except ParseError as exc:
        return type(exc), str(exc), exc.position


def _assert_prefixes_match(decode, reference, text, *args):
    """The decoder and its reference agree on every prefix of text, from
    the empty one up to text itself."""
    for stop in range(len(text) + 1):
        prefix = text[:stop]
        assert _outcome(decode, prefix, *args) == _outcome(reference, prefix, *args), prefix


def _texts(draw, pieces, separators):
    """An optional sign, then zero or more pieces joined by drawn
    separators: text of any length from 0 characters up."""
    sign = draw(st.sampled_from(["", "-", " -", "  -", "--"]))
    parts = draw(st.lists(st.sampled_from(pieces), max_size=40))
    seps = draw(st.lists(st.sampled_from(separators), min_size=len(parts), max_size=len(parts)))
    return sign + "".join(p + s for p, s in zip(parts, seps))


# tokens: empty, the values 60 and 99, leading zeros, a non-ASCII digit, a
# sign inside
_TOKENS = ["0", "1", "5", "07", "00", "10", "59", "", "60", "99", "007", "0080", "000", "٣", "-", "- 1", " 1", "1-"]


@st.composite
def _canonical_texts(draw):
    return _texts(draw, _TOKENS, [":", ":", ":", ";", ""])


# glyphs, aliases and spaces, and the unknown: Latin v, a code point below
# 60, "<" (code point 60), "þ" and "ÿ" (254 and 255), one past Latin-1,
# ":", and a second "-" or ";"
_GLYPHS = [*DEFAULT_TABLE.forward.values(), *DEFAULT_TABLE.aliases, " ", "v", "\x05", "<", "þ", "ÿ", ":", "Ω", "-", ";"]


@st.composite
def _glyph_texts(draw):
    return _texts(draw, _GLYPHS, ["", "", "", " ", ";"])


class TestDecodersAgainstScanners:
    @given(_canonical_texts())
    def test_canonical(self, text):
        assert _outcome(decode_canonical, text) == _outcome(_reference_canonical, text)

    @given(_glyph_texts())
    def test_glyphs(self, text):
        assert _outcome(decode_glyphs, text) == _outcome(_reference_glyphs, text)

    def test_short_texts_exhaustively(self):
        # every text of up to three characters over each alphabet
        canonical = "0159:;-٣ "
        glyph_chars = "01ωϕ ;-v:Ω"
        for n in range(4):
            for chars in product(canonical, repeat=n):
                text = "".join(chars)
                assert _outcome(decode_canonical, text) == _outcome(_reference_canonical, text), text
            for chars in product(glyph_chars, repeat=n):
                text = "".join(chars)
                assert _outcome(decode_glyphs, text) == _outcome(_reference_glyphs, text), text

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
            "007:2:3:4:5:6:7:8",  # leading zeros
            "11:2:3:4:5:6:7:0080",
            "0:0:0:0:0:0:0:0;0:0",
            "007",
            "0080",
            "-000;0007:00",
            "1;30",
        ],
    )
    def test_canonical_cases(self, text):
        _assert_prefixes_match(decode_canonical, _reference_canonical, text)

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
            "  -1ω",
            " - -1",
            "1 ; 3 0",
            # "þ" and "ÿ" have the code points 254 and 255, the bytes that
            # a radix point and an unknown character are read as; "<" is 60
            "1ω0F1ω0F1þω0F1ω0F",
            "1ω0F1ω0F;1ω0Fÿ1ω0F",
            " -<1ω0F",
        ],
    )
    def test_glyph_cases(self, text):
        _assert_prefixes_match(decode_glyphs, _reference_glyphs, text)

    def test_custom_table_with_separator_glyphs(self):
        # a table whose glyphs include ' ', '-' and ';': the scanner reads
        # these as space, sign and radix point first, and so does the bulk map
        forward = dict(DEFAULT_TABLE.forward)
        forward[1], forward[2], forward[3] = " ", "-", ";"
        table = GlyphTable(forward, {})
        for text in ["-5A5A5A5A5A5A5A5A5A", "5A5A5A5A5A5A-5A5A5A", "5A5A 5A5A5A;5A5A5A5A", "5A5A5A5A;5A5A;5A5A"]:
            _assert_prefixes_match(decode_glyphs, _reference_glyphs, text, table)


def _scanner_called(*args):
    raise AssertionError("a scanner was called")


class TestBulkRouteRuns:
    """Valid text of any length decodes with the scanners, which only
    diagnose, patched to raise; and a scanner that finds no fault fails
    loudly instead of returning."""

    @pytest.fixture
    def no_scanners(self, monkeypatch):
        monkeypatch.setattr(glyphs, "_glyph_fault", _scanner_called)
        monkeypatch.setattr(glyphs, "_canonical_fault", _scanner_called)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 1_000, 30_000])
    def test_long_numerals(self, no_scanners, n):
        rng = random.Random(n)
        digits = [rng.randrange(1, 60) for _ in range(n)]
        digits[1:-1] = [rng.randrange(60) for _ in range(n - 2)]
        x = SexNumber(-1, tuple(digits), n // 4)
        for number in (x, SexNumber(1, x.digits, x.frac_count)):
            assert decode_canonical(number.canonical_text()) == number
            assert decode_glyphs(glyphs.encode_glyphs(number)) == number
        spaced = "  - " + " ".join(glyphs.encode_glyphs(x)[1:]).replace("φ", "ϕ")
        assert decode_glyphs(spaced) == x
        padded = "-" + ":".join("%03d" % d for d in x.int_digits) + ";" + ":".join(map(str, x.frac_digits))
        assert decode_canonical(padded.rstrip(";")) == x

    def test_zeros_are_trimmed(self, no_scanners):
        text = "0:0:0:0:1:0:0;0:30:0:0:0"
        assert decode_canonical(text) == SexNumber(1, (1, 0, 0, 0, 30), 2)
        assert decode_canonical("-" + text.replace("1", "0").replace("30", "0")) == SexNumber(0, (0,), 0)
        assert decode_glyphs("000001000;0U000000") == SexNumber(1, (1, 0, 0, 0, 0, 30), 2)

    def test_leading_zero_tokens_and_spaced_signs(self, no_scanners):
        assert decode_canonical("007") == SexNumber(1, (7,), 0)
        assert decode_canonical("-0000059;000:030") == SexNumber(-1, (59, 0, 30), 2)
        assert decode_canonical("0" * 5_000 + "1") == SexNumber(1, (1,), 0)
        assert decode_glyphs("  -1ω") == SexNumber(-1, (1, 59), 0)
        assert decode_glyphs(" - 1 ; U ") == SexNumber(-1, (1, 30), 1)

    @pytest.mark.parametrize("text", ["1;30", "-0:7", "007"])
    def test_canonical_scanner_without_a_fault_fails_loudly(self, text):
        with pytest.raises(AssertionError, match="without a fault"):
            glyphs._canonical_fault(text)

    @pytest.mark.parametrize("text", ["1U", "  -1ω", "1;U"])
    def test_glyph_scanner_without_a_fault_fails_loudly(self, text):
        with pytest.raises(AssertionError, match="without a fault"):
            glyphs._glyph_fault(text, DEFAULT_TABLE)


def _horner(digits, base):
    value = 0
    for d in digits:
        value = value * base + d
    return value


class TestPackedFold:
    @pytest.mark.parametrize("base", [7, 10, 16, 60])
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
                assert padded == bytes(digits)
                assert isinstance(padded, bytes)

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
                assert _digits_of_int(n, base, len(digits) + 70) == bytes(70) + digits

    @given(st.lists(st.integers(0, 59), min_size=_FOLD_DIGITS + 1, max_size=2_000), st.integers(0, 3))
    def test_random_sequences(self, digits, zeros):
        digits = [0] * zeros + digits
        value = _horner(digits, 60)
        assert _int_of_digits(digits) == value
        assert _digits_of_int(value, 60, len(digits)) == bytes(digits)


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
        # the builder against the reference that trims a list one item at a
        # time and builds through the checking constructor, for every kind
        # of digit sequence, sign 0 and a frac_count past the digits: the
        # builder skips the constructor's checks, and its record must be the
        # same value in every respect
        frac_count = data.draw(st.integers(0, len(digits) + 3))
        sign = data.draw(st.sampled_from([-1, 0, 1, 5]))
        expected = _reference_from_digits(sign, digits, frac_count)
        for raw in (digits, tuple(digits), iter(digits), bytes(digits), bytearray(digits)):
            built = SexNumber.from_digits(sign, raw, frac_count)
            assert_same_record(built, expected)
            assert type(built.digits) is tuple and all(type(d) is int for d in built.digits)

    @pytest.mark.parametrize("digits", [(1, 2, 60, 3), (1, 2, 255, 3), (0, None), (0, 70, 300)])
    def test_builder_refuses_like_the_constructor(self, digits):
        # the builder checks each digit once, by its own code; the error
        # must be the constructor's, naming the first bad digit
        with pytest.raises(ValueError) as checked:
            SexNumber(1, digits, 1)
        inputs = [list(digits), digits, iter(digits)]
        if all(isinstance(d, int) and 0 <= d < 256 for d in digits):
            inputs += [bytes(digits), bytearray(digits)]
        for raw in inputs:
            with pytest.raises(ValueError) as built:
                SexNumber.from_digits(1, raw, 1)
            assert type(built.value) is type(checked.value)
            assert str(built.value) == str(checked.value)

    def test_to_sexagesimal_round_trip_across_the_cutoffs(self):
        rng = random.Random(7)
        for n in (_FOLD_DIGITS - 1, _FOLD_DIGITS + 1, 3 * _FOLD_LEAF, 1_000):
            digits = [rng.randrange(1, 60)] + [rng.randrange(60) for _ in range(n - 2)] + [rng.randrange(1, 60)]
            x = SexNumber(1, tuple(digits), n // 3)
            number, info = to_sexagesimal(from_sexagesimal(x), x.frac_count)
            assert number == x and info.frac_len == x.frac_count


class TestNoMaxOverDigitRuns:
    """A digit run is range-checked by one C-level ``translate``, never by
    ``max`` over it: a count by patching the ``max`` name in the modules
    that build and decode numbers, which does not depend on the host's
    speed.  ``max`` of a few values (a bit count, say) stays allowed."""

    def test_long_numerals_pass_no_run_to_max(self, monkeypatch):
        runs = []

        def counted(*args, **kwargs):
            # one iterable argument is a run; one without a length counts as long
            if len(args) == 1:
                runs.append(len(args[0]) if hasattr(args[0], "__len__") else -1)
            return max(*args, **kwargs)

        for module in (exact, glyphs, floating):
            monkeypatch.setattr(module, "max", counted, raising=False)
        n = 100_000
        rng = random.Random(n)
        digits = bytes([rng.randrange(1, 60)] + [rng.randrange(60) for _ in range(n - 2)] + [rng.randrange(1, 60)])
        x = SexNumber(-1, digits, n // 3)
        value = from_sexagesimal(x)
        number, _ = to_sexagesimal(value, x.frac_count)
        assert number == x
        assert decode_canonical(number.canonical_text()) == x
        assert decode_glyphs(glyphs.encode_glyphs(number)) == x
        assert SexNumber.from_digits(-1, digits, n // 3) == x
        f = normalize_float(value, n)
        assert SexFloat.from_sex_number(x, n) == f
        long_runs = [k for k in runs if k > 64 or k < 0]
        assert not long_runs, long_runs[:3]
