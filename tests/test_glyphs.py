"""Glyph codec and canonical text codec."""

import random

import pytest
from hypothesis import given

from conftest import sex_numbers
from sexagesimal import (
    DEFAULT_TABLE,
    DigitRangeError,
    GlyphTable,
    ParseError,
    SexNumber,
    UnknownGlyphError,
    decode_canonical,
    decode_glyphs,
    encode_canonical,
    encode_glyphs,
    from_sexagesimal,
)
from sexagesimal.exact import Rational


def test_digit_bijection():
    for value in range(60):
        x = SexNumber.from_digits(1, [value], 0)
        assert decode_glyphs(encode_glyphs(x)) == x


@pytest.mark.parametrize(
    "glyph,value",
    [("0", 0), ("9", 9), ("A", 10), ("Z", 35), ("α", 36), ("o", 50), ("ω", 59)],
)
def test_alphabet_anchors(glyph, value):
    assert DEFAULT_TABLE.glyph(value) == glyph
    assert DEFAULT_TABLE.value(glyph) == value


def test_case_sensitivity():
    assert DEFAULT_TABLE.value("o") == 50
    assert DEFAULT_TABLE.value("0") == 0
    assert DEFAULT_TABLE.value("V") == 31
    assert DEFAULT_TABLE.value("υ") == 55  # upsilon, no alias points at it
    assert "v" not in DEFAULT_TABLE.reverse and "v" not in DEFAULT_TABLE.aliases


class TestAliases:
    @pytest.mark.parametrize(
        "variant,value",
        [("ϕ", 56), ("ϵ", 40), ("ϑ", 43), ("ο", 50)],
    )
    def test_variant_decodes_like_canonical(self, variant, value):
        canonical = DEFAULT_TABLE.glyph(value)
        assert decode_glyphs(variant) == decode_glyphs(canonical)

    def test_encode_never_emits_aliases(self):
        emitted = {DEFAULT_TABLE.glyph(v) for v in range(60)}
        assert emitted.isdisjoint(DEFAULT_TABLE.aliases)
        assert DEFAULT_TABLE.glyph(56) == "φ"


class TestEncodeGlyphs:
    def test_tablet_short_side(self):
        assert encode_glyphs(SexNumber(1, (1, 59), 0)) == "1ω"

    def test_zero(self):
        assert encode_glyphs(SexNumber(0, (0,), 0)) == "0"

    def test_three_digit_integer(self):
        assert encode_glyphs(SexNumber.from_digits(1, [1, 22, 41], 0)) == "1Mζ"

    def test_sign_and_radix(self):
        assert encode_glyphs(SexNumber(-1, (1, 33, 45), 2)) == "-1;Xκ"


class TestDecodeGlyphs:
    def test_tablet_diagonal(self):
        assert from_sexagesimal(decode_glyphs("2ξ")) == 169

    def test_ratio_with_radix(self):
        assert from_sexagesimal(decode_glyphs("1;Xκ")) == Rational(25, 16)

    def test_unknown_glyph_position(self):
        with pytest.raises(UnknownGlyphError) as err:
            decode_glyphs("1vB")
        assert err.value.glyph == "v"
        assert err.value.position == 2
        assert "unknown glyph 'v' at position 2" in str(err.value)

    def test_every_latin_1_code_point_is_mapped(self):
        # str.translate leaves an unmapped code point as it is, and one
        # below 256 would then encode as a byte of its own value
        for table in (DEFAULT_TABLE, GlyphTable(aliases={})):
            assert set(table._bulk_map) >= set(range(256))

    def test_whitespace_ignored(self):
        assert decode_glyphs("1 ω 0 F") == decode_glyphs("1ω0F")

    @pytest.mark.parametrize("text", ["", "-", ";1", "1;;2", "1;", "1-2"])
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            decode_glyphs(text)

    def test_negative(self):
        assert from_sexagesimal(decode_glyphs("-1ω")) == -119


class TestCanonicalCodec:
    def test_ratio_round_trip(self):
        x = SexNumber(1, (1, 59, 0, 15), 3)
        assert encode_canonical(x) == "1;59:0:15"
        assert decode_canonical("1;59:0:15") == x

    def test_half(self):
        assert from_sexagesimal(decode_canonical("0;30")) == Rational(1, 2)

    def test_digit_out_of_range(self):
        with pytest.raises(DigitRangeError) as err:
            decode_canonical("1;60")
        assert err.value.position == 3

    @pytest.mark.parametrize("text", ["", "1:", ":1", "1;;2", "1;2;3", "1:x", "- 1"])
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            decode_canonical(text)

    def test_integer_and_sign(self):
        assert decode_canonical("2:49").to_rational() == 169
        assert decode_canonical("-2:49").to_rational() == -169

    def test_noncanonical_input_is_normalized(self):
        assert decode_canonical("0:1;30:0") == SexNumber(1, (1, 30), 1)


@given(sex_numbers())
def test_glyph_round_trip(x):
    assert decode_glyphs(encode_glyphs(x)) == x


@given(sex_numbers())
def test_canonical_round_trip(x):
    assert decode_canonical(encode_canonical(x)) == x


class TestGlyphTable:
    def test_rows_document_the_alphabet(self):
        rows = DEFAULT_TABLE.rows()
        assert len(rows) == 60
        assert rows[0] == (0, "0", "U+0030", "")
        assert rows[50] == (50, "o", "U+006F", "ο")
        assert rows[56] == (56, "φ", "U+03C6", "ϕ")

    def test_forward_must_cover_all_values(self):
        with pytest.raises(ValueError):
            GlyphTable(forward={0: "0"})

    def test_alias_may_not_shadow(self):
        forward = dict(DEFAULT_TABLE.forward)
        with pytest.raises(ValueError):
            GlyphTable(forward=forward, aliases={"A": 10})

    def test_alias_target_must_exist(self):
        forward = dict(DEFAULT_TABLE.forward)
        with pytest.raises(ValueError):
            GlyphTable(forward=forward, aliases={"ϕ": 99})

    def test_astral_table_round_trips_a_long_number(self):
        # cuneiform numerals, from U+12415 on, lie past the Basic
        # Multilingual Plane: four bytes a code point in a str
        table = GlyphTable(dict(enumerate(map(chr, range(0x12415, 0x12415 + 60)))), aliases={})
        rng = random.Random(12415)
        digits = [rng.randrange(1, 60)] + [rng.randrange(60) for _ in range(9_999)]
        x = SexNumber.from_digits(-1, digits, 4_000)
        text = encode_glyphs(x, table)
        glyphs = [chr(0x12415 + d) for d in digits]
        assert text == "-" + "".join(glyphs[:6_000]) + ";" + "".join(glyphs[6_000:])
        assert decode_glyphs(text, table) == x

    def test_fffe_glyph_renders_as_itself(self):
        # U+FFFE is a valid glyph, though codecs' charmap tables use it as
        # the mark of an unmapped byte
        forward = {**DEFAULT_TABLE.forward, 7: "\ufffe"}
        table = GlyphTable(forward)
        x = SexNumber.from_digits(1, [7, 1, 7, 59, 0, 7], 3)
        text = encode_glyphs(x, table)
        assert text == "\ufffe1\ufffe;ω0\ufffe"
        assert decode_glyphs(text, table) == x
