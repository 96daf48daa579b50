"""Scientific glyph encoding and the constants verification report."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sexagesimal import (
    ConstantEntry,
    DomainError,
    decode_glyphs,
    encode_scientific,
    from_sexagesimal,
    load_constants,
    render_report,
    verify_constant,
    verify_table,
)
from sexagesimal.constants import MATCH, MISMATCH, UNDECODABLE, _parse_scale
from sexagesimal.glyphs import DEFAULT_TABLE, UnknownGlyphError

DATA = Path(__file__).parent / "data"


def _entry_by_symbol(symbol):
    for entry in load_constants():
        if entry.symbol == symbol:
            return entry
    raise LookupError(symbol)


class TestEncodeScientific:
    def test_speed_of_light_against_division_oracle(self):
        # oracle: repeated division of the decimal integer by 60
        n, oracle = 299792458, []
        while n:
            oracle.append(n % 60)
            n //= 60
        oracle.reverse()
        glyphs, exponent, notation = encode_scientific(Fraction(299792458), 5)
        assert [DEFAULT_TABLE.value(g) for g in glyphs] == oracle == [23, 7, 55, 40, 58]
        assert glyphs == "N7υεψ"
        assert exponent == 0 and notation == ""

    def test_exact_power_of_sixty(self):
        assert encode_scientific(Fraction(3600), 8) == ("1", 2, "10^{2}")

    def test_mantissa_interval_boundary(self):
        # 1/60 normalizes to mantissa 0;1 with float exponent 0, which the
        # integer-scaled notation renders as 1 * 60^-1
        glyphs, exponent, notation = encode_scientific(Fraction(1, 60), 8)
        assert (glyphs, exponent, notation) == ("1", -1, "10^{-1}")

    def test_planck_scale_renders_in_glyphs(self):
        glyphs, exponent, notation = encode_scientific(Fraction("6.582119514e-22"), 10)
        assert exponent == -21
        assert notation == "10^{-L}"
        assert glyphs == "1Pψ1MYMξ38"

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            encode_scientific(Fraction(0), 5)

    @given(
        st.fractions(min_value=Fraction(1, 10**6), max_value=10**12, max_denominator=10**6),
        st.integers(1, 10),
    )
    def test_self_consistency(self, x, precision):
        glyphs, exponent, notation = encode_scientific(x, precision)
        value = from_sexagesimal(decode_glyphs(glyphs)) * Fraction(60) ** exponent
        assert encode_scientific(value, precision) == (glyphs, exponent, notation)


class TestParseScale:
    def test_named_glyph(self):
        assert _parse_scale("10^{-L}", DEFAULT_TABLE) == -21
        assert _parse_scale("10^{-5}", DEFAULT_TABLE) == -5
        assert _parse_scale("10^{2}", DEFAULT_TABLE) == 2

    def test_malformed(self):
        with pytest.raises(DomainError):
            _parse_scale("60^{-5}", DEFAULT_TABLE)


class TestVerifyConstant:
    def test_speed_of_light_single_position_mismatch(self):
        status = verify_constant(_entry_by_symbol("c"))
        assert status.kind == MISMATCH
        assert status.digit_diffs == ((3, 48, 55),)
        assert status.published_scale == status.derived_scale == 0

    def test_standard_gravity_matches(self):
        status = verify_constant(_entry_by_symbol("g_N"))
        assert status.kind == MATCH
        assert status.derived_digits == (9, 48, 23, 56, 24, 0)
        assert status.derived_scale == -5

    def test_boltzmann_undecodable(self):
        status = verify_constant(_entry_by_symbol("k"))
        assert status.kind == UNDECODABLE
        assert status.glyph == "v"
        assert status.position == 2

    def test_proton_and_atomic_mass_undecodable(self):
        proton = verify_constant(_entry_by_symbol("m_p"))
        amu = verify_constant(_entry_by_symbol("u"))
        assert (proton.glyph, proton.position) == ("y", 2)
        assert (amu.glyph, amu.position) == ("y", 4)

    def test_avogadro_missing_exponent_reported(self):
        status = verify_constant(_entry_by_symbol("N_A"))
        assert status.kind == MISMATCH
        assert status.published_scale == 0
        assert status.derived_scale == 3
        # the leading sexagesits still agree
        assert status.published_digits[:4] == status.derived_digits[:4] == (4, 36, 39, 11)

    def test_deuteron_matches(self):
        assert verify_constant(_entry_by_symbol("m_d")).kind == MATCH

    def test_precision_override_shortens_derivation(self):
        status = verify_constant(_entry_by_symbol("c"), precision=3)
        assert status.derived_digits == (23, 7, 55)
        # the two published digits beyond the derivation count as differences
        assert [d.position for d in status.digit_diffs] == [3, 4, 5]
        assert status.digit_diffs[1] == (4, 40, None)


class TestVerifyTable:
    def test_totality_and_counts(self):
        report = verify_table()
        assert len(report.statuses) == 13
        assert [s.entry.name for s in report.statuses] == [e.name for e in load_constants()]
        assert report.count(MATCH) == 4
        assert report.count(MISMATCH) == 6
        assert report.count(UNDECODABLE) == 3

    def test_empty_dataset(self):
        report = verify_table([])
        assert report.statuses == ()
        assert report.summary == "0 entries, 0 match, 0 mismatch, 0 undecodable"

    def test_single_power_of_sixty_matches(self):
        entry = ConstantEntry(
            name="one sixty squared",
            symbol="t",
            glyphs="1",
            exponent_glyphs="10^{2}",
            unit="-",
            reference_value=Fraction(3600),
            reference_source="synthetic",
        )
        report = verify_table([entry])
        assert [s.kind for s in report.statuses] == [MATCH]

    @pytest.mark.parametrize("glyphs", ["", "  "])
    def test_blank_glyphs_are_a_status(self, glyphs):
        # no glyphs publish no digit count, so nothing is derived
        entry = ConstantEntry("blank", "b", glyphs, None, "-", Fraction(3), "synthetic")
        status = verify_constant(entry)
        assert (status.kind, status.glyph, status.derived_digits) == (UNDECODABLE, None, None)
        report = verify_table([entry, _entry_by_symbol("g_N")])
        assert [s.kind for s in report.statuses] == [UNDECODABLE, MATCH]
        assert render_report(report).splitlines()[0].endswith("undecodable  no glyphs")
        assert render_report(report, machine=True).splitlines()[0].endswith("\tno glyphs")
        # an explicit digit count still derives, and every derived digit differs
        assert verify_constant(entry, precision=2).kind == MISMATCH

    def test_human_report_matches_fixture(self):
        got = render_report(verify_table())
        assert got == (DATA / "constants_report.txt").read_text(encoding="utf-8")

    def test_machine_report_is_one_record_per_line(self):
        text = render_report(verify_table(), machine=True)
        lines = text.rstrip("\n").split("\n")
        assert len(lines) == 13
        assert all(len(line.split("\t")) == 8 for line in lines)


class TestDataset:
    def test_entries_load_with_exact_references(self):
        entries = load_constants()
        assert len(entries) == 13
        c = _entry_by_symbol("c")
        assert c.reference_value == 299792458
        assert c.exponent_glyphs is None
        g = _entry_by_symbol("g_N")
        assert g.reference_value == Fraction(980665, 100000)
        hbar = _entry_by_symbol("hbar")
        assert hbar.exponent_glyphs == "10^{-L}"
        assert hbar.reference_value == Fraction(6582119514, 10**31)

    def test_reference_values_positive(self):
        assert all(e.reference_value > 0 for e in load_constants())

    def test_dataset_file_schema(self):
        from importlib.resources import files

        text = files("sexagesimal").joinpath("data/constants60.tsv").read_text("utf-8")
        rows = [line for line in text.splitlines() if line and not line.startswith("#")]
        assert len(rows) == 13
        for line in rows:
            fields = line.split("\t")
            assert len(fields) == 7
            assert fields[3] == "" or fields[3].startswith("10^{")

    def test_entry_invariant(self):
        with pytest.raises(ValueError):
            ConstantEntry("x", "x", "1", None, "-", Fraction(-1), "synthetic")


class TestRawGlyphDecoding:
    # published strings are decoded as printed: unlike decode_glyphs, a sign
    # or radix point is not part of the notation, and nothing is normalized
    @pytest.mark.parametrize("glyphs", ["5-3", "5;3"])
    def test_sign_and_radix_point_are_undecodable(self, glyphs):
        entry = ConstantEntry("test", "t", glyphs, None, "1", Fraction(5), "test")
        status = verify_constant(entry)
        assert status.kind == UNDECODABLE
        assert (status.glyph, status.position) == (glyphs[1], 2)

    def test_leading_zero_is_kept(self):
        entry = ConstantEntry("test", "t", "0 5", None, "1", Fraction(5), "test")
        status = verify_constant(entry)
        assert status.published_digits == (0, 5)
        assert decode_glyphs("0 5").digits == (5,)

    def test_scale_glyphs_decode_the_same_way(self):
        assert _parse_scale("10^{-0 5}", DEFAULT_TABLE) == -5
        with pytest.raises(UnknownGlyphError) as err:
            _parse_scale("10^{5;3}", DEFAULT_TABLE)
        assert (err.value.glyph, err.value.position) == (";", 2)
