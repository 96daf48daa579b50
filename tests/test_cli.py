"""Golden-file and exit-code contract for the command line."""

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import run_python
from sexagesimal import exact
from sexagesimal.cli import main

DATA = Path(__file__).parent / "data" / "cli"

GOLDEN_CASES = {
    "convert_glyph": ["convert", "--to", "glyph", "1.5625"],
    "convert_decimal": ["convert", "--from", "canonical", "--to", "decimal", "1;30"],
    "convert_from_glyph": ["convert", "--from", "glyph", "--to", "canonical", "2ξ"],
    "convert_decimal_repetend": ["convert", "--from", "canonical", "--to", "decimal", "0;20"],
    "arith_add": ["arith", "add", "0.25", "0.5"],
    "arith_div": ["arith", "div", "1", "7"],
    "sqrt_2": ["sqrt", "--p", "8", "2"],
    "sqrt_glyph": ["sqrt", "--p", "8", "--to", "glyph", "2"],
    "area_345": ["area", "3", "4", "5"],
    "epsilon_8": ["epsilon", "--p", "8"],
    "epsilon_1": ["epsilon", "--p", "1"],
    "divisors_60": ["divisors", "60"],
    "divisors_60_machine": ["divisors", "--format", "machine", "60"],
    "plimpton_check": ["plimpton", "--check"],
    "plimpton_machine": ["plimpton", "--format", "machine"],
    "plimpton_a2b2": ["plimpton", "--ratio", "a2b2"],
    "plimpton_generators": ["plimpton", "--generators", "12", "5"],
    "constants_human": ["constants"],
    "constants_machine": ["constants", "--format", "machine"],
    "constants_encode": ["constants", "--encode", "299792458"],
    "constants_encode_planck": ["constants", "--encode", "6.582119514e-22", "--p", "10"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(name, capsys):
    argv = GOLDEN_CASES[name]
    expected = (DATA / f"{name}.txt").read_text(encoding="utf-8")

    assert main(argv) == 0
    first = capsys.readouterr().out
    assert first == expected

    # identical invocations are byte-identical
    assert main(argv) == 0
    assert capsys.readouterr().out == first


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        assert main(["arith", "div", "1", "0"]) == 1
        err = capsys.readouterr().err
        assert "error (exact): division by zero" in err

    def test_parse_error_is_one(self, capsys):
        assert main(["convert", "1..5"]) == 1
        assert "error (exact)" in capsys.readouterr().err

    def test_glyph_error_names_codec(self, capsys):
        assert main(["convert", "--from", "glyph", "1vB"]) == 1
        err = capsys.readouterr().err
        assert "error (glyphs): unknown glyph 'v' at position 2" in err

    def test_canonical_range_error(self, capsys):
        assert main(["convert", "--from", "canonical", "1;60"]) == 1
        assert "error (glyphs)" in capsys.readouterr().err

    def test_sqrt_domain_error(self, capsys):
        assert main(["sqrt", "0"]) == 1
        assert "error (algorithms)" in capsys.readouterr().err

    def test_area_domain_error(self, capsys):
        assert main(["area", "1", "1", "3"]) == 1
        assert "error (algorithms)" in capsys.readouterr().err

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nosuchcommand"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_precision_out_of_bounds_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["epsilon", "--p", "65"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()

    @given(st.text(max_size=20))
    def test_exit_codes_over_arbitrary_input(self, text):
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(["convert", text])
        except SystemExit as exc:  # argparse usage error for option-like input
            code = exc.code
        assert code in (0, 1, 2)


# every public operation must be reachable from at least one subcommand
OPERATION_COMMANDS = {
    "parse_decimal": ["convert", "1.5625"],
    "rat_arith": ["arith", "mul", "2", "3"],
    "int_sqrt": ["plimpton", "--check"],
    "to_sexagesimal": ["convert", "--to", "canonical", "1.5625"],
    "from_sexagesimal": ["convert", "--from", "canonical", "0;30"],
    "to_decimal": ["convert", "--from", "canonical", "--to", "decimal", "0;30"],
    "normalize_float": ["sqrt", "2"],
    "machine_epsilon": ["epsilon", "--p", "8"],
    "encode_glyphs": ["convert", "--to", "glyph", "119"],
    "decode_glyphs": ["convert", "--from", "glyph", "1ω"],
    "encode_canonical": ["convert", "--to", "canonical", "119"],
    "decode_canonical": ["convert", "--from", "canonical", "1:59"],
    "heron_sqrt": ["sqrt", "2"],
    "heron_area": ["area", "3", "4", "5"],
    "nontrivial_divisors": ["divisors", "60"],
    "is_regular": ["divisors", "60"],
    "triple_from_generators": ["plimpton", "--generators", "2", "1"],
    "plimpton_row_compute": ["plimpton", "--check"],
    "reconstruct_table": ["plimpton", "--check"],
    "encode_scientific": ["constants", "--encode", "3600"],
    "verify_constant": ["constants"],
    "verify_table": ["constants"],
}


def test_every_operation_reachable(capsys):
    for op, argv in sorted(OPERATION_COMMANDS.items()):
        assert main(argv) == 0, op
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sexagesimal", "epsilon", "--p", "8"],
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert proc.returncode == 0
    assert proc.stdout == (DATA / "epsilon_8.txt").read_text(encoding="utf-8")


def test_stderr_clean_on_success(capsys):
    assert main(["area", "3", "4", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""


def test_divisors_past_bound_finishes():
    # trial division to sqrt(10**21) would take 3 * 10**10 steps
    proc = run_python(["-m", "sexagesimal", "divisors", "1000000000000000000000"], timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("sexagesimal divisors: error (algorithms): n must be at most 1000000000000")


def test_cli_import_skips_dataclasses_and_inspect():
    # -S leaves out site and whatever its .pth files import
    code = "import sys, sexagesimal.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = run_python(["-S", "-c", code], timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_sqrt_of_small_value_finishes():
    # from the start 1 the exact iterates doubled in size for 18 steps
    proc = run_python(["-m", "sexagesimal", "sqrt", "--p", "8", "0.00000001"], timeout=5)
    assert proc.returncode == 0
    assert proc.stdout == "0;0:0:21:36 (1 iterations)\n"
    assert proc.stderr == ""


class TestRepetendOutput:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["arith", "--to", "glyph", "div", "1", "7"], "0;(8YH)\n"),
            (["arith", "div", "-1", "59"], "-0;(1)\n"),
            (["arith", "--to", "glyph", "div", "-1", "59"], "-0;(1)\n"),
            (["arith", "--to", "glyph", "div", "1", "61"], "0;(0ω)\n"),
            (["arith", "div", "1", "61"], "0;(0:59)\n"),
        ],
    )
    def test_period_in_parentheses(self, argv, expected, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    # past the bound the search gives up and the rounded number ends in "..."
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["arith", "--p", "5", "--to", "glyph", "div", "1", "7"], "0;8YH8Y...\n"),
            (["arith", "--p", "5", "div", "1", "7"], "0;8:34:17:8:34...\n"),
            (["arith", "--p", "5", "--round", "half-up", "--to", "glyph", "div", "-5", "7"], "-0;ηπPηπ...\n"),
            (["arith", "--p", "5", "--to", "decimal", "div", "1", "7"], "0.14...\n"),
        ],
    )
    def test_period_past_state_bound(self, argv, expected, capsys, monkeypatch):
        monkeypatch.setattr(exact, "PERIOD_STATE_BOUND", 2)
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


class TestIntStringLimit:
    # CPython refuses int <-> str conversions past sys.get_int_max_str_digits()
    # digits (4300 by default); such decimal literals are parse errors, read
    # against the limit in force, not a traceback
    @pytest.mark.parametrize(
        "literal",
        ["1" * 4301, "1." + "1" * 4300, "1e" + "1" * 4301],
        ids=["integer", "fraction", "exponent"],
    )
    def test_decimal_past_limit_is_a_parse_error(self, literal):
        argv = ["-X", "int_max_str_digits=4300", "-m", "sexagesimal", "convert", literal]
        proc = run_python(argv, timeout=20)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("sexagesimal convert: error (exact): ")
        assert "int-string limit of 4300" in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "limit, notation, literal, expected",
        [
            ("4300", "decimal", "0." + "0" * 4298 + "1", "0...\n"),
            ("0", "decimal", "0." + "0" * 5000 + "1", "0...\n"),
        ],
        ids=["at-limit", "no-limit"],
    )
    def test_limit_is_read_at_call_time(self, limit, notation, literal, expected):
        argv = ["-X", f"int_max_str_digits={limit}", "-m", "sexagesimal", "convert", "--from", notation, literal]
        proc = run_python(argv, timeout=20)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")

    # a canonical sexagesit is judged by its significant digits, so the
    # limit never applies to it
    @pytest.mark.parametrize("literal", ["0" * 5000 + "1", "1;" + "0" * 4301], ids=["integer", "fraction"])
    def test_canonical_leading_zeros_past_limit(self, literal):
        argv = ["-X", "int_max_str_digits=4300", "-m", "sexagesimal", "convert", "--from", "canonical", literal]
        proc = run_python(argv, timeout=20)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")

    def test_canonical_long_sexagesit_is_out_of_range(self):
        literal = "1" * 5000
        argv = ["-X", "int_max_str_digits=4300", "-m", "sexagesimal", "convert", "--from", "canonical", literal]
        proc = run_python(argv, timeout=20)
        assert (proc.returncode, proc.stdout) == (1, "")
        # the token is clipped like any quoted input, so the line stays short
        clipped = f"'{literal[:40]}'... (5000 characters)"
        assert proc.stderr == f"sexagesimal convert: error (glyphs): sexagesit {clipped} out of range at position 1\n"

    @pytest.mark.parametrize("literal, token, position", [("1:75", "75", 3), ("9" * 40, "9" * 40, 1)])
    def test_canonical_short_sexagesit_is_shown_whole(self, literal, token, position, capsys):
        # up to 40 characters the token is written as typed, without quotes
        assert main(["convert", "--from", "canonical", literal]) == 1
        expected = f"sexagesimal convert: error (glyphs): sexagesit {token} out of range at position {position}\n"
        assert capsys.readouterr().err == expected


class TestBoundedInput:
    # a diagnostic quotes at most 40 characters of the input, and a decimal
    # exponent obeys the int-string limit, so no literal makes a long line
    # or an unbounded power of ten
    @pytest.mark.parametrize(
        "notation, literal, message",
        [
            ("decimal", "1" * 5000, "5000 digits exceed the int-string limit of 4300 at position 1"),
            ("decimal", "1" * 4999 + "x", "unexpected character 'x' at position 5000"),
            ("canonical", "1:;" + "1" * 4997, "expected sexagesit at position 3"),
        ],
        ids=["past-limit", "malformed", "canonical"],
    )
    def test_long_literal_gives_one_short_line(self, notation, literal, message):
        argv = ["-X", "int_max_str_digits=4300", "-m", "sexagesimal", "convert", "--from", notation, literal]
        proc = run_python(argv, timeout=20)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert len(proc.stderr.splitlines()) == 1 and len(proc.stderr) < 200
        assert message in proc.stderr
        assert proc.stderr.endswith(f": {literal[:40]!r}... (5000 characters)\n")

    @pytest.mark.parametrize("literal", ["1e-999999999", "1e99999999", "0e4301"])
    def test_exponent_past_limit_is_a_parse_error(self, literal):
        # each built 10**|exponent| and ran past any timeout
        argv = ["-X", "int_max_str_digits=4300", "-m", "sexagesimal", "convert", literal]
        proc = run_python(argv, timeout=20)
        assert (proc.returncode, proc.stdout) == (1, "")
        mantissa, exponent = literal.split("e")
        position = len(mantissa) + 2 + exponent.startswith("-")  # its first digit
        assert proc.stderr == (
            f"sexagesimal convert: error (exact): exponent {int(exponent)} exceeds the int-string limit"
            f" of 4300 at position {position}: {literal!r}\n"
        )

    def test_exponent_at_limit_and_without_limit(self):
        for limit, literal in (("4300", "1e-4300"), ("0", "1e-5000")):
            argv = ["-X", f"int_max_str_digits={limit}", "-m", "sexagesimal", "convert", literal]
            proc = run_python(argv, timeout=20)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0...\n", "")


def test_generators_past_int_string_limit():
    # a 3000-digit P gives sides of about 6000 digits
    p = "2" + "0" * 2998 + "1" + "0"
    code = (
        "from sexagesimal import triple_from_generators\n"
        f"t = triple_from_generators({p}, 1)\n"
        "print(f'a={t.a} b={t.b} d={t.d}')\n"
        "print(f'{t.a}\\t{t.b}\\t{t.d}')\n"
    )
    reference = run_python(["-X", "int_max_str_digits=0", "-c", code], timeout=20)
    assert reference.returncode == 0, reference.stderr
    outputs = []
    for extra in ([], ["--format", "machine"]):
        argv = ["-X", "int_max_str_digits=4300", "-m", "sexagesimal", "plimpton", "--generators", p, "1", *extra]
        proc = run_python(argv, timeout=20)
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs.append(proc.stdout)
    assert "".join(outputs) == reference.stdout
    assert len(reference.stdout) > 2 * 3 * 5000
