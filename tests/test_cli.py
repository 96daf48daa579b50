"""Golden-file and exit-code contract for the command line."""

import argparse
import contextlib
import gc
import io
import random
import re
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import frac_stream, run_python
from sexagesimal import algorithms, cli, exact
from sexagesimal.cli import main
from sexagesimal.glyphs import DEFAULT_TABLE, encode_glyphs

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


# one golden of each subcommand
ENTRY_POINT_GOLDENS = [
    "convert_glyph", "arith_div", "sqrt_2", "area_345", "epsilon_1", "divisors_60", "plimpton_check", "constants_human",
]


@pytest.mark.parametrize("name", ENTRY_POINT_GOLDENS)
def test_golden_through_module_entry_point(name):
    proc = run_python(["-m", "sexagesimal", *GOLDEN_CASES[name]], timeout=20, text=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, (DATA / f"{name}.txt").read_bytes(), b"")


@pytest.mark.parametrize("name", ["convert_glyph", "sqrt_glyph"])
def test_glyph_output_whatever_the_stream_encoding(name):
    # main() writes UTF-8 whatever encoding the streams were opened with;
    # under an ASCII stdout a glyph past U+007F would raise
    # UnicodeEncodeError
    argv = ["-m", "sexagesimal", *GOLDEN_CASES[name]]
    proc = run_python(argv, timeout=20, env={"PYTHONIOENCODING": "ascii"}, text=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, (DATA / f"{name}.txt").read_bytes(), b"")


def test_cli_module_entry_point():
    proc = run_python(["-m", "sexagesimal.cli", "divisors", "--format", "machine", "60"], timeout=20, text=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, (DATA / "divisors_60_machine.txt").read_bytes(), b"")


_USAGE_ERROR = "usage: sexagesimal epsilon [-h] [--p N]\nsexagesimal epsilon: error: argument --p: precision must be in 1..64\n"

# one call of each exit code, with its stdout and stderr
EXIT_CASES = {
    "success": (["epsilon", "--p", "1"], 0, (DATA / "epsilon_1.txt").read_text(encoding="utf-8"), ""),
    "error": (["divisors", "-5"], 1, "", "sexagesimal divisors: error (algorithms): n must be at least 2\n"),
    "usage": (["epsilon", "--p", "0"], 2, "", _USAGE_ERROR),
}


@pytest.fixture
def unfreeze():
    # cli.run() freezes the heap of a process about to exit; this one goes on
    yield
    gc.unfreeze()


# the entry points run in this process, as ``python -m`` runs them: each
# exits with main()'s return code, and freezes the heap first
@pytest.mark.parametrize("module", ["sexagesimal", "sexagesimal.cli"])
@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_entry_point_exit_codes(module, case, capsys, monkeypatch, unfreeze):
    argv, code, out, err = EXIT_CASES[case]
    monkeypatch.setattr(sys, "argv", [module, *argv])
    if module == "sexagesimal.cli":  # else runpy warns that it is imported
        monkeypatch.delitem(sys.modules, module)
    gc.unfreeze()
    with pytest.raises(SystemExit) as exc:
        runpy.run_module(module, run_name="__main__")
    assert exc.value.code == code
    assert capsys.readouterr() == (out, err)
    assert gc.get_freeze_count() > 0


def test_main_freezes_nothing(capsys):
    # tests and in-process callers go on after main(), so only run() freezes
    before = gc.get_freeze_count()
    for name, argv in sorted(GOLDEN_CASES.items()):
        assert main(argv) == 0
        assert capsys.readouterr().out == (DATA / f"{name}.txt").read_text(encoding="utf-8")
        assert gc.get_freeze_count() == before, name
    for case, (argv, code, out, err) in sorted(EXIT_CASES.items()):
        try:
            assert main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
        assert capsys.readouterr() == (out, err)
        assert gc.get_freeze_count() == before, case


def _console_script():
    # what an installed console script runs: the target pyproject.toml names
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    module, name = re.search(r'^sexagesimal = "([\w.]+):(\w+)"$', text, re.M).groups()
    return ["-c", f"import sys; from {module} import {name}; sys.exit({name}())"]


ENTRY_POINTS = {"module": ["-m", "sexagesimal"], "cli_module": ["-m", "sexagesimal.cli"], "script": _console_script()}

# imported by site at start-up, it reports at exit whether the heap was
# frozen, to a file, so the streams stay the entry point's own
_FREEZE_PROBE = """import atexit, gc


@atexit.register
def report():
    with open({path!r}, "w") as file:
        file.write(str(gc.get_freeze_count() > 0))
"""


# each entry point in a fresh process: the heap is frozen before exit with
# every code, and the streams and code are those of main()
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_entry_point_freezes_the_heap_before_exit(entry, case, tmp_path):
    argv, code, out, err = EXIT_CASES[case]
    report = tmp_path / "frozen.txt"
    (tmp_path / "sitecustomize.py").write_text(_FREEZE_PROBE.format(path=str(report)), encoding="utf-8")
    proc = run_python([*ENTRY_POINTS[entry], *argv], timeout=20, env={"PYTHONPATH": str(tmp_path)}, text=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
    assert report.read_text(encoding="utf-8") == "True"


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


def test_cli_import_skips_typing():
    # the package's records are `exact._Record` classes and four
    # `collections.namedtuple`s, so `typing` (about 6 ms of import) stays
    # out; -S leaves out site, which may import it
    code = "import sys, sexagesimal.cli; print('typing' in sys.modules)"
    proc = run_python(["-S", "-c", code], timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


class TestWideDenominator:
    # 1/D for D = 7 * (60**k - 1) repeats with a period of 7k sexagesits, the
    # first k of them 0.  Each lane of the base-60 digit emitter spans about
    # 2 * bits(D) bits, so these took 2.5-8 s end to end; chunked quotients
    # take a fraction of a second.
    @pytest.mark.parametrize(
        "k, argv",
        [(3000, ["--from", "canonical"]), (2400, ["--to", "glyph"])],
        ids=["canonical-input", "decimal-input"],
    )
    def test_period_within_deadline(self, k, argv):
        den = 7 * (60**k - 1)
        # 7 * 60**k - 7 is 6, then k - 1 digits 59, then 53; 2400 gives a
        # 4269-digit decimal, within the int-string limit
        operand = "6" + ":59" * (k - 1) + ":53" if "canonical" in argv else str(den)
        proc = run_python(["-m", "sexagesimal", "arith", *argv, "div", "1", operand], timeout=2)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("0;(") and proc.stdout.endswith(")\n")
        text = proc.stdout[3:-2]
        if "canonical" in argv:
            period = [int(token) for token in text.split(":")]
        else:
            period = [DEFAULT_TABLE.value(glyph) for glyph in text]
        assert len(period) == 7 * k
        assert period[: k + 6] == frac_stream(1, den, 60, k + 6)
        # the last six digits start at remainder 60**(period - 6) = 60**-6 mod D
        assert period[-6:] == frac_stream(pow(60, -6, den), den, 60, 6)

    # 1/(60**k + 1) = (60**k - 1)/(60**2k - 1) repeats k digits 0 and k
    # digits 59, halves that mirror each other; 1/((60**k - 1)/59) =
    # 59/(60**k - 1) repeats k - 1 digits 0 and a 59, halves that do not.
    # Both denominators are too wide for a pow() to test the rule, so both
    # even periods are emitted whole
    @pytest.mark.parametrize(
        "operand, period",
        [("1" + ":0" * 59_999 + ":1", ["0"] * 60_000 + ["59"] * 60_000), ("1" + ":1" * 59_999, ["0"] * 59_999 + ["59"])],
        ids=["mirrored", "repunit"],
    )
    def test_even_period_within_deadline(self, operand, period):
        proc = run_python(["-m", "sexagesimal", "arith", "--from", "canonical", "div", "1", operand], timeout=2)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0;(" + ":".join(period) + ")\n", "")


def test_sqrt_of_small_value_finishes():
    # from the start 1 the exact iterates doubled in size for 18 steps
    proc = run_python(["-m", "sexagesimal", "sqrt", "--p", "8", "0.00000001"], timeout=5)
    assert proc.returncode == 0
    assert proc.stdout == "0;0:0:21:36 (1 iterations)\n"
    assert proc.stderr == ""


def test_sqrt_from_a_far_start_finishes():
    # the exact iterates double in size each step; unbounded, this ran for
    # minutes
    proc = run_python(["-m", "sexagesimal", "sqrt", "--p", "64", "--start", "1000000", "2"], timeout=30)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("sexagesimal sqrt: error (algorithms): ")
    assert "HERON_OPERAND_BITS" in proc.stderr


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

    # argparse repeats a rejected argument whole, so the integer arguments
    # are read by a type function that clips it like any other quote
    @pytest.mark.parametrize(
        "argv, literal",
        [(["divisors", "1" * 4301], "1" * 4301), (["convert", "--p", "1" * 5001, "1"], "1" * 5001)],
        ids=["divisors", "precision"],
    )
    def test_long_argument_gives_short_usage_error(self, argv, literal):
        proc = run_python(["-X", "int_max_str_digits=4300", "-m", "sexagesimal", *argv], timeout=20)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert all(len(line) < 200 for line in proc.stderr.splitlines())
        assert proc.stderr.endswith(f" value: {literal[:40]!r}... ({len(literal)} characters)\n")

    # up to 40 characters the text is argparse's own
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["divisors", "abc"],
                "usage: sexagesimal divisors [-h] [--format {human,machine}] n\n"
                "sexagesimal divisors: error: argument n: invalid int value: 'abc'\n",
            ),
            (
                ["convert", "--p", "x", "1"],
                "usage: sexagesimal convert [-h] [--p N] [--round {trunc,half-up,half-even}]\n"
                "                           [--from {decimal,canonical,glyph}]\n"
                "                           [--to {decimal,canonical,glyph}]\n"
                "                           value\n"
                "sexagesimal convert: error: argument --p: invalid _precision value: 'x'\n",
            ),
            (
                ["plimpton", "--generators", "3", "y"],
                "usage: sexagesimal plimpton [-h] [--check] [--ratio {d2b2,a2b2}]\n"
                "                            [--format {human,machine}] [--generators P Q]\n"
                "sexagesimal plimpton: error: argument --generators: invalid int value: 'y'\n",
            ),
        ],
        ids=["divisors", "precision", "generators"],
    )
    def test_short_argument_usage_error(self, argv, expected):
        proc = run_python(["-m", "sexagesimal", *argv], timeout=20, env={"COLUMNS": "80"})
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", expected)

    # argparse words an invalid choice, an unknown subcommand and
    # unrecognized arguments itself; a long argument is clipped in them like
    # any other quote, and one of up to 40 characters keeps argparse's text
    ARGPARSE_ERRORS = pytest.mark.parametrize(
        "template",
        [["convert", "--round", None, "1"], ["divisors", "60", None], [None]],
        ids=["choice", "unrecognized", "subcommand"],
    )

    @ARGPARSE_ERRORS
    def test_long_argument_clipped_in_argparse_errors(self, template):
        literal = "x" * 5000
        argv = [literal if arg is None else arg for arg in template]
        proc = run_python(["-m", "sexagesimal", *argv], timeout=20, env={"COLUMNS": "80"})
        assert (proc.returncode, proc.stdout) == (2, "")
        # the usage lines are argparse's, some past 80 columns on 3.13
        lines = proc.stderr.splitlines()
        assert max(map(len, lines)) < 250 and literal[:41] not in proc.stderr
        assert f"{literal[:40]!r}... (5000 characters)" in lines[-1]

    @ARGPARSE_ERRORS
    def test_short_argument_keeps_argparse_text(self, template, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["x" * 40 if arg is None else arg for arg in template]
        errors = []
        for parser in (cli._Parser, argparse.ArgumentParser):
            monkeypatch.setattr(cli, "_Parser", parser)
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            errors.append(capsys.readouterr())
        assert errors[0] == errors[1] and "x" * 40 in errors[0].err

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


# a transcription with a wrong digit and one too many in row 1, a
# fractional side in row 2 and an unknown glyph in row 3
_FAULTY_TRANSCRIPTION = [["1", "1 ω 0 G 5", "1 ω", "2 ξ"], ["2", "1 ω 0 F", "1;ω", "2 ξ"], ["3", "1 ω 0 F", "1 v", "2 ξ"]]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["plimpton"],
            "row  1: a=119 b=120 d=169 ratio=1;59:0:15 published=1 ω 0 G 5 [mismatch]"
            " 4: published 16 vs computed 15; 5: published 5 vs computed -\n"
            "row  2: a=- b=- d=- ratio=- published=1 ω 0 F [error] side columns must be integers\n"
            "row  3: a=- b=- d=- ratio=- published=1 ω 0 F [error] unknown glyph 'v' at position 3\n"
            "0/3 rows match the published transcription\n",
        ),
        (
            ["plimpton", "--format", "machine"],
            "1\t119\t120\t169\t1;59:0:15\t1 ω 0 G 5\tmismatch\t4: published 16 vs computed 15; 5: published 5 vs computed -\n"
            "2\t-\t-\t-\t-\t1 ω 0 F\terror\tside columns must be integers\n"
            "3\t-\t-\t-\t-\t1 ω 0 F\terror\tunknown glyph 'v' at position 3\n",
        ),
    ],
    ids=["human", "machine"],
)
def test_plimpton_mismatch_and_error_rows(argv, expected, capsys, monkeypatch):
    monkeypatch.setattr(algorithms, "_read_tsv", lambda resource: _FAULTY_TRANSCRIPTION)
    assert main(argv) == 1
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["arith", "sub", "0.25", "0.5"], "-0;15\n"),
        (["arith", "--to", "glyph", "sub", "1", "0.5"], "0;U\n"),
        (["arith", "--to", "decimal", "sub", "0", "1"], "-1\n"),
        (["divisors", "7"], "divisors of 7: (none)\ncount: 0\nfactorization: 2^0 * 3^0 * 5^0 * 7 (not regular)\n"),
        (["plimpton", "--generators", "12", "5", "--format", "machine"], "119\t120\t169\n"),
        (["constants", "--encode", "299792458", "--format", "machine"], "N7υεψ\t0\t\n"),
        (["constants", "--encode", "6.582119514e-22", "--p", "10", "--format", "machine"], "1Pψ1MYMξ38\t-21\t10^{-L}\n"),
    ],
    ids=["sub", "sub-glyph", "sub-decimal", "divisors-cofactor", "generators-machine", "encode-machine", "encode-machine-scaled"],
)
def test_forms_without_a_golden(argv, expected, capsys):
    assert main(argv) == 0
    assert capsys.readouterr() == (expected, "")


def _canonical_numeral(n, seed):
    """A random canonical numeral of n sexagesits, the first nonzero."""
    rng = random.Random(seed)
    return ":".join(map(str, [rng.randrange(1, 60), *(rng.randrange(60) for _ in range(n - 1))]))


_SIDE = _canonical_numeral(5_000, 3)

# long, huge and degenerate operands, which must keep the exit code and
# one-line diagnostic of the contract and finish in bounded time.  In
# process each took at most 0.11 s under CPython 3.11.7 and 3.13.13 on a
# 2-vCPU Xeon VM, so the deadline is over 10x the slowest
CONTRACT_DEADLINE_S = 2.0
CONTRACT_CASES = {
    "generators-4001-digits": (["plimpton", "--generators", "1" + "0" * 4000, "1"], 0),
    "generators-zero": (["plimpton", "--generators", "0", "0"], 1),
    "divisors-negative": (["divisors", "-5"], 1),
    "divisors-past-int-string-limit": (["divisors", "1" + "0" * 4300], 2),
    "divisors-prime-near-bound": (["divisors", "999999999989"], 0),
    "sqrt-9000-sexagesits": (["sqrt", "--p", "64", "--from", "canonical", _canonical_numeral(9_000, 1)], 0),
    "sqrt-1e4000": (["sqrt", "--p", "64", "1e4000"], 0),
    "area-5000-sexagesit-sides": (["area", "--from", "canonical", _SIDE, _SIDE, _SIDE], 0),
    "encode-1e-4299": (["constants", "--encode", "1e-4299"], 0),
    "encode-4300-digits": (["constants", "--encode", "9" * 4300], 0),
    "convert-40000-sexagesits": (["convert", "--from", "canonical", _canonical_numeral(40_000, 2)], 0),
    "div-prime-decimal": (["arith", "div", "1", "999983"], 0),
    "div-prime-canonical": (["arith", "--from", "canonical", "div", "1", "4:37:46:23"], 0),
    "div-prime-glyph": (["arith", "--from", "glyph", "div", "1", encode_glyphs(exact.SexNumber.from_int(999983))], 0),
}


@pytest.mark.parametrize("name", sorted(CONTRACT_CASES))
def test_contract_within_deadline(name, capsys):
    argv, code = CONTRACT_CASES[name]
    start = time.perf_counter()
    try:
        got = main(argv)
    except SystemExit as exc:  # a usage error
        got = exc.code
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert got == code
    assert elapsed < CONTRACT_DEADLINE_S
    assert "Traceback" not in err
    if code == 0:
        assert err == "" and out.endswith("\n")
    else:
        assert out == ""
        # a usage error prints the usage first; the diagnostic is one line
        diagnostics = [line for line in err.splitlines() if line.startswith(f"sexagesimal {argv[0]}: error")]
        assert len(diagnostics) == 1 and err.endswith(diagnostics[0] + "\n")
        if code == 1:
            assert err == diagnostics[0] + "\n"
            assert re.match(rf"sexagesimal {argv[0]}: error \((exact|floating|glyphs|algorithms|constants)\): ", err)
