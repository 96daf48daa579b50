"""Command-line front door: conversion, exact arithmetic, square roots,
areas, machine epsilon, divisor analysis, Plimpton 322 reconstruction and
constants verification.

Exit codes: 0 success, 1 domain or parse errors (diagnostic on stderr,
naming the originating module), 2 usage errors.  Output is deterministic
for fixed input and flags; all numeric input is plain text.
"""

import argparse
import sys

from .algorithms import (
    RATIO_DIAGONAL,
    RATIO_SHORT,
    heron_area,
    heron_sqrt,
    is_regular,
    load_table,
    nontrivial_divisors,
    reconstruct_table,
    triple_from_generators,
)
from .constants import encode_scientific, render_report, verify_table
from .errors import QUOTE_CHARS, SexagesimalError, quote
from .exact import (
    ROUNDING_MODES,
    TRUNC,
    Rational,
    _render,
    arith,
    from_sexagesimal,
    parse_decimal,
    to_decimal,
    to_sexagesimal,
)
from .floating import machine_epsilon
from .glyphs import DEFAULT_TABLE, decode_canonical, decode_glyphs

NOTATIONS = ("decimal", "canonical", "glyph")


def _parse_value(text: str, notation: str) -> Rational:
    if notation == "decimal":
        return parse_decimal(text)
    if notation == "canonical":
        return from_sexagesimal(decode_canonical(text))
    return from_sexagesimal(decode_glyphs(text))


def _render_value(x: Rational, notation: str, precision: int, mode: str) -> str:
    if notation == "decimal":
        return str(to_decimal(x, max_frac=precision, detect_repetend=True))
    number, info = to_sexagesimal(x, precision, mode, detect_repetend=True)
    # a found period is shown whole, in parentheses; else the rounded number
    style = {"symbols": DEFAULT_TABLE._alphabet} if notation == "glyph" else {}
    if info._period:
        return _render(info.sign, info._int_digits, info._frac_digits, info._period, **style)
    return _render(number.sign, *number._parts, complete=info.terminates_within(precision), **style)


def _int(text: str, kind: str = "int") -> int:
    # argparse's own message would repeat a rejected argument whole
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind} value: {quote(text)}") from None


def _precision(text: str) -> int:
    value = _int(text, "_precision")
    if not 1 <= value <= 64:
        raise argparse.ArgumentTypeError("precision must be in 1..64")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse with a long argument clipped by `quote` in the usage errors
    it words itself, an invalid choice and unrecognized arguments; a short
    argument keeps argparse's text.  Subcommand parsers are of this class
    too."""

    def _check_value(self, action, value):
        try:
            super()._check_value(action, value)
        except argparse.ArgumentError as exc:
            exc.message = exc.message.replace(repr(value), quote(value), 1)
            raise

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(a if len(a) <= QUOTE_CHARS else quote(a) for a in extras))
        return args


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sexagesimal",
        description="Exact base-60 arithmetic, codecs and table verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--p", type=_precision, default=8, metavar="N",
                       help="precision in sexagesits (1..64, default 8)")
        p.add_argument("--round", choices=ROUNDING_MODES, default=TRUNC,
                       help="rounding mode (default trunc)")
        p.add_argument("--from", dest="notation_in", choices=NOTATIONS, default="decimal",
                       help="input notation (default decimal)")
        p.add_argument("--to", dest="notation_out", choices=NOTATIONS, default="canonical",
                       help="output notation (default canonical)")

    p = sub.add_parser("convert", help="convert a number between notations")
    p.set_defaults(run=_cmd_convert, origin="exact")
    common(p)
    p.add_argument("value")

    p = sub.add_parser("arith", help="exact rational arithmetic")
    p.set_defaults(run=_cmd_arith, origin="exact")
    common(p)
    p.add_argument("op", choices=("add", "sub", "mul", "div"))
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("sqrt", help="square root by Heron's iteration")
    p.set_defaults(run=_cmd_sqrt, origin="algorithms")
    common(p)
    p.add_argument("--start", metavar="X0", help="starting guess (same notation as input)")
    p.add_argument("value")

    p = sub.add_parser("area", help="triangle area from three sides (Heron)")
    p.set_defaults(run=_cmd_area, origin="algorithms")
    common(p)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")

    p = sub.add_parser("epsilon", help="machine epsilon 60^-P")
    p.set_defaults(run=_cmd_epsilon, origin="floating")
    p.add_argument("--p", type=_precision, default=8, metavar="N",
                   help="mantissa length (1..64, default 8)")

    p = sub.add_parser("divisors", help="nontrivial divisors and regularity")
    p.set_defaults(run=_cmd_divisors, origin="algorithms")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.add_argument("n", type=_int)

    p = sub.add_parser("plimpton", help="reconstruct the embedded Plimpton 322 table")
    p.set_defaults(run=_cmd_plimpton, origin="algorithms")
    p.add_argument("--check", action="store_true",
                   help="reconstruct and diff all 15 rows (the default action)")
    p.add_argument("--ratio", choices=(RATIO_DIAGONAL, RATIO_SHORT), default=RATIO_DIAGONAL,
                   help="ratio column interpretation (default d2b2)")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.add_argument("--generators", nargs=2, type=_int, metavar=("P", "Q"),
                   help="emit the triple generated by (P, Q) instead")

    p = sub.add_parser("constants", help="verify the embedded constants table")
    p.set_defaults(run=_cmd_constants, origin="constants")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.add_argument("--encode", metavar="VALUE",
                   help="encode a decimal value in scientific glyph notation instead")
    p.add_argument("--p", type=_precision, default=8, metavar="N",
                   help="mantissa sexagesits for --encode (default 8)")

    return parser


def _cmd_convert(args) -> tuple[str, int]:
    value = _parse_value(args.value, args.notation_in)
    return _render_value(value, args.notation_out, args.p, args.round) + "\n", 0


def _cmd_arith(args) -> tuple[str, int]:
    x = _parse_value(args.x, args.notation_in)
    y = _parse_value(args.y, args.notation_in)
    result = arith(args.op, x, y)
    return _render_value(result, args.notation_out, args.p, args.round) + "\n", 0


def _cmd_sqrt(args) -> tuple[str, int]:
    value = _parse_value(args.value, args.notation_in)
    start = _parse_value(args.start, args.notation_in) if args.start else None
    result = heron_sqrt(value, start, args.p)
    # the root has at most --p fractional sexagesits, so no rounding applies
    text = _render_value(result.value.to_rational(), args.notation_out, args.p, TRUNC)
    return f"{text} ({result.iterations} iterations)\n", 0


def _cmd_area(args) -> tuple[str, int]:
    sides = [_parse_value(t, args.notation_in) for t in (args.a, args.b, args.c)]
    value = heron_area(*sides, precision=args.p)
    return _render_value(value.to_rational(), args.notation_out, args.p, TRUNC) + "\n", 0


def _cmd_epsilon(args) -> tuple[str, int]:
    eps = machine_epsilon(args.p)
    # 18 significant digits of the conventional binary-double rendering
    return f"{float(eps):.17e} (= 60^-{args.p})\n", 0


def _cmd_divisors(args) -> tuple[str, int]:
    divisors = nontrivial_divisors(args.n)
    reg = is_regular(args.n)
    factor_text = f"2^{reg.exp2} * 3^{reg.exp3} * 5^{reg.exp5}"
    if reg.cofactor != 1:
        factor_text += f" * {reg.cofactor}"
    if args.format == "machine":
        line = "\t".join(
            (
                str(args.n),
                ",".join(str(d) for d in divisors),
                str(len(divisors)),
                "regular" if reg.is_regular else "irregular",
                f"{reg.exp2},{reg.exp3},{reg.exp5},{reg.cofactor}",
            )
        )
        return line + "\n", 0
    lines = [
        f"divisors of {args.n}: " + (" ".join(str(d) for d in divisors) or "(none)"),
        f"count: {len(divisors)}",
        f"factorization: {factor_text} ({'regular' if reg.is_regular else 'not regular'})",
    ]
    return "\n".join(lines) + "\n", 0


def _mismatch_text(diff) -> str:
    parts = []
    for m in diff.mismatches:
        pub = "-" if m.published is None else m.published
        com = "-" if m.computed is None else m.computed
        parts.append(f"{m.position}: published {pub} vs computed {com}")
    return "; ".join(parts)


def _cmd_plimpton(args) -> tuple[str, int]:
    if args.generators:
        # through the digit kernel: the sides may pass the int-string limit
        triple = triple_from_generators(*args.generators)
        a, b, d = (str(to_decimal(side)) for side in (triple.a, triple.b, triple.d))
        return (f"{a}\t{b}\t{d}\n" if args.format == "machine" else f"a={a} b={b} d={d}\n"), 0
    diffs = reconstruct_table(args.ratio)
    records = {record.index: record for record in load_table()}
    lines = []
    ok_count = sum(1 for d in diffs if d.ok)
    for diff in diffs:
        if diff.error is not None:
            status, detail = "error", diff.error
            a = b = d = ratio = "-"
        else:
            status = "match" if diff.ok else "mismatch"
            detail = _mismatch_text(diff)
            a, b, d = diff.row.a, diff.row.b, diff.row.d
            ratio = diff.row.ratio_digits.canonical_text()
        published = records[diff.index].ratio_glyphs
        if args.format == "machine":
            lines.append("\t".join((str(diff.index), str(a), str(b), str(d), str(ratio), published, status, detail)))
        else:
            line = f"row {diff.index:2d}: a={a} b={b} d={d} ratio={ratio} published={published} [{status}]"
            lines.append(f"{line} {detail}" if detail else line)
    if args.format == "human":
        lines.append(f"{ok_count}/{len(diffs)} rows match the published transcription")
    return "\n".join(lines) + "\n", 0 if ok_count == len(diffs) else 1


def _cmd_constants(args) -> tuple[str, int]:
    if args.encode:
        value = _parse_value(args.encode, "decimal")
        glyphs, exponent, notation = encode_scientific(value, args.p)
        if args.format == "machine":
            return f"{glyphs}\t{exponent}\t{notation}\n", 0
        return (f"{glyphs}·{notation}" if notation else glyphs) + "\n", 0
    return render_report(verify_table(), machine=args.format == "machine"), 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    try:
        output, code = args.run(args)
    except SexagesimalError as exc:
        # the module a diagnostic names, unless the error carries its own
        # ``origin`` (the parse errors do)
        origin = getattr(exc, "origin", args.origin)
        print(f"sexagesimal {args.command}: error ({origin}): {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
