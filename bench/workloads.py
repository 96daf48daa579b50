"""Seeded workload generation.

A run cycles through a deck of operation slots.  Every cycle fills the same
slots, in the same order, with fresh values drawn from (seed, cycle): each
slot keeps its kind and operand size (its cost) while its input changes, so
no result can be reused from an earlier cycle.  The same seed gives the same
inputs.  Operations are plain JSON; the expected results are derived by
`reference`, never by the package.
"""

import math
import random
from fractions import Fraction

import reference as ref

# Inputs that are unbounded at this commit and so stay out of the timed mix:
# a run's length would depend on the draw.  Add them once they are bounded.
EXCLUDED_INPUTS = [
    {"input": "heron_sqrt(x) with x < 1e-4, and `sqrt` of such x",
     "reason": "exact iterates double in size from the default start 1; heron_sqrt(1e-8, 8) takes ~40 s"},
    {"input": "heron_sqrt with a start far from the root, e.g. start=1000 for x=2 at p 64",
     "reason": "same iterate blow-up (~20 s)"},
    {"input": "decimal exponents like 1e-999999999",
     "reason": "parse_decimal builds 10**exponent exactly and does not return"},
    {"input": "decimal or canonical literals of 5000+ digits",
     "reason": "CPython's int-string limit raises ValueError, which leaks as a traceback"},
    {"input": "divisors of n > 10**7",
     "reason": "trial division to sqrt(n); divisors 10**21 would run to 3e10"},
]

SUBCOMMANDS = ("convert", "arith", "sqrt", "area", "epsilon", "divisors", "plimpton", "constants")

# argv of each golden file under tests/data/cli/, by file stem
GOLDEN_ARGV = {
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

MODES = ("trunc", "half-up", "half-even")

# exact_large: (size label, sexagesits, operands per deck, kinds).  Op
# costs form well-separated clusters; these counts put the median inside the
# 1k radix ops and p90 inside the eight 10k rational -> digits ops, 3.5x
# above the next cluster, so that noise cannot move either percentile into a
# neighbouring one.  Big-int radix work tracks the calibration kernel better
# than the memory-bound repetend search does, so p90 sits on radix ops.  At
# 30k one call per direction keeps a cycle short enough for several
# repetitions.
RADIX_KINDS = ("from_sexagesimal", "decode_canonical", "decode_glyphs", "to_sexagesimal",
               "encode_glyphs")
RADIX_SIZES = (
    ("d1k", 1000, 12, RADIX_KINDS),
    ("d3k", 3000, 2, RADIX_KINDS),
    ("d10k", 10000, 1, RADIX_KINDS),
    ("d10k", 10000, 3, ("to_sexagesimal", "encode_glyphs")),
    ("d30k", 30000, 1, ("from_sexagesimal", "to_sexagesimal")),
)
LITERAL_DIGITS = (500, 1000, 2000, 4000)
PERIOD_KINDS = ("to_decimal", "to_sexagesimal_repetend")
# (label, prime range, primes per deck, kinds); the last range lies past
# the 10**6-state bound, so that search takes the give-up path
PERIOD_CLASSES = (
    ("p1e4", (10**4, 10**4 * 102 // 100), 4, PERIOD_KINDS),
    ("p1e5", (10**5, 10**5 * 102 // 100), 6, PERIOD_KINDS),
    ("p1e6", (10**6 * 98 // 100, 10**6), 1, PERIOD_KINDS),
    ("giveup", (10**6 + 2, 10**6 * 102 // 100), 1, ("to_sexagesimal_repetend",)),
)

# library_small: calls per deck of each small kind.  Together they take
# about as long as the Heron grid, so slower small calls and a Heron gain
# both move the summed time.  The table calls take no input but the
# package's data files, so every call repeats the first; few of them keep
# a result cache there from showing as a large gain.
LIBRARY_COUNTS = {
    "parse_decimal": 960, "roundtrip": 480, "banded": 96, "normalize_float": 720,
    "encode_scientific": 480, "heron_area": 240, "divisors": 480, "triple": 240, "tables": 12,
}
# repetend lengths of the to_sexagesimal/to_decimal calls
PERIOD_BANDS = ((0, 0), (1, 64), (400, 500), (3000, 3500))
HERON_PRECISIONS = (8, 14, 20, 26, 32)

CLI_DECK_ROUNDS = 13  # 104 calls: ten beyond p90


def _frac(x: Fraction) -> list[str]:
    return [str(x.numerator), str(x.denominator)]


def _numeral(rng: random.Random, n: int, frac_count: int) -> list[int]:
    """Canonical digits: no leading zero in a longer integer part and no
    trailing zero fractional digit."""
    digits = [rng.randrange(60) for _ in range(n)]
    if n - frac_count > 1 and digits[0] == 0:
        digits[0] = rng.randrange(1, 60)
    if frac_count and digits[-1] == 0:
        digits[-1] = rng.randrange(1, 60)
    if not any(digits):
        digits[-1] = 1
    return digits


def _decimal_literal(rng: random.Random, int_digits: int, frac_digits: int, exponent: bool) -> str:
    text = str(rng.randrange(10 ** (int_digits - 1), 10**int_digits))
    if frac_digits:
        text += "." + "".join(str(rng.randrange(10)) for _ in range(frac_digits))
    if exponent:
        text += rng.choice("eE") + rng.choice(("", "-")) + str(rng.randrange(0, 21))
    return text


def _full_reptend_prime(rng: random.Random, lo: int, hi: int) -> int:
    """A prime with period p-1 in both base 10 and base 60."""
    while True:
        p = rng.randrange(lo, hi) | 1
        if (ref.is_prime(p) and ref.multiplicative_order(10, p) == p - 1
                and ref.multiplicative_order(60, p) == p - 1):
            return p


# -- exact_large --------------------------------------------------------------

def _radix_ops(rng, label, n, count, kinds):
    """``count`` operands of n sexagesits per kind, each with its own digits."""
    ops = []
    frac_count = n // 4
    for kind in kinds:
        for _ in range(count):
            ops.append({"op": kind, "size": label, "digits": _numeral(rng, n, frac_count),
                        "frac_count": frac_count})
    return ops


def _period_ops(rng, label, prime_range, count, kinds, max_frac=64):
    """k + a/p for a fresh full-reptend prime p per op."""
    ops = []
    for kind in kinds:
        for _ in range(count):
            p = _full_reptend_prime(rng, *prime_range)
            x = _frac(Fraction(rng.randrange(1, 10**6) * p + rng.randrange(1, p), p))
            op = {"op": kind, "size": label, "x": x, "max_frac": max_frac}
            if kind == "to_sexagesimal_repetend":
                op["mode"] = "trunc"
            ops.append(op)
    return ops


def exact_large(rng):
    deck = []
    for label, n, count, kinds in RADIX_SIZES:
        deck += _radix_ops(rng, label, n, count, kinds)
    for n in LITERAL_DIGITS:
        deck.append({"op": "parse_to_sexagesimal", "size": None,
                     "literal": _decimal_literal(rng, n // 2, n - n // 2, False)})
    for label, prime_range, count, kinds in PERIOD_CLASSES:
        deck += _period_ops(rng, label, prime_range, count, kinds)
    # tracemalloc slows the remainder loop ~20x: profile allocation on one
    # call per kind and size, with a single 1e6-state search
    seen = set()
    for op in deck:
        key = (op["op"], op["size"])
        heavy = op["size"] in ("p1e6", "giveup")
        op["probe"] = key not in seen and (not heavy or key == ("to_decimal", "p1e6"))
        seen.add(key)
    return deck


def exact_large_warmup():
    rng = random.Random("warmup")
    ops = _radix_ops(rng, None, 12, 1, RADIX_KINDS) + _period_ops(rng, None, (11, 30), 1, PERIOD_KINDS)
    ops.append({"op": "parse_to_sexagesimal", "size": None, "literal": "12.5"})
    return ops


# -- library_small ------------------------------------------------------------

def _small_rational(rng, max_den=10**4, max_int=10**6, signed=True):
    den = rng.randrange(2, max_den)
    num = rng.randrange(1, max_int * den)
    if signed and rng.random() < 0.3:
        num = -num
    return Fraction(num, den)


_BAND_DENOMINATORS: dict = {}


def _band_denominators(base, band):
    """Denominators under 10**4 whose period in ``base`` lies in ``band``
    (0, 0 meaning the expansion terminates); computed once per process."""
    key = (base, band)
    if key not in _BAND_DENOMINATORS:
        lo, hi = band
        _BAND_DENOMINATORS[key] = [d for d in range(2, 10**4)
                                   if lo <= ref.expansion_shape(Fraction(1, d), base)[1] <= hi]
    return _BAND_DENOMINATORS[key]


def _banded_rational(rng, base, band, negative):
    den = rng.choice(_band_denominators(base, band))
    while True:
        num = rng.randrange(1, 10**6 * den)
        if math.gcd(num, den) == 1:
            return Fraction(-num if negative else num, den)


def _with_aliases(rng, text):
    inverse = {v: g for g, v in ref.GLYPH_ALIASES.items()}
    out = []
    for ch in text:
        v = ref.GLYPH_VALUE.get(ch)
        if v in inverse and rng.random() < 0.5:
            ch = inverse[v]
        out.append(ch)
        if rng.random() < 0.1:
            out.append(" ")
    return "".join(out)


def library_small(rng):
    """The counts of LIBRARY_COUNTS.  Every size, precision, mode and band
    is set by the op's index within its kind, so only low digits are drawn
    and every deck costs the same."""
    count = LIBRARY_COUNTS
    ops = []
    for i in range(count["parse_decimal"]):
        lit = _decimal_literal(rng, 1 + i % 12, (i // 12) % 9, i % 2 == 0)
        ops.append({"op": "parse_decimal", "literal": "-" + lit if i % 3 == 0 else lit})
    for i in range(count["roundtrip"]):
        n = 1 + i % 16
        frac_count = (i // 16) % n
        digits = _numeral(rng, n, frac_count)
        sign = 1 if i % 2 else -1
        glyph = ref.glyph_text(sign, digits, frac_count)
        ops.append({"op": "glyph_roundtrip", "text": _with_aliases(rng, glyph), "expected": glyph})
        ops.append({"op": "canonical_roundtrip", "text": ref.canonical_text(sign, digits, frac_count)})
    for band in PERIOD_BANDS:
        for i in range(count["banded"]):
            ops.append({"op": "to_sexagesimal", "x": _frac(_banded_rational(rng, 60, band, i % 3 == 0)),
                        "max_frac": 1 + (7 * i) % 64, "mode": MODES[i % 3], "detect": i % 2 == 0})
            ops.append({"op": "to_decimal", "x": _frac(_banded_rational(rng, 10, band, i % 3 == 1)),
                        "max_frac": 1 + (7 * i) % 64})
    for i in range(count["normalize_float"]):
        ops.append({"op": "normalize_float", "x": _frac(_small_rational(rng, max_int=10**9)),
                    "precision": 1 + i % 32, "mode": MODES[i % 3]})
    for i in range(count["encode_scientific"]):
        ops.append({"op": "encode_scientific",
                    "x": _frac(_small_rational(rng, max_int=10**9, signed=False)),
                    "precision": 1 + i % 20})
    # log-uniform x in [1e-4, 1e6) as a Latin square: each decade holds each
    # of 5 log-positions and each precision once, and the worst corner (x
    # near 1e-4 at p 32) is always drawn.  Only the last digits of the
    # 6-digit mantissa are random, and it is coprime to 10 so that the
    # operand size, which drives the sub-unit blow-up, is the same per cell.
    for d, decade in enumerate(range(-4, 6)):
        for j in range(5):
            precision = HERON_PRECISIONS[(4 - j + d) % 5]
            mantissa = int(10 ** (5 + (j + 0.5) / 5)) + rng.randrange(-50, 50)
            while math.gcd(mantissa, 10) != 1:
                mantissa += 1
            x = Fraction(mantissa, 10**5) * Fraction(10) ** decade
            ops.append({"op": "heron_sqrt", "x": _frac(x), "precision": precision})
    for i in range(count["heron_area"]):
        while True:
            a, b = rng.randrange(1, 1000), rng.randrange(1, 1000)
            c = rng.randrange(abs(a - b) + 1, a + b)
            if c > 0:
                break
        ops.append({"op": "heron_area", "sides": [a, b, c], "precision": (8, 16)[i % 2]})
    for i in range(count["divisors"]):
        # trial division costs about sqrt(n): n sits in a fixed band per index,
        # on a log grid over [10, 10**7]
        top = int(10 ** (1 + 6 * (i % 20) / 19))
        ops.append({"op": "nontrivial_divisors", "n": rng.randrange(top - top // 10, top + 1)})
        # 2^a 3^b 5^c with a + b + c fixed by the index, times a drawn
        # cofactor coprime to 30 in odd slots
        total = 4 + i % 16
        a = rng.randrange(total + 1)
        b = rng.randrange(total - a + 1)
        n = 2**a * 3**b * 5 ** (total - a - b)
        if i % 2:
            n *= rng.randrange(7, 10**6, 30)
        ops.append({"op": "is_regular", "n": n})
    for _ in range(count["triple"]):
        while True:
            p = rng.randrange(2, 1000)
            q = rng.randrange(1, p)
            if (p - q) % 2 == 1 and math.gcd(p, q) == 1:
                break
        ops.append({"op": "triple_from_generators", "p": p, "q": q})
    for _ in range(count["tables"]):
        ops.append({"op": "reconstruct_table", "ratio": "d2b2"})
        ops.append({"op": "reconstruct_table", "ratio": "a2b2"})
        ops.append({"op": "verify_table", "machine": False})
        ops.append({"op": "verify_table", "machine": True})
    for op in ops:
        op["probe"] = True
    return ops


def library_small_warmup():
    """One op of each kind; for Heron the last cell, x near 1e5, a fast one."""
    kinds = {op["op"]: op for op in library_small(random.Random("warmup"))}
    return list(kinds.values())


# -- cli_oneshot --------------------------------------------------------------

# seeded CLI shapes: (precision, rounding, output notation, input notation
# or operator, integer digits, fractional digits)
CLI_SHAPES = {
    "convert": ((12, "trunc", "glyph", "decimal", 3, 3), (64, "half-even", "decimal", "canonical", 5, 4)),
    "arith": ((30, "half-up", "canonical", "mul", 3, 3), (8, "trunc", "decimal", "div", 5, 4)),
}


def _cli_value(rng, notation, int_count, frac_count):
    """(argument text, exact value) in the given input notation."""
    if notation == "decimal":
        text = _decimal_literal(rng, int_count, frac_count, False)
        return text, Fraction(text)
    digits = _numeral(rng, int_count + frac_count, frac_count)
    render = ref.canonical_text if notation == "canonical" else ref.glyph_text
    return render(1, digits, frac_count), ref.numeral_value(1, digits, frac_count)


def _cli_seeded(rng, command, k):
    """A call of shape ``k`` of CLI_SHAPES; only the operands are drawn."""
    p, mode, to, how, int_count, frac_count = CLI_SHAPES[command][k]
    opts = ["--p", str(p), "--round", mode, "--to", to]
    if command == "convert":
        text, x = _cli_value(rng, how, int_count, frac_count)
        argv = ["convert", "--from", how, *opts, text]
    else:
        xt, x = _cli_value(rng, "decimal", int_count, frac_count)
        # a small divisor keeps repetends short: the CLI, not the core, is timed
        yt = _decimal_literal(rng, 1, 1, False)
        y = Fraction(yt)
        x = x * y if how == "mul" else x / y
        argv = ["arith", *opts, how, xt, yt]
    return {"argv": argv, "value": _frac(x), "notation": to, "precision": p, "mode": mode,
            "class": f"{command}{k}"}


def _golden_by_command():
    by_command = {}
    for name, argv in GOLDEN_ARGV.items():
        by_command.setdefault(argv[0], []).append(name)
    return by_command


def cli_oneshot(rng):
    """13 rounds over the subcommands.  Each op has a ``class``: calls of one
    class cost the same (the same golden argv, or one seeded shape)."""
    by_command = _golden_by_command()
    deck = []
    for r in range(CLI_DECK_ROUNDS):
        for command in SUBCOMMANDS:
            if command in ("convert", "arith"):
                deck.append(_cli_seeded(rng, command, r % 2))
            else:
                names = by_command[command]
                name = names[r % len(names)]
                deck.append({"argv": GOLDEN_ARGV[name], "golden": name, "class": name})
    return deck


def cli_oneshot_warmup():
    by_command = _golden_by_command()
    return [{"argv": GOLDEN_ARGV[by_command[c][0]], "golden": by_command[c][0]} for c in SUBCOMMANDS]


GENERATORS = {"cli_oneshot": cli_oneshot, "exact_large": exact_large, "library_small": library_small}
WARMUPS = {"cli_oneshot": cli_oneshot_warmup, "exact_large": exact_large_warmup,
           "library_small": library_small_warmup}


def warmup(workload: str) -> list[dict]:
    """One untimed op of each kind, the same for every seed."""
    return WARMUPS[workload]()


def generate(workload: str, seed: int, cycle: int) -> list[dict]:
    """The deck of one cycle: the slots in an order fixed by the seed, each
    filled with values drawn from (seed, cycle)."""
    deck = GENERATORS[workload](random.Random(f"{workload}:{seed}:{cycle}"))
    order = list(range(len(deck)))
    random.Random(f"{workload}:{seed}").shuffle(order)
    return [deck[i] for i in order]
