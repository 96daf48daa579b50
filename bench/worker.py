"""Runs one workload's operations in a fresh process: one caller, one
operation at a time.

    python3 bench/worker.py <workload> <setup|run|trace> <seconds> < payload.json

The payload (from run.py) holds the warm-up ops, the seed and the golden
CLI outputs.  ``setup`` imports, warms up and prints the time it got ready;
``run`` also runs cycles of the seed's deck, each with fresh inputs, until
``seconds`` have passed and each slot ran at least twice; ``trace`` runs two
untraced and two traced cycles in turn, then one with a tracemalloc probe on
exact calls.  The last stdout line is JSON.
"""

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import types
from fractions import Fraction

import reference as ref
from reference import expect

CLOCK = time.perf_counter
MIN_REPS = 2
KERNEL_EVERY_S = 0.25
TRACE_PASSES = 2  # per side: plain, traced, plain, traced
CLI_TIMEOUT_S = 60


def _x(pair) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


def _numeral_count(text: str) -> int:
    return sum(c.isdigit() or c in ref.GLYPH_VALUE for c in text)


# -- exact core and library ops ------------------------------------------------
# Each builder returns (call, check): call() does the public calls and is the
# only part timed; check(result) raises Mismatch or returns the number of
# sexagesits and decimal digits read plus written.

def _radix(op, api):
    digits, f = op["digits"], op["frac_count"]
    n = len(digits)
    value = ref.fold(digits)
    scale = ref.BASE**f
    kind = op["op"]

    def value_ok(v):
        expect(v.numerator * scale == value * v.denominator, "digits -> rational value")
        return n

    if kind == "from_sexagesimal":
        number = api.SexNumber(1, tuple(digits), f)
        return (lambda: api.from_sexagesimal(number)), value_ok
    if kind == "decode_canonical":
        text = ref.canonical_text(1, digits, f)
        return (lambda: api.from_sexagesimal(api.decode_canonical(text))), value_ok
    if kind == "decode_glyphs":
        text = ref.glyph_text(1, digits, f)
        return (lambda: api.from_sexagesimal(api.decode_glyphs(text))), value_ok
    x = Fraction(value, scale)
    if kind == "encode_glyphs":
        text = ref.glyph_text(1, digits, f)

        def glyphs_ok(out):
            expect(out == text, "glyph text")
            return n
        return (lambda: api.encode_glyphs(api.to_sexagesimal(x, f)[0])), glyphs_ok

    def number_ok(result):
        number, info = result
        expect(number.sign == 1 and number.frac_count == f and number.digits == tuple(digits),
               "rational -> digits")
        expect(info.terminates and info.complete and info.frac_len == f and not info.period,
               "terminating expansion flags")
        expect(info.int_digits == tuple(digits[: n - f]) and info.frac_digits == tuple(digits[n - f:]),
               "expansion digits")
        return n
    return (lambda: api.to_sexagesimal(x, f)), number_ok


def _parse_to_sexagesimal(op, api):
    literal = op["literal"]
    x = Fraction(literal)

    def ok(result):
        number, info = result
        ref.check_rounded(number, x, 64, "trunc")
        ref.check_expansion(info, x, ref.BASE, 64, False)
        return _numeral_count(literal) + len(number.digits)
    return (lambda: api.to_sexagesimal(api.parse_decimal(literal), 64)), ok


def _to_decimal(op, api):
    x, max_frac = _x(op["x"]), op["max_frac"]

    def ok(e):
        ref.check_expansion(e, x, 10, max_frac, True)
        return len(e.int_digits) + len(e.frac_digits) + len(e.period)
    return (lambda: api.to_decimal(x, max_frac)), ok


def _to_sexagesimal(op, api):
    x, max_frac, mode = _x(op["x"]), op["max_frac"], op["mode"]
    detect = op.get("detect", True)

    def ok(result):
        number, info = result
        ref.check_rounded(number, x, max_frac, mode)
        ref.check_expansion(info, x, ref.BASE, max_frac, detect)
        return len(number.digits) + len(info.int_digits) + len(info.frac_digits) + len(info.period)
    return (lambda: api.to_sexagesimal(x, max_frac, mode, detect_repetend=detect)), ok


def _parse_decimal(op, api):
    literal = op["literal"]
    x = Fraction(literal)

    def ok(v):
        expect(v == x, "decimal literal value")
        return _numeral_count(literal)
    return (lambda: api.parse_decimal(literal)), ok


def _roundtrip(op, api):
    text = op["text"]
    expected = op.get("expected", text)
    if op["op"] == "glyph_roundtrip":
        call = lambda: api.encode_glyphs(api.decode_glyphs(text))  # noqa: E731
    else:
        call = lambda: api.encode_canonical(api.decode_canonical(text))  # noqa: E731

    def ok(out):
        expect(out == expected, "codec round trip")
        return _numeral_count(text) + _numeral_count(out)
    return call, ok


def _normalized(x: Fraction, precision: int, mode: str) -> tuple[tuple[int, ...], int]:
    """(mantissa digits, exponent) of x normalized to 1/60 <= M < 1."""
    e = ref.magnitude_exponent(x)
    m = ref.round_scaled(abs(x) * Fraction(ref.BASE) ** (precision - e), mode)
    if m == ref.BASE**precision:
        m //= ref.BASE
        e += 1
    digits = ref.small_digits(m)
    return (0,) * (precision - len(digits)) + tuple(digits), e


def _normalize_float(op, api):
    x, precision, mode = _x(op["x"]), op["precision"], op["mode"]
    mantissa, exponent = _normalized(x, precision, mode)

    def ok(f):
        expect(f.sign == (1 if x > 0 else -1), "float sign")
        expect(tuple(f.mantissa) == mantissa and f.exponent == exponent, "float mantissa/exponent")
        return precision
    return (lambda: api.normalize_float(x, precision, mode)), ok


def _encode_scientific(op, api):
    x, precision = _x(op["x"]), op["precision"]
    mantissa, e = _normalized(x, precision, "trunc")
    digits = list(mantissa)
    while len(digits) > 1 and digits[-1] == 0:
        digits.pop()
    exponent = e - len(digits)
    notation = ""
    if exponent:
        notation = ("10^{" + ("-" if exponent < 0 else "")
                    + "".join(ref.GLYPHS[d] for d in ref.small_digits(abs(exponent))) + "}")
    expected = ("".join(ref.GLYPHS[d] for d in digits), exponent, notation)

    def ok(result):
        expect(tuple(result) == expected, "scientific glyph encoding")
        return len(expected[0])
    return (lambda: api.encode_scientific(x, precision)), ok


def _heron_sqrt(op, api):
    x, precision = _x(op["x"]), op["precision"]

    def ok(r):
        ref.check_sqrt(ref.sexfloat_value(r.value), x, precision)
        expect(r.iterations >= 1 and 0 <= r.residual < Fraction(1, ref.BASE**precision),
               "Heron iterations/residual")
        return precision
    return (lambda: api.heron_sqrt(x, precision=precision)), ok


def _heron_area(op, api):
    a, b, c = (Fraction(s) for s in op["sides"])
    precision = op["precision"]
    s = (a + b + c) / 2
    radicand = s * (s - a) * (s - b) * (s - c)

    def ok(value):
        ref.check_sqrt(ref.sexfloat_value(value), radicand, precision)
        return precision
    return (lambda: api.heron_area(a, b, c, precision=precision)), ok


def _divisors(op, api):
    n = op["n"]
    divisors = [1]
    for p, e in ref.factorize(n).items():
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    expected = sorted(d for d in divisors if 1 < d < n)

    def ok(out):
        expect(list(out) == expected, "nontrivial divisors")
        return len(str(n)) + sum(len(str(d)) for d in out)
    return (lambda: api.nontrivial_divisors(n)), ok


def _is_regular(op, api):
    n = op["n"]
    exps, rest = [], n
    for p in (2, 3, 5):
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        exps.append(e)
    expected = (rest == 1, *exps, rest)

    def ok(out):
        expect(tuple(out) == expected, "regularity")
        return len(str(n))
    return (lambda: api.is_regular(n)), ok


def _triple(op, api):
    p, q = op["p"], op["q"]
    legs = sorted((p * p - q * q, 2 * p * q))

    def ok(t):
        expect((t.a, t.b, t.d) == (legs[0], legs[1], p * p + q * q), "generated triple")
        expect(t.a**2 + t.b**2 == t.d**2, "Pythagorean identity")
        return len(str(p)) + len(str(q)) + len(f"{t.a}{t.b}{t.d}")
    return (lambda: api.triple_from_generators(p, q)), ok


def _golden_rows(text: str) -> dict[int, bool]:
    rows = {}
    for line in text.splitlines():
        if line.startswith("row "):
            rows[int(line[4:line.index(":")])] = line.endswith("[match]") or "[match] " in line
    return rows


def _reconstruct(op, api, golden):
    ratio = op["ratio"]
    status = _golden_rows(golden["plimpton_check" if ratio == "d2b2" else "plimpton_a2b2"])

    def ok(diffs):
        expect(sorted(d.index for d in diffs) == sorted(status), "row indexes")
        count = 0
        for d in diffs:
            expect(d.error is None and d.ok == status[d.index], f"row {d.index} status")
            row = d.row
            b = math.isqrt(row.d**2 - row.a**2)
            expect(row.b == b and b * b == row.d**2 - row.a**2, f"row {d.index}: b^2 = d^2 - a^2")
            top = row.d if ratio == "d2b2" else row.a
            r = row.ratio_digits
            expect(ref.numeral_value(r.sign, r.digits, r.frac_count) == Fraction(top * top, b * b),
                   f"row {d.index} ratio column")
            count += len(r.digits)
        return count
    return (lambda: api.reconstruct_table(ratio)), ok


def _verify_table(op, api, golden):
    machine = op["machine"]
    expected = golden["constants_machine" if machine else "constants_human"]

    def ok(text):
        expect(text == expected, "constants report")
        return _numeral_count(text)
    return (lambda: api.render_report(api.verify_table(), machine=machine)), ok


BUILDERS = {
    "from_sexagesimal": _radix, "decode_canonical": _radix, "decode_glyphs": _radix,
    "to_sexagesimal": _to_sexagesimal, "encode_glyphs": _radix,
    "parse_to_sexagesimal": _parse_to_sexagesimal, "to_decimal": _to_decimal,
    "to_sexagesimal_repetend": _to_sexagesimal, "parse_decimal": _parse_decimal,
    "glyph_roundtrip": _roundtrip, "canonical_roundtrip": _roundtrip,
    "normalize_float": _normalize_float, "encode_scientific": _encode_scientific,
    "heron_sqrt": _heron_sqrt, "heron_area": _heron_area, "nontrivial_divisors": _divisors,
    "is_regular": _is_regular, "triple_from_generators": _triple,
}


def _build(op, api, golden):
    kind = op["op"]
    if kind == "reconstruct_table":
        return _reconstruct(op, api, golden)
    if kind == "verify_table":
        return _verify_table(op, api, golden)
    if kind == "to_sexagesimal" and "digits" in op:
        return _radix(op, api)
    return BUILDERS[kind](op, api)


# -- command-line ops ----------------------------------------------------------

def _cli_check(op, golden):
    def ok(result):
        code, out, err = result
        expect(code == 0, f"exit code {code}")
        expect(err == "", f"stderr: {err[-200:]!r}")
        if "golden" in op:
            expect(out == golden[op["golden"]], f"golden {op['golden']}")
        else:
            expect(out.endswith("\n") and out.count("\n") == 1, "one output line")
            x, notation = _x(op["value"]), op["notation"]
            value, exact = ref.parse_output(out[:-1], notation)
            p, mode = op["precision"], op["mode"]
            if exact:
                expect(value == x, "exact rendering")
            elif notation == "decimal":
                expect(abs(x - value) < Fraction(1, 10**p), "truncated decimal")
            else:
                sign = (x > 0) - (x < 0)
                expect(value * ref.BASE**p == sign * ref.round_scaled(abs(x) * ref.BASE**p, mode),
                       "rounded rendering")
        return sum(_numeral_count(a) for a in op["argv"][1:]) + _numeral_count(out)
    return ok


def _cli_subprocess(op, golden):
    """A fresh ``python -m sexagesimal``; run.py put src/ on PYTHONPATH."""
    argv = [sys.executable, "-m", "sexagesimal", *op["argv"]]

    def call():
        proc = subprocess.run(argv, capture_output=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")
    return call, _cli_check(op, golden)


def _cli_inprocess(op, golden, api):
    argv = op["argv"]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = api.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()
    return call, _cli_check(op, golden)


# -- loops ---------------------------------------------------------------------

class Tally:
    """Executions and failures, and per slot its best latency and the digits
    of that execution."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.failed_ops: list = []
        self.best: dict = {}
        self.reps: dict = {}
        self.digits: dict = {}

    def fail(self, op_id, message: str):
        self.failed += 1
        self.failed_ops.append(op_id)
        if len(self.failures) < 5:
            self.failures.append(message)


def _run_op(call, check, tally, op_id, tracer=None):
    if tracer is not None:
        tracer.op_id = op_id
    tally.attempted += 1
    t0 = CLOCK()
    try:
        result = call()
    except Exception as exc:  # the program under test failed: count it
        tally.fail(op_id, f"op {op_id}: {type(exc).__name__}: {exc}"[:300])
        return
    latency = CLOCK() - t0
    try:
        digits = check(result)
    except Exception as exc:  # a wrong output, or one the check cannot read
        tally.fail(op_id, f"op {op_id}: {type(exc).__name__}: {exc}"[:300])
        return
    if latency < tally.best.get(op_id, math.inf):
        tally.best[op_id] = latency
        tally.digits[op_id] = digits
    tally.reps[op_id] = tally.reps.get(op_id, 0) + 1


# calibration kernel operands: a ~20k-bit product divided by a ~10k-bit number
_KA = 7 ** 7117
_KB = 11 ** 5780 + 1
_KC = 13 ** 2702 + 1


def calibration_kernel():
    """Fixed work that never calls the package: an interpreter loop and a
    big-int product and division, about 1.7 ms together."""
    v = 0
    for i in range(10000):
        v += i * i
    return v + divmod(_KA * _KB, _KC)[1]


def run_timed(deck_for, build, seconds, tally) -> tuple[float, int, float]:
    """Run cycle after cycle, each with fresh inputs in the same slots, until
    ``seconds`` have passed and every slot ran at least MIN_REPS times.
    Between operations, every KERNEL_EVERY_S, the calibration kernel runs
    once.  Returns the wall time, the cycles begun and the kernel's best
    time."""
    start = last_kernel = CLOCK()
    kernel = math.inf
    cycle = 0
    while True:
        for op_id, op in enumerate(deck_for(cycle)):
            _run_op(*build(op), tally, op_id)
            now = CLOCK()
            if now - last_kernel >= KERNEL_EVERY_S:
                calibration_kernel()
                last_kernel = CLOCK()
                kernel = min(kernel, last_kernel - now)
            if cycle >= MIN_REPS and now - start >= seconds:
                return now - start, cycle + 1, kernel
        cycle += 1


def run_cycle(deck, build, tally, tracer=None) -> float:
    start = CLOCK()
    for op_id, op in enumerate(deck):
        _run_op(*build(op), tally, op_id, tracer)
    return CLOCK() - start


def summary(tally, classes) -> dict:
    """Each slot's latency is the best execution in the run of its class:
    the slot itself, or for CLI calls every call of the same cost class
    (``classes``).  On a shared host contention only ever adds time.
    Rates are the deck's slots and the digits of their best executions over
    the sum of those latencies."""
    class_best: dict = {}
    for op_id, latency in tally.best.items():
        c = classes.get(op_id, op_id)
        class_best[c] = min(latency, class_best.get(c, math.inf))
    lat = sorted(class_best[classes.get(i, i)] for i in tally.best)
    n = len(lat)
    busy = sum(lat)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "samples": n,
        "reps": [min(tally.reps.values(), default=0), max(tally.reps.values(), default=0)],
        "ops_per_s": n / busy if busy else 0.0,
        "digits_per_s": sum(tally.digits[i] for i in tally.best) / busy if busy else 0.0,
        "latency_p50_ms": 1000 * (lat[(n - 1) // 2] + lat[n // 2]) / 2 if n else 0.0,
        "latency_p90_ms": 1000 * lat[math.ceil(0.9 * n) - 1] if n else 0.0,
        "beyond_p90": n - math.ceil(0.9 * n),
    }


def trace(workload, api, deck_for, build) -> dict:
    """Untraced and traced passes in turn (plain, traced, plain, ...), then
    the tracemalloc probe on exact calls.  The tracing overhead is the sum
    of each slot's best traced time over that of its best untraced time.

    ``<layer>.failed`` counts exceptions that left a span of that layer, plus
    wrong outputs of the ops that entered the package through it."""
    import tracemalloc

    from tracing import LAYERS, Tracer
    plain, traced = Tally(), Tally()
    tracer = Tracer()
    cycle = 0
    for _ in range(TRACE_PASSES):
        run_cycle(deck_for(cycle), build, plain)
        tracer.install(api)
        try:
            run_cycle(deck_for(cycle + 1), build, traced, tracer)
        finally:
            tracer.uninstall()
        cycle += 2
    # no checks here, so only the program's allocations are seen
    deck = deck_for(0)
    probes = [build(op)[0] for op in deck if op.get("probe", True)]
    alloc = Tracer()
    alloc.install(api, alloc_only=True)
    tracemalloc.start()
    try:
        for i, call in enumerate(probes):
            _run_op(call, lambda r: 0, Tally(), i)
    finally:
        tracemalloc.stop()
        alloc.uninstall()
    layers = tracer.layer_metrics({i: op.get("size") for i, op in enumerate(deck)})
    layers["exact.peak_alloc_mb"] = alloc.peak_alloc / 2**20
    layers["trace.overhead_ratio"] = sum(traced.best.values()) / sum(plain.best.values())
    entry = {}
    for name, _, _, parent, op_id in tracer.spans:
        if parent is None:
            entry.setdefault(op_id, name.split(".")[0])
    failed = dict(tracer.raised)
    for op_id in traced.failed_ops:
        layer = entry.get(op_id, "cli" if workload == "cli_oneshot" else "exact")
        failed[layer] = failed.get(layer, 0) + 1
    for layer in LAYERS:
        layers[f"{layer}.failed"] = failed.get(layer, 0)
    return {"layers": layers, "spans": tracer.dump(),
            "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed,
            "failures": plain.failures + traced.failures}


def _peak_rss_mb(cli: bool) -> float:
    """Peak RSS of the process that did the work: the largest CLI child, or
    this worker.  getrusage keeps the parent's peak across fork and exec, so
    the worker reads its own high-water mark where Linux exposes it."""
    if not cli:
        try:
            with open("/proc/self/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024
        except OSError:
            pass
    usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(usage).ru_maxrss / 1024


def _api(workload):
    import sexagesimal
    names = {name: getattr(sexagesimal, name) for name in sexagesimal.__all__}
    if workload == "cli_oneshot":
        import sexagesimal.cli
        names["main"] = sexagesimal.cli.main
    return types.SimpleNamespace(**names)


def main(argv):
    workload, mode, seconds = argv[0], argv[1], float(argv[2])
    payload = json.load(sys.stdin)
    golden = payload["golden"]
    cli = workload == "cli_oneshot"
    if cli and mode != "trace":
        api = None
        build = lambda op: _cli_subprocess(op, golden)  # noqa: E731
    else:
        api = _api(workload)
        if cli:
            build = lambda op: _cli_inprocess(op, golden, api)  # noqa: E731
        else:
            build = lambda op: _build(op, api, golden)  # noqa: E731

    warm = Tally()
    for i, op in enumerate(payload["warmup"]):
        _run_op(*build(op), warm, f"warmup{i}")
    ready = CLOCK()
    out = {"ready": ready, "warmup_failed": warm.failed, "failures": warm.failures}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    import workloads
    seed = payload["seed"]
    deck_for = lambda cycle: workloads.generate(workload, seed, cycle)  # noqa: E731
    if mode == "run":
        tally = Tally()
        wall, cycles, kernel = run_timed(deck_for, build, seconds, tally)
        classes = {i: op["class"] for i, op in enumerate(deck_for(0)) if "class" in op}
        out.update(summary(tally, classes))
        out["failures"] = warm.failures + tally.failures
        out["wall_s"] = wall
        out["cycles"] = cycles
        out["kernel_s"] = kernel
        out["peak_rss_mb"] = _peak_rss_mb(cli)
        print(json.dumps(out))
        return 0

    os.makedirs(payload["trace_dir"], exist_ok=True)
    out.update(trace(workload, api, deck_for, build))
    out["failures"] = warm.failures + out["failures"]
    with open(os.path.join(payload["trace_dir"], f"{workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(out.pop("spans"), fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
