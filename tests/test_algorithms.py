"""Heron iteration, divisor analysis, triples, and the table reconstruction."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import run_python
from sexagesimal import algorithms, exact
from sexagesimal import (
    DomainError,
    PlimptonRow,
    Triple,
    decode_glyphs,
    from_sexagesimal,
    heron_area,
    heron_sqrt,
    is_regular,
    load_table,
    nontrivial_divisors,
    plimpton_row_compute,
    reconstruct_table,
    triple_from_generators,
)
from sexagesimal.algorithms import RATIO_SHORT


def _digits60(n):
    out = []
    while n:
        out.append(n % 60)
        n //= 60
    return tuple(reversed(out)) or (0,)


class TestHeronSqrt:
    def test_sqrt2_against_integer_sqrt_oracle(self):
        # oracle: digit extraction of isqrt(2 * 60^16) = floor(sqrt(2) * 60^8)
        oracle = _digits60(math.isqrt(2 * 60**16))
        result = heron_sqrt(2, 1, 8)
        assert result.value.mantissa == oracle
        assert result.value.exponent == 1
        assert result.iterations <= 8
        assert result.residual < Fraction(1, 60**8)
        assert str(result.value) == "1;24:51:10:7:46:6:4:44"

    def test_sqrt3_prefix(self):
        oracle = _digits60(math.isqrt(3 * 60**8))
        result = heron_sqrt(3, 2, 4)
        assert result.value.mantissa[:4] == oracle[:4] == (1, 43, 55, 22)

    def test_perfect_square_is_exact(self):
        result = heron_sqrt(4, 1, 8)
        assert result.value.to_rational() == 2

    def test_default_start_hits_perfect_squares_immediately(self):
        result = heron_sqrt(36)
        assert result.value.to_rational() == 6
        assert result.iterations == 1
        assert result.residual == 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            heron_sqrt(0)
        with pytest.raises(DomainError):
            heron_sqrt(-2)
        with pytest.raises(DomainError):
            heron_sqrt(2, start=0)
        with pytest.raises(DomainError):
            heron_sqrt(2, precision=0)

    @settings(max_examples=30)
    @given(
        st.fractions(min_value=Fraction(1, 1000), max_value=10**6, max_denominator=1000),
        st.sampled_from(["one", "self", "default"]),
        st.integers(2, 8),
    )
    def test_convergence_properties(self, a, start_kind, precision):
        start = {"one": Fraction(1), "self": a, "default": _documented_start(a)}[start_kind]
        eps = Fraction(1, 60**precision)

        # independent re-run of the recurrence, tracking every residual
        cur, residuals = start, []
        for _ in range(200):
            nxt = (cur + a / cur) / 2
            residuals.append(abs(nxt - cur))
            cur = nxt
            if residuals[-1] < eps:
                break
        else:
            pytest.fail("oracle iteration did not converge")

        # overshoot: from the first iterate on, x_n^2 >= a (exact)
        x = start
        for _ in range(len(residuals)):
            x = (x + a / x) / 2
            assert x * x >= a

        # residuals are eventually strictly decreasing
        tail = residuals[1:]
        assert all(tail[i + 1] < tail[i] for i in range(len(tail) - 1) if tail[i] != 0)

        result = heron_sqrt(a, None if start_kind == "default" else start, precision)
        assert result.iterations == len(residuals)
        assert result.residual == residuals[-1]

        _assert_precision_contract(result, a, precision)

    @given(
        st.integers(1, 12)
        .flatmap(lambda d: st.integers(1, 10**d - 1).map(lambda m: Fraction(m, 10**d)))
        .filter(lambda x: x > Fraction(1, 10**12)),
        st.integers(1, 32),
    )
    def test_sub_unit_default_start_meets_precision_contract(self, x, precision):
        _assert_precision_contract(heron_sqrt(x, precision=precision), x, precision)

    @given(st.integers(1, 10**30), st.integers(1, 16))
    def test_integer_default_start_is_isqrt(self, x, precision):
        default = heron_sqrt(x, precision=precision)
        explicit = heron_sqrt(x, start=math.isqrt(x), precision=precision)
        assert (default.value, default.iterations, default.residual) == (
            explicit.value,
            explicit.iterations,
            explicit.residual,
        )

    # a start within one sexagesit has relative error at most 1/60, and each
    # step squares the relative error and halves it, so the iteration count
    # is bounded: 4 steps reach 60^-8 at sqrt(x) = 1e-4, and 6 reach 60^-32
    # at sqrt(x) = 0.0112.  The start 1 of earlier versions took 18 and 14
    # steps, each doubling the size of the exact iterate.
    @pytest.mark.parametrize(
        "x, precision, max_iterations",
        [(Fraction(1, 10**8), 8, 4), (Fraction(126, 10**6), 32, 6)],
    )
    def test_sub_unit_default_start_deadline(self, x, precision, max_iterations):
        code = (
            "import time\n"
            "from fractions import Fraction\n"
            "from sexagesimal import heron_sqrt\n"
            "start = time.perf_counter()\n"
            f"result = heron_sqrt(Fraction({x.numerator}, {x.denominator}), precision={precision})\n"
            "print(time.perf_counter() - start, result.iterations)\n"
        )
        proc = run_python(["-c", code], timeout=10)
        assert proc.returncode == 0, proc.stderr
        elapsed, iterations = proc.stdout.split()
        assert float(elapsed) < 1.0
        assert int(iterations) <= max_iterations


def _documented_start(a):
    # isqrt(floor(a)) for a >= 1; below 1, the least k >= 1 with
    # a * 60^(2k) >= 60^2 and isqrt(floor(a * 60^(2k))) / 60^k
    if a >= 1:
        return Fraction(math.isqrt(math.floor(a)))
    k = 1
    while a * 60 ** (2 * k) < 60**2:
        k += 1
    return Fraction(math.isqrt(math.floor(a * 60 ** (2 * k))), 60**k)


def _assert_precision_contract(result, a, precision):
    # |v^2 - a| < 2*eps*sqrt(a) + eps^2, checked without leaving rationals:
    # lhs - eps^2 <= 0, or (lhs - eps^2)^2 < 4 eps^2 a
    eps = Fraction(1, 60**precision)
    v = result.value.to_rational()
    lhs = abs(v * v - a) - eps * eps
    assert lhs <= 0 or lhs * lhs < 4 * eps * eps * a


class TestHeronArea:
    def test_right_triangle(self):
        assert heron_area(3, 4, 5).to_rational() == 6

    def test_tablet_row_one_against_leg_product(self):
        assert heron_area(119, 120, 169).to_rational() == Fraction(119 * 120, 2)

    def test_triangle_inequality_violation(self):
        with pytest.raises(DomainError):
            heron_area(1, 1, 3)

    def test_degenerate(self):
        with pytest.raises(DomainError):
            heron_area(1, 2, 3)

    def test_nonpositive_side(self):
        with pytest.raises(DomainError):
            heron_area(0, 4, 5)

    def test_scalene_non_right(self):
        # area of (13, 14, 15) is 84; radicand is a perfect square
        assert heron_area(13, 14, 15).to_rational() == 84


class TestDivisors:
    def test_base_ten(self):
        assert nontrivial_divisors(10) == [2, 5]

    def test_base_sixty(self):
        assert nontrivial_divisors(60) == [2, 3, 4, 5, 6, 10, 12, 15, 20, 30]

    def test_prime(self):
        assert nontrivial_divisors(7) == []

    def test_validation(self):
        with pytest.raises(DomainError):
            nontrivial_divisors(1)

    def test_bound(self):
        # 10**12 = 2**12 * 5**12 has 13 * 13 divisors, found in 10**6 steps
        assert len(nontrivial_divisors(algorithms.DIVISORS_BOUND)) == 13 * 13 - 2
        with pytest.raises(DomainError, match="^n must be at most 1000000000000 "):
            nontrivial_divisors(algorithms.DIVISORS_BOUND + 1)

    def test_product_formula_cross_check(self):
        # sieve-based oracle plus the standard prod(e_i + 1) - 2 count
        limit = 2000
        counts = [0] * (limit + 1)
        for d in range(2, limit + 1):
            for m in range(2 * d, limit + 1, d):
                counts[m] += 1
        for n in range(2, limit + 1):
            divisors = nontrivial_divisors(n)
            assert len(divisors) == counts[n]
            product = 1
            m = n
            for p in range(2, m + 1):
                if p * p > m:
                    break
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                product *= e + 1
            if m > 1:
                product *= 2
            assert len(divisors) == product - 2


class TestIsRegular:
    def test_sixty(self):
        assert is_regular(60) == (True, 2, 1, 1, 1)

    def test_tablet_row_one_medium_side(self):
        # oracle: trial division of 120 by 2, 3, 5 only
        n = 120
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        assert n == 1
        assert is_regular(120) == (True, 3, 1, 1, 1)

    def test_prime_seven(self):
        assert is_regular(7) == (False, 0, 0, 0, 7)

    def test_one(self):
        assert is_regular(1) == (True, 0, 0, 0, 1)

    def test_validation(self):
        with pytest.raises(DomainError):
            is_regular(0)

    @given(st.integers(1, 10**6))
    def test_factorization_reconstructs(self, n):
        reg = is_regular(n)
        assert 2**reg.exp2 * 3**reg.exp3 * 5**reg.exp5 * reg.cofactor == n
        assert reg.is_regular == (reg.cofactor == 1)


class TestTripleFromGenerators:
    def test_smallest(self):
        assert triple_from_generators(2, 1) == Triple(3, 4, 5)

    def test_tablet_row_one_against_decoded_glyphs(self):
        # oracle: the published a and d glyph strings of the first row
        a = int(from_sexagesimal(decode_glyphs("1 ω")))
        d = int(from_sexagesimal(decode_glyphs("2 ξ")))
        assert triple_from_generators(12, 5) == Triple(a, 120, d)

    @pytest.mark.parametrize("p,q", [(2, 2), (1, 1), (3, 1), (2, 0), (1, 2)])
    def test_precondition_violations(self, p, q):
        with pytest.raises(DomainError):
            triple_from_generators(p, q)

    def test_triple_invariants(self):
        with pytest.raises(ValueError):
            Triple(3, 4, 6)
        with pytest.raises(ValueError):
            Triple(4, 3, 5)

    @given(st.integers(2, 60), st.integers(1, 59))
    def test_generated_triples_are_valid(self, p, q):
        if not (p > q and math.gcd(p, q) == 1 and (p % 2 == 0 or q % 2 == 0)):
            with pytest.raises(DomainError):
                triple_from_generators(p, q)
            return
        t = triple_from_generators(p, q)
        assert t.a**2 + t.b**2 == t.d**2
        assert math.gcd(math.gcd(t.a, t.b), t.d) == 1


class TestPlimptonRowCompute:
    @pytest.mark.parametrize(
        "a,d,index,b,ratio",
        [
            (45, 75, 11, 60, "1;33:45"),
            (119, 169, 1, 120, "1;59:0:15"),
            (56, 106, 15, 90, "1;23:13:46:40"),
        ],
    )
    def test_anchor_rows(self, a, d, index, b, ratio):
        row = plimpton_row_compute(a, d, index)
        assert row.b == b
        assert row.ratio_digits.canonical_text() == ratio

    def test_short_side_interpretation_drops_leading_one(self):
        row = plimpton_row_compute(119, 169, 1, ratio=RATIO_SHORT)
        assert row.ratio_digits.canonical_text() == "0;59:0:15"

    def test_not_a_perfect_square(self):
        with pytest.raises(DomainError):
            plimpton_row_compute(2, 4, 1)

    def test_irregular_medium_side(self):
        # (24, 7, 25): b = 7 is not regular, the ratio cannot terminate
        with pytest.raises(DomainError):
            plimpton_row_compute(24, 25, 1)

    def test_row_validation(self):
        with pytest.raises(ValueError):
            PlimptonRow(0, decode_glyphs("1"), 3, 5)


class TestReconstruction:
    def test_all_rows_reconstruct(self):
        diffs = reconstruct_table()
        assert len(diffs) == 15
        assert all(d.ok for d in diffs)
        assert all(d.error is None for d in diffs)

    def test_row_two_matches_under_phi_alias(self):
        diff = reconstruct_table()[1]
        assert diff.row.a == 3367 and diff.row.b == 3456 and diff.row.d == 4825
        assert diff.row.ratio_digits.canonical_text() == "1;56:56:58:14:50:6:15"
        assert diff.ok

    def test_row_thirteen(self):
        diff = reconstruct_table()[12]
        assert (diff.row.a, diff.row.b, diff.row.d) == (161, 240, 289)
        assert diff.row.ratio_digits.canonical_text() == "1;27:0:3:45"

    def test_row_nine(self):
        diff = reconstruct_table()[8]
        assert (diff.row.a, diff.row.b, diff.row.d) == (481, 600, 769)
        assert diff.row.ratio_digits.canonical_text() == "1;38:33:36:36"

    def test_short_side_interpretation_also_matches(self):
        assert all(d.ok for d in reconstruct_table(RATIO_SHORT))

    def test_integrity_invariants(self):
        for diff in reconstruct_table():
            row = diff.row
            b2 = row.d**2 - row.a**2
            assert row.b**2 == b2
            assert is_regular(row.b).is_regular
            # from_sexagesimal(ratio) * b^2 == d^2 exactly
            assert from_sexagesimal(row.ratio_digits) * row.b**2 == row.d**2

    def test_every_row_reduces_to_a_generated_primitive(self):
        # bounded generator search, p <= 200
        for diff in reconstruct_table():
            t = diff.row.triple
            g = math.gcd(math.gcd(t.a, t.b), t.d)
            reduced = Triple(t.a // g, t.b // g, t.d // g)
            found = False
            for p in range(2, 201):
                for q in range(1, p):
                    if math.gcd(p, q) != 1 or (p % 2 and q % 2):
                        continue
                    if triple_from_generators(p, q) == reduced:
                        found = True
                        break
                if found:
                    break
            assert found, f"no generators for row {diff.index}"

    def test_dataset_shape(self):
        records = load_table()
        assert [r.index for r in records] == list(range(1, 16))
        assert records[0].a_glyphs == "1 ω"
        assert records[10].ratio_glyphs == "1 X κ"

    def test_dataset_file_schema(self):
        # the raw resource: one tab-separated record per row, '#' comments
        from importlib.resources import files

        text = files("sexagesimal").joinpath("data/plimpton322.tsv").read_text("utf-8")
        rows = [line for line in text.splitlines() if line and not line.startswith("#")]
        assert len(rows) == 15
        for line in rows:
            index, ratio, a, d = line.split("\t")
            assert 1 <= int(index) <= 15
            for field in (ratio, a, d):
                decode_glyphs(field)  # verbatim strings all decode


class TestNoExpansion:
    # these callers keep only the rounded number, so they build no Expansion
    @pytest.fixture(autouse=True)
    def _no_expand(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("exact._expand was called")

        monkeypatch.setattr(exact, "_expand", refuse)

    def test_heron_sqrt(self):
        assert str(heron_sqrt(2, precision=8).value) == "1;24:51:10:7:46:6:4:44"
        assert str(heron_sqrt(Fraction(1, 10**8), precision=8).value) == "0;0:0:21:36"

    def test_plimpton_rows(self):
        row = plimpton_row_compute(119, 169, 1)
        assert row.ratio_digits.canonical_text() == "1;59:0:15"
        assert all(diff.ok for diff in reconstruct_table())


def test_nonterminating_ratio_names_its_cofactor():
    # a = 24, d = 25 gives b = 7, so (d/b)^2 = 625/49 has no finite expansion
    with pytest.raises(DomainError, match=r"expansion of 625/49 does not terminate \(denominator cofactor 49\)"):
        plimpton_row_compute(24, 25, 1)
