"""Heron iteration, divisor analysis, triples, and the table reconstruction."""

import math
import random
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
from sexagesimal.algorithms import RATIO_SHORT, HeronResult
from sexagesimal.floating import SexFloat


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

    def test_operand_bound_is_checked_before_each_step(self, monkeypatch):
        # the last step of sqrt(2) from 1000 starts from an iterate of `last`
        # bits, the largest it steps from
        result = heron_sqrt(2, start=1000, precision=8)
        cur = Fraction(1000)
        for _ in range(result.iterations - 1):
            cur = (cur + 2 / cur) / 2
        last = cur.numerator.bit_length() + cur.denominator.bit_length()
        monkeypatch.setattr(algorithms, "HERON_OPERAND_BITS", last)
        assert heron_sqrt(2, start=1000, precision=8) == result
        monkeypatch.setattr(algorithms, "HERON_OPERAND_BITS", last - 1)
        with pytest.raises(DomainError, match=f"passed {last - 1} bits"):
            heron_sqrt(2, start=1000, precision=8)

    @settings(max_examples=30)
    @given(
        st.fractions(min_value=Fraction(1, 1000), max_value=10**6, max_denominator=1000),
        st.sampled_from(["one", "self", "default"]),
        st.integers(2, 8),
    )
    def test_convergence_properties(self, a, start_kind, precision):
        start = {"one": Fraction(1), "self": a, "default": _documented_start(a)}[start_kind]
        scale = 60**precision

        # independent run of the recurrence (cur + a/cur)/2 over unreduced
        # integers, keeping every iterate p/q and residual |nxt - cur| as a
        # (numerator, denominator) pair: with a = A/B, nxt = (Bp^2 + Aq^2) /
        # 2Bpq, and cur = p/q is 2Bp^2 over that denominator.  No gcd is
        # taken, and every comparison below is a cross-multiplication.
        A, B = a.numerator, a.denominator
        p, q = start.numerator, start.denominator
        iterates, residuals = [], []
        for _ in range(200):
            p, q, cur_p = B * p * p + A * q * q, 2 * B * p * q, 2 * B * p * p
            iterates.append((p, q))
            residuals.append((abs(p - cur_p), q))
            if residuals[-1][0] * scale < q:
                break
        else:
            pytest.fail("oracle iteration did not converge")

        # overshoot: from the first iterate on, x_n^2 >= a (exact), compared
        # as p^2 * B >= A * q^2 for x_n = p/q
        for p, q in iterates:
            assert p**2 * B >= A * q**2

        # residuals are eventually strictly decreasing
        tail = residuals[1:]
        assert all(n1 * d0 < n0 * d1 for (n0, d0), (n1, d1) in zip(tail, tail[1:]) if n0 != 0)

        result = heron_sqrt(a, None if start_kind == "default" else start, precision)
        assert result.iterations == len(residuals)
        n, d = residuals[-1]
        assert result.residual.numerator * d == n * result.residual.denominator

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


def _fraction_heron(x, cur, precision):
    # the exact-`Fraction` loop of earlier versions, a full gcd per operation;
    # returns the result and the bit sizes of the iterates it stepped from
    eps = Fraction(1, 60**precision)
    iterations, residual, sizes = 0, eps, []
    while residual >= eps:
        sizes.append(cur.numerator.bit_length() + cur.denominator.bit_length())
        if sizes[-1] > algorithms.HERON_OPERAND_BITS:
            raise DomainError(f"iterate passed {algorithms.HERON_OPERAND_BITS} bits (HERON_OPERAND_BITS) before converging")
        nxt = (cur + x / cur) / 2
        residual = abs(nxt - cur)
        cur = nxt
        iterations += 1
    number = exact._round_to(cur, precision)
    if number.is_zero:
        value = SexFloat.zero(precision)
    else:
        int_width = 0 if number.int_digits == (0,) else len(number.int_digits)
        value = SexFloat.from_sex_number(number, precision=int_width + precision)
    return HeronResult(value=value, iterations=iterations, residual=residual), sizes


class TestHeronAgainstFractionLoop:
    @staticmethod
    def _cases(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            x = Fraction(rng.randrange(1, 10 ** rng.randrange(1, 6)), rng.randrange(1, 10 ** rng.randrange(1, 4)))
            # explicit starts within a few hundredfold of the root, where the
            # reference loop stays fast
            near = Fraction(math.isqrt(x.numerator * 3600 // x.denominator) + 1, 60)
            start = rng.choice([None, Fraction(1), x, near * Fraction(rng.randrange(1, 30), rng.randrange(1, 30))])
            yield x, start, rng.randrange(1, 13)

    def test_results_equal(self):
        for x, start, precision in self._cases(1, 500):
            expected, _ = _fraction_heron(x, _documented_start(x) if start is None else start, precision)
            result = heron_sqrt(x, start, precision)
            assert result == expected, (x, start, precision)
            # equal as values and in lowest terms, as the benchmark reads it
            assert result.residual.denominator == expected.residual.denominator

    def test_prime_powers_shared_with_the_iterate(self):
        # A, B and the start share powers of 2, 3 and 5, so gcd(A, p) and
        # gcd(B, q) leave cofactors with common primes to reduce
        rng = random.Random(4)
        for _ in range(200):
            x = Fraction(2 ** rng.randrange(8) * 3 ** rng.randrange(8) * rng.choice([1, 7, 11]),
                         5 ** rng.randrange(6) * 2 ** rng.randrange(6) * rng.choice([1, 3, 13]))
            start = _documented_start(x) * Fraction(2 ** rng.randrange(4) * 3 ** rng.randrange(3), 5 ** rng.randrange(3))
            precision = rng.randrange(1, 17)
            expected, _ = _fraction_heron(x, start, precision)
            assert heron_sqrt(x, start, precision) == expected, (x, start, precision)

    def test_wide_operands(self):
        # x = A/B of hundreds of bits, where the gcds against 2AB are long
        rng = random.Random(3)
        for _ in range(20):
            x = Fraction(rng.getrandbits(rng.randrange(1, 400)) + 1, rng.getrandbits(rng.randrange(1, 300)) + 1)
            precision = rng.randrange(1, 33)
            expected, _ = _fraction_heron(x, _documented_start(x), precision)
            assert heron_sqrt(x, precision=precision) == expected, (x, precision)

    def test_operand_bound_stops_at_the_same_iterate(self, monkeypatch):
        # with the bound at the largest iterate the loop steps from, both
        # finish; one bit below it, both refuse that same iterate
        for x, start, precision in self._cases(2, 100):
            monkeypatch.undo()
            start = _documented_start(x) if start is None else start
            expected, sizes = _fraction_heron(x, start, precision)
            monkeypatch.setattr(algorithms, "HERON_OPERAND_BITS", max(sizes))
            assert heron_sqrt(x, start, precision) == expected
            monkeypatch.setattr(algorithms, "HERON_OPERAND_BITS", max(sizes) - 1)
            with pytest.raises(DomainError) as raised:
                _fraction_heron(x, start, precision)
            with pytest.raises(DomainError) as caught:
                heron_sqrt(x, start, precision)
            assert str(caught.value) == str(raised.value)

    def test_far_start_reduces_by_gcds_against_2ab_only(self, monkeypatch):
        # x = 2 = A/B: every gcd of the iteration has an argument of at most
        # bits(2AB) + 1 bits.  Full gcds of the 2M-bit iterates here took
        # about 4 of the `Fraction` loop's 5.5 s on CPython 3.11.
        widths = []
        gcd = math.gcd

        def counted(*args):
            widths.append(min(arg.bit_length() for arg in args))
            return gcd(*args)

        monkeypatch.setattr(math, "gcd", counted)
        with pytest.raises(DomainError, match="HERON_OPERAND_BITS"):
            heron_sqrt(2, start=10**6, precision=64)
        monkeypatch.undo()
        assert widths
        assert max(widths) <= (2 * 2 * 1).bit_length() + 1


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


def _semiperimeter_area(a, b, c, precision):
    # the radicand of earlier versions: s(s-a)(s-b)(s-c) in `Fraction`s
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if min(a, b, c) <= 0:
        raise DomainError("sides must be positive")
    s = (a + b + c) / 2
    radicand = s * (s - a) * (s - b) * (s - c)
    if radicand <= 0:
        raise DomainError("degenerate or impossible triangle")
    return heron_sqrt(radicand, precision=precision).value


class TestHeronAreaAgainstSemiperimeter:
    @pytest.mark.parametrize("denominators", [(1, 1, 1), (2, 3, 7), (12, 1, 60), (1000, 999, 1)])
    def test_random_sides(self, denominators):
        rng = random.Random(sum(denominators))
        for _ in range(100):
            sides = [Fraction(rng.randrange(-2, 200), den) for den in denominators]
            precision = rng.randrange(1, 17)
            try:
                expected = _semiperimeter_area(*sides, precision)
            except DomainError as exc:
                with pytest.raises(DomainError) as caught:
                    heron_area(*sides, precision)
                assert str(caught.value) == str(exc)
            else:
                assert heron_area(*sides, precision) == expected

    @pytest.mark.parametrize(
        "sides, message",
        [
            ((1, 2, 3), "degenerate or impossible triangle"),
            ((Fraction(1, 2), Fraction(1, 3), Fraction(5, 6)), "degenerate or impossible triangle"),
            ((1, 1, 3), "degenerate or impossible triangle"),
            ((Fraction(1, 7), 1, 3), "degenerate or impossible triangle"),
            ((0, 4, 5), "sides must be positive"),
            ((3, -4, 5), "sides must be positive"),
            ((3, 4, Fraction(-1, 2)), "sides must be positive"),
            ((0, 1, 3), "sides must be positive"),
        ],
    )
    def test_errors(self, sides, message):
        with pytest.raises(DomainError) as raised:
            _semiperimeter_area(*sides, 8)
        with pytest.raises(DomainError) as caught:
            heron_area(*sides)
        assert str(caught.value) == str(raised.value) == message


def _trial_divisors(n):
    # trial division by every d up to sqrt(n), as in earlier versions
    small, large = [], []
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


class TestDivisorsAgainstTrialDivision:
    def test_every_n_to_20000(self):
        for n in range(2, 20001):
            assert nontrivial_divisors(n) == _trial_divisors(n), n

    @pytest.mark.parametrize(
        "n",
        [
            4, 9, 25, 49, 121, 997**2, 999983**2,  # prime squares
            997**2 * 1009, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31,
            999999999989, 999999999959, 999999999961,  # primes near 10**12
            999999999989 - 1, 999999999989 + 1, algorithms.DIVISORS_BOUND,
        ],
    )
    def test_large(self, n):
        assert nontrivial_divisors(n) == _trial_divisors(n)

    def test_over_bound_message(self):
        with pytest.raises(DomainError) as caught:
            nontrivial_divisors(algorithms.DIVISORS_BOUND + 1)
        assert str(caught.value) == "n must be at most 1000000000000 (divisors are found by trial division)"


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
        # 10**12 = 2**12 * 5**12 has 13 * 13 divisors, found by 2 and 5 alone
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

    @given(st.data())
    def test_valuations_match_the_loop(self, data):
        # the exponents come from the lowest set bit and `_valuation`; from
        # a few bits to past _DC_BITS they must be those of dividing out one
        # power at a time, for any cofactor (one with factors of 2, 3 or 5 too)
        bits = data.draw(st.integers(1, exact._DC_BITS + 24))
        a, b, c = (data.draw(st.integers(0, 120)) for _ in range(3))
        smooth = 2**a * 3**b * 5**c
        room = max(bits - smooth.bit_length(), 1)
        cofactor = data.draw(st.integers(1, 2**room - 1) | st.sampled_from([1, 7, 2**room - 1]))
        n = smooth * cofactor
        expected = []
        rest = n
        for p in (2, 3, 5):
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            expected.append(e)
        assert is_regular(n) == (rest == 1, *expected, rest)

    @pytest.mark.parametrize("k", [86, 87])
    def test_powers_of_sixty_at_the_cutoff(self, k):
        # 60**87 is the first power of 60 past _DC_BITS (512) bits
        assert is_regular(60**k) == (True, 2 * k, k, k, 1)
        assert is_regular(60**k * 7) == (False, 2 * k, k, k, 7)
        assert is_regular(60**k + 1) == (False, 0, 0, 0, 60**k + 1)

    def test_large_operand_within_deadline(self):
        # dividing out one prime power at a time is quadratic: 60**50000 * 7
        # (295k bits) took about 16 s that way, and takes 0.04 s by
        # valuations (CPython 3.11)
        code = (
            "import time\n"
            "from sexagesimal import is_regular\n"
            "start = time.perf_counter()\n"
            "reg = is_regular(60**50000 * 7)\n"
            "print(time.perf_counter() - start, *reg)\n"
        )
        proc = run_python(["-c", code], timeout=10)
        assert proc.returncode == 0, proc.stderr
        elapsed, *reg = proc.stdout.split()
        assert reg == ["False", "100000", "50000", "50000", "7"]
        assert float(elapsed) < 1.0


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
