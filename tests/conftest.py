import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import settings, strategies as st

import sexagesimal
from sexagesimal import SexNumber

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


@st.composite
def sex_numbers(draw, max_digits=10):
    digits = draw(st.lists(st.integers(0, 59), min_size=1, max_size=max_digits))
    frac_count = draw(st.integers(0, len(digits)))
    sign = draw(st.sampled_from([-1, 1]))
    return SexNumber.from_digits(sign, digits, frac_count)


def rationals(max_num=10**6, max_den=10**6, min_value=None):
    strat = st.fractions(max_denominator=max_den).filter(
        lambda f: abs(f.numerator) <= max_num
    )
    if min_value is not None:
        strat = strat.filter(lambda f: f > min_value)
    return strat


def nonzero_rationals():
    return rationals().filter(lambda f: f != 0)


def kept_digits(record):
    """The bytes a record keeps of each of its digit fields, by field name."""
    return {name: vars(record)[key] for name, key in type(record)._digit_keys.items()}


def assert_same_record(built, expected):
    """``built`` and ``expected`` are the same record: equal, with equal
    types, fields, hashes, reprs, pickles and copies, the same bytes kept of
    each digit field, and equal attributes once the fields are read.  For
    records a builder made without the constructor's checks, against the
    constructor's."""
    assert kept_digits(built) == kept_digits(expected)
    assert all(type(digits) is bytes for digits in kept_digits(built).values())
    assert built == expected and type(built) is type(expected)
    assert vars(built) == vars(expected)
    assert hash(built) == hash(expected)
    assert repr(built) == repr(expected)
    assert pickle.dumps(built) == pickle.dumps(expected)
    assert pickle.loads(pickle.dumps(built)) == expected
    assert copy.copy(built) == expected and copy.deepcopy(built) == expected


def frac_stream(num, den, base, count):
    """The first ``count`` fractional digits of num/den by long division."""
    digits, rem = [], num % den
    for _ in range(count):
        rem *= base
        digits.append(rem // den)
        rem %= den
    return digits


def run_python(args, timeout, env=None, text=True):
    """Run a fresh interpreter on ``args`` with the package under test on its
    path and the variables of ``env`` added to the environment. A run still
    going after ``timeout`` seconds is killed and raises
    `subprocess.TimeoutExpired`, so a hang fails the test instead of
    holding the suite. Its output is UTF-8 text, or bytes when ``text`` is
    false."""
    src = str(Path(sexagesimal.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, **(env or {}), PYTHONPATH=pythonpath)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=text,
        encoding="utf-8" if text else None,
        timeout=timeout,
        env=env,
    )


__all__ = [
    "sex_numbers", "rationals", "nonzero_rationals", "assert_same_record", "kept_digits", "frac_stream", "run_python",
    "Fraction",
]
