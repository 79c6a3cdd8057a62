"""The snapshot writer's float encoder against its oracle, `'%.17g' %`."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tridg.cli as cli


def encoded(values):
    """Each value's bytes from cli._encode_g17, NUL padding dropped."""
    v = np.asarray(values, dtype=np.float64)
    out = np.zeros((len(v), cli.G17_WORDS), np.uint64)
    cli._encode_g17(v, out)
    # the snapshot writer puts "\r\n" in the last three bytes
    assert not out.view(np.uint8)[:, 45:].any()
    return [row.tobytes().translate(None, b"\0") for row in out]


def assert_matches_oracle(values):
    v = np.asarray(values, dtype=np.float64).tolist()
    bad = [(x, got) for x, got in zip(v, encoded(v))
           if got != ("%.17g" % x).encode()]
    assert not bad, bad[:10]


any_bits = st.integers(0, 2 ** 64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.lists(st.one_of(st.floats(), any_bits), min_size=1, max_size=64))
def test_any_float64_matches_oracle(values):
    assert_matches_oracle(values)


def test_random_bit_patterns_and_scaled_normals_match_oracle():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(np.float64)
    scaled = (rng.standard_normal(20000)
              * 10.0 ** rng.integers(-12, 24, 20000))
    assert_matches_oracle(np.concatenate([bits, scaled]))


def with_neighbours(values):
    v = np.asarray(values, dtype=np.float64)
    v = np.concatenate([v, np.nextafter(v, 0), np.nextafter(v, np.inf)])
    return np.concatenate([v, -v])


def test_powers_of_ten_and_neighbours_match_oracle():
    assert_matches_oracle(with_neighbours(
        [float(f"1e{p}") for p in range(-300, 301)]))


def test_exact_ties_match_oracle():
    # M * 2**-(17 - j) with M odd in [10**j, 10**(j + 1)) * 2**(17 - j) has
    # 18 significant digits ending in 5: a tie at the 17th
    rng = np.random.default_rng(1)
    ties = []
    for j in range(-7, 15):
        k = 17 - j
        lo = math.ceil(10.0 ** j * 2 ** k)
        hi = min(10 * lo, 2 ** 53)
        m = rng.integers(lo // 2, hi // 2, 400) * 2 + 1
        ties.append(m * 2.0 ** -k)
    # N + 1/4 and N + 3/4 with 16 integer digits
    n = rng.integers(10 ** 15, 2 ** 51, 2000).astype(np.float64)
    ties += [n + 0.25, n + 0.75]
    ties = np.concatenate(ties)
    assert_matches_oracle(np.concatenate([ties, -ties]))


def test_g_switch_points_match_oracle():
    # fixed notation for -4 <= E < 17, exponent notation outside
    points = [1e-5, 1e-4, 1e16, 1e17, 9.99999999999999e-5,
              9.999999999999999e16]
    assert_matches_oracle(with_neighbours(points))


def test_three_digit_exponents_and_range_ends_match_oracle():
    values = [1.5e100, 1e-100, 1.2345e-250, 9.9e279, 1e-280, 1e280,
              1e-281, 1e281, 2.2250738585072014e-308, 5e-324, 1e-310]
    largest = np.finfo(np.float64).max
    assert_matches_oracle([*with_neighbours(values), largest, -largest,
                           np.nextafter(largest, 0)])


def test_values_with_one_significant_digit_match_oracle():
    # the 16 digits after the first are zeros: the trailing zeros stripped,
    # the integer part's zeros kept
    values = [d * 10.0 ** e for d in range(1, 10) for e in range(-25, 25)]
    values += [float(f"{d}e{e}") for d in range(1, 10)
               for e in range(-25, 25)]
    assert_matches_oracle(values + [-v for v in values])


@pytest.mark.parametrize("value,text", [
    # 10**p neighbours whose 17 digits do not round up to 10**p: the digit
    # range is checked before rounding
    (9.9999999999999997e-29, b"9.9999999999999997e-29"),
    (9.9999999999999991e-06, b"9.9999999999999991e-06"),
    # 16 zeros after the leading digit: stripped after the point only
    (100.0, b"100"), (3e16, b"30000000000000000"), (1e17, b"1e+17"),
    (0.5, b"0.5"), (-0.0, b"-0"), (0.0, b"0"),
    (1e-5, b"1.0000000000000001e-05"),
])
def test_known_cases(value, text):
    assert encoded([value]) == [text]
    assert ("%.17g" % value).encode() == text


def test_only_unprovable_values_take_fmt(monkeypatch):
    calls = []
    fmt = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda x: calls.append(x) or fmt(x))
    fast = [0.0, -0.0, 1.0, -2 / 3, 2e-280, -5e279, 0.1, 123456.789, 1e16]
    slow = [np.nan, np.inf, -np.inf, 5e-324, 1e-300, -1e300,
            26215 * 2.0 ** -18]
    assert_matches_oracle(fast + slow)
    assert [repr(x) for x in calls] == [repr(x) for x in slow]
