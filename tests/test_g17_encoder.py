"""The snapshot writer's float encoder against its oracle, `'%.17g' %`."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tridg.textio as textio


def encoded(values):
    """Each value's bytes from textio._encode_g17, NUL padding dropped."""
    v = np.asarray(values, dtype=np.float64)
    out = np.zeros((len(v), textio.G17_WORDS), np.uint64)
    textio._encode_g17(v, out)
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
    fmt = textio._fmt
    monkeypatch.setattr(textio, "_fmt", lambda x: calls.append(x) or fmt(x))
    fast = [0.0, -0.0, 1.0, -2 / 3, 2e-280, -5e279, 0.1, 123456.789, 1e16]
    slow = [np.nan, np.inf, -np.inf, 5e-324, 1e-300, -1e300,
            26215 * 2.0 ** -18]
    assert_matches_oracle(fast + slow)
    assert [repr(x) for x in calls] == [repr(x) for x in slow]


def reference_g17_tables():
    """The encoder's tables built as first written: each power of ten from
    its own `10 ** p`, the digit groups by int64 floor division."""
    e_min, e_max = textio.G17_EXPONENTS
    pow_hi, pow_lo = [], []
    for p in range(16 - e_min, 15 - e_max, -1):
        if p >= 0:
            hi = float(10 ** p)
            lo = float(10 ** p - int(hi))
        else:
            hi = 1 / 10 ** -p
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10 ** -p) / (den * 10 ** -p)
        pow_hi.append(hi)
        pow_lo.append(lo)
    chars = ((np.arange(10000)[:, None] // [1000, 100, 10, 1]) % 10
             + ord("0")).astype(np.uint8)
    spread = np.full((10000, 8), ord("."), np.uint8)
    spread[:, ::2] = chars
    nonzero = chars != ord("0")
    length = np.where(nonzero.any(axis=1),
                      4 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    ends = np.stack([np.where(length > 0, 1 + 4 * k + length, 0)
                     for k in range(4)]).astype(np.uint8)
    byte = np.arange(8)
    kept = np.arange(18)[:, None, None]
    point = np.arange(18)[None, :, None]
    masks = []
    for k in range(4):
        digit = 1 + 4 * k + byte // 2
        show = np.where(byte % 2 == 0, digit < kept, digit == point - 1)
        masks.append((show * 0xFF).astype(np.uint8).reshape(-1, 8))
    e = np.arange(e_min, e_max + 2)
    fixed = (e >= -4) & (e < 17)
    int_digits = np.where(fixed, np.maximum(e + 1, 0), 1).astype(np.uint8)
    heads = np.zeros((2, 5, 2, 10, 8), np.uint8)
    heads[1, ..., 0] = ord("-")
    for zeros in range(1, 5):
        heads[:, zeros, :, :, 1:2 + zeros] = np.frombuffer(
            b"0." + b"0" * (zeros - 1), np.uint8)
    heads[..., 6] = ord("0") + np.arange(10)
    heads[:, :, 1, :, 7] = ord(".")
    heads = heads.transpose(1, 0, 2, 3, 4).reshape(5, -1).view(np.uint64)
    exps = textio._text_words([b"" if f else b"e%+03d" % x
                               for x, f in zip(e.tolist(), fixed)])[:, 0]
    pow_hi = np.array(pow_hi)
    return (*textio._dekker_split(pow_hi), np.array(pow_lo),
            spread.view(np.uint64)[:, 0], ends,
            [m.view(np.uint64)[:, 0] for m in masks], int_digits,
            heads[np.where(fixed & (e < 0), -e, 0)].ravel(), exps)


def test_tables_equal_their_first_construction():
    got = textio._g17_tables()
    want = reference_g17_tables()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, list):
            assert len(g) == len(w)
        else:
            g, w = [g], [w]
        for a, b in zip(g, w):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
