"""``io.format_floats`` against ``format(x, ".17g")``, element by element."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from latmech import io


def assert_formats_like_format(values):
    values = np.asarray(values, dtype=float)
    text = io.format_floats(values)
    assert text.shape == values.shape
    assert text.reshape(-1).tolist() == [
        format(v, ".17g").encode() for v in values.reshape(-1).tolist()
    ]


def exact_ties(rng, per_exponent=20):
    """Doubles whose exact decimal value has 18 significant digits ending in
    5, such as 1234567890123456.75: m / 2^(q+1) with m odd, so that
    m 5^q / 2 = N + 1/2 with N a 17-digit integer."""
    out = []
    for q in range(1, 25):
        five = 5**q
        low = -(-(2 * 10**16 + 1) // five)
        high = min(2 * 10**17 // five, 2**53 - 1)
        if low <= high:
            out += [math.ldexp(int(m) | 1, -(q + 1))
                    for m in rng.integers(low, high, per_exponent, endpoint=True)]
    return out


def near_ties():
    """Doubles x with x 10^q within t / 2^k of N + 1/2 (t = ±1, ±2, k = 40 .. 59),
    for q = 23 .. 45, where 10^q has a nonzero low double: x = m 2^-(q+k) with
    m 5^q = 2^(k-1) + t modulo 2^k."""
    out = []
    for q in range(23, 46):
        five = 5**q
        for k in range(40, 60):
            low = -(-(10**16 << k) // five)
            high = min(-(-(10**17 << k) // five), 1 << 53)
            for t in (-2, -1, 1, 2):
                residue = ((1 << (k - 1)) + t) * pow(five, -1, 1 << k) % (1 << k)
                first = low + (residue - low) % (1 << k)
                out += [math.ldexp(m, -(q + k)) for m in range(first, high, 1 << k)[:4]]
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_property_format_floats_is_format_17g(values):
    assert_formats_like_format(values)


def test_format_floats_sweep():
    # Random bit patterns, 200k with a binary exponent in the array path's
    # window (2^-100 .. 2^57) and 20k of any exponent; the powers of ten and
    # their neighbours at the exponent boundaries; exact and near rounding
    # ties, which the array path must hand to format.
    rng = np.random.default_rng(22)
    bits = rng.integers(0, 2**64, 220_000, dtype=np.uint64, endpoint=False)
    exponents = rng.integers(1023 - 100, 1023 + 57, 200_000, dtype=np.uint64, endpoint=True)
    bits[:200_000] = bits[:200_000] & ~np.uint64(0x7FF << 52) | exponents << np.uint64(52)
    powers = np.array([10.0**k for k in range(-30, 18)])
    ties = np.array(exact_ties(rng) + near_ties())
    assert len(ties) > 500
    assert_formats_like_format(np.concatenate([
        bits.view(np.float64), powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        ties, -ties, [1234567890123456.75, -1234567890123456.75],
    ]))


def test_format_floats_keeps_the_shape():
    assert_formats_like_format(np.linspace(-2.0, 2.0, 12).reshape(3, 4))
    assert_formats_like_format(0.1)
    assert_formats_like_format(np.zeros((0, 3)))


def test_powers_of_ten_split_exactly_into_two_doubles():
    # The double-double 10^q = hi + lo the formatter multiplies by is exact.
    for q, (hi, lo) in enumerate(zip(io._P10_HI.tolist(), io._P10_LO.tolist())):
        assert int(hi) + int(lo) == 10**q
