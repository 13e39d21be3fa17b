"""The vectorised ``%.17g`` of ``smilecal._csv`` against Python's own
``'%.17g' %``, byte for byte, on random bit patterns, every power of ten and
its neighbours, exact rounding ties, the special values and the block edge.
"""

import math
import sys

import numpy as np
import pytest

from smilecal._csv import BLOCK, g17, rows

DBL_MAX = sys.float_info.max
TINY = sys.float_info.min  # the least normal float


def _texts(values: np.ndarray) -> list[bytes]:
    """``g17``'s texts, one block at a time, with the padding deleted."""
    out = []
    for start in range(0, len(values), BLOCK):
        out += [row.tobytes().translate(None, b"\xff")
                for row in g17(values[start:start + BLOCK])]
    return out


def _assert_g17(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    want = [b"%.17g" % v for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), _texts(values), want) if g != w]
    assert bad == [], bad[:5]


def _significant_digits(x: float) -> str:
    """The exact decimal significand of ``x``, trailing zeros stripped."""
    num, den = abs(x).as_integer_ratio()  # den is 2**s, so x = num * 5**s / 10**s
    return str(num * 5 ** (den.bit_length() - 1)).rstrip("0")


def test_random_bit_patterns():
    bits = np.random.default_rng(30).integers(0, 2**64, 120_000, dtype=np.uint64,
                                               endpoint=False)
    _assert_g17(bits.view(np.float64))


def test_powers_of_ten_and_their_neighbours():
    # the fast range is [1e-280, 1e280]; this runs past both of its edges
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    powers = powers[powers > 0.0]
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    _assert_g17(np.concatenate([values, -values]))


def test_exact_ties():
    # a * (1 + 2**-n) whose exact decimal has 18 digits ending in 5 lies
    # exactly halfway between two 17-digit decimals
    ties = []
    for n in range(1, 53):
        for a in (1, 3, 5, 7, 9, 11, 13, 27, 81, 123):
            for j in range(-80, 81):
                x = math.ldexp(a * (1.0 + 2.0**-n), j)
                digits = _significant_digits(x)
                if len(digits) == 18 and digits.endswith("5"):
                    ties.append(x)
    odd = [x for x in ties if int(_significant_digits(x)[16]) % 2]
    assert len(ties) > 700 and len(odd) > 300  # both ways of rounding half to even
    _assert_g17(np.concatenate([ties, np.negative(ties)]))


def test_special_values():
    _assert_g17([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                 TINY, -TINY, np.nextafter(TINY, 0.0), 1e-310, DBL_MAX, -DBL_MAX,
                 1e16, 1e17, 9999999999999999.0, 99999999999999999.0, 1e-4, 1e-5,
                 0.1, 1.0 / 3.0, 0.30000000000000004, 123456789012345678.0])


@pytest.mark.parametrize("edge", [BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK])
def test_both_sides_of_the_block_edge(edge):
    x = np.random.default_rng(edge).normal(size=2 * BLOCK + 1)
    flag = x > 0.0
    x[[edge - 1, edge]] = [-0.0, 1.0 + 2.0**-17]  # a fallback and a tie
    got = b"".join(rows([x, flag, x]))
    want = b"".join(b"%.17g,%s,%.17g\n" % (v, str(f).encode(), v)
                    for v, f in zip(x.tolist(), flag.tolist()))
    assert got == want
