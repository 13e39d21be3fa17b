"""CSV text at numpy speed, each float written byte for byte as ``'%.17g' %``.

:func:`rows` turns equal-length 1-D columns into CSV lines, 1024 rows at a
time. In a block each distinct column object becomes one byte matrix, a
text a row, padded with 0xFF, a byte no UTF-8 text holds: floats through
:func:`g17`, bools through a ``True``/``False`` table and anything else
through ``%s``. The matrices and the separators are concatenated and the
padding is deleted.

:func:`g17` forms the correctly rounded 17 significant digits that Gay's
``dtoa`` gives ``'%.17g' %``, for a whole array at once. For ``1e-280 <=
|x| <= 1e280`` and ``E = floor(log10 |x|)`` it takes ``|x| * 10**(16 - E)``
as a double-double: Dekker's exact product (1971) of ``|x|`` and the
correctly rounded power, plus ``|x|`` times the power's rounding residual.
The error is below 1e-13 of a unit in the 17th digit, so the digits are
exact wherever the fraction to round lies more than ``_BAND`` from 1/2. The
others, exact ties among them, and ±0, inf, NaN, subnormals and the values
outside that range go to ``'%.17g' %`` itself: the fast path never guesses.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import cache

import numpy as np

BLOCK = 1024  # rows per block: only one block's text is held at a time
_LO, _HI = 1e-280, 1e280  # every partial product of the scaling stays normal
_BAND = 1e-6  # a rounding fraction this close to 1/2 is left to '%.17g' %
_K0, _K1 = -267, 300  # the power table holds 10**k for _K0 <= k < _K1
_E0 = 300  # the exponent tables hold E for -_E0 <= E < _E0
_HEAD, _TAIL = 10000, 10020 + _E0  # in the word table, the head of 0 and the tail of E = 0
_PLACE = np.array([[0], [4], [8], [12]], np.int8)  # the digit index before each group
_PAD = b"\xff"  # no UTF-8 text holds this byte
_BOOL = np.frombuffer(b"FalseTrue" + _PAD, np.uint8).reshape(2, 5)


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of ``v`` into 26-bit halves that sum to it exactly."""
    c = v * 134217729.0
    hi = c - (c - v)
    return hi, v - hi


def _powers() -> np.ndarray:
    """``10**k``, its halves and its residual, by ``k - _K0``.

    The power and the residual are correctly rounded, from integer
    arithmetic only: CPython's ``float(int)`` and ``int / int`` round
    correctly, and ``ldexp`` of a normal result is exact.
    """
    table = []
    q = 10 ** -_K0
    for _ in range(_K0, 0):
        h = 1 / q
        num, den = h.as_integer_ratio()  # den is a power of 2
        table.append([h, math.ldexp((den - num * q) / q, 1 - den.bit_length())])
        q //= 10
    for _ in range(_K1):
        h = float(q)
        table.append([h, float(q - int(h))])
        q *= 10
    hi, lo = np.array(table).T
    return np.stack([hi, *_split(hi), lo])


def _words() -> tuple[np.ndarray, np.ndarray]:
    """Every 4-digit group, then the head by its first digit and sign, then
    the tail by E, each as one 8-byte word; and, by group, the place of its
    last digit that is not 0, or -32 for a group of zeros.

    A text is laid out in six words, padded where it has no character::

        - 0 . 0 0 0 d0 .  |  d . d . d . d .  (four times)  |  e ± h t o

    "0." and three zeros serve fixed notation below 1, and a "." after each
    of the first 16 digits serves each place of the decimal point.
    """
    digit = np.arange(10, dtype=np.uint8) + ord("0")
    groups = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)
    groups[..., 0] = digit[:, None, None, None]
    groups[..., 2] = digit[:, None, None]
    groups[..., 4] = digit[:, None]
    groups[..., 6] = digit
    groups = groups.reshape(10000, 8)
    heads = np.tile(np.frombuffer(b"-0.000d.", np.uint8), (20, 1))  # by d0, then by -d0
    heads[:10, 0] = _PAD[0]
    heads[:, 6] = np.tile(digit, 2)
    exps = np.arange(-_E0, _E0)
    tails = np.zeros((2 * _E0, 8), np.uint8)
    tails[:, 0] = ord("e")
    tails[:, 1] = np.where(exps < 0, ord("-"), ord("+"))
    tails[:, 2:5] = groups[np.abs(exps), 2::2]
    place = np.where(groups[:, ::2] > ord("0"), np.arange(1, 5, dtype=np.int8), -32)
    return (np.concatenate([groups, heads, tails]).view(np.uint64).ravel(),
            place.max(axis=1))


def _drop() -> tuple[np.ndarray, np.ndarray]:
    """The bytes each text pads, past its sign, as rows of six words, by
    ``layout + last``, with ``last`` the index of the last digit that is not
    0; and the layout by E.

    A layout is ``17 * (E + 4)`` for fixed notation, ``-4 <= E < 17``, and
    ``17 * 21`` and ``17 * 22`` for ``d.ddde±XX`` with two and with three
    exponent digits.
    """
    layout = np.arange(23)[:, None, None]
    nd = np.arange(1, 18)[:, None]  # significant digits
    b = np.arange(48)  # the byte, and the digit or point there
    digits = (b >= 6) & (b < 40)
    digit = np.where(digits & (b % 2 == 0), b // 2 - 3, 99)
    point = np.where(digits & (b % 2 == 1), b // 2 - 3, 99)
    e = layout - 4
    fixed = layout <= 20
    at = np.where(fixed, e, 0)  # the point follows digit ``at`` if any follow it
    keep = ((digit < np.where(fixed, np.maximum(nd, e + 1), nd))
            | ((point == at) & (nd > at + 1))
            | ((e < 0) & (b >= 1) & (b < 2 - e))  # 0.000
            | (~fixed & (b >= 40) & (b <= 44) & ((b != 42) | (layout == 22)))
            | (b == 0))
    exps = np.arange(-_E0, _E0)
    by_e = np.where(np.abs(exps) >= 100, 22, np.where(exps < -4, 21, np.minimum(exps + 4, 21)))
    return (~keep * np.uint8(_PAD[0])).view(np.uint64).reshape(-1, 6), 17 * by_e


@cache
def _tables() -> tuple[np.ndarray, ...]:
    """The tables :func:`g17` reads, built on first use: a process that
    formats no float pays nothing for them."""
    return _powers(), *_words(), *_drop()


def _scaled(a: np.ndarray, e: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(16 - e)`` as its integer part and its fraction."""
    h, hh, hl, lo = powers[:, 16 - _K0 - e]
    p = a * h
    ah, al = _split(a)
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # p + err is a * h exactly
    pf = np.floor(p)  # p is an integer from 2**53 up, not always below
    t = (p - pf) + (err + a * lo)
    tf = np.floor(t)
    return pf.astype(np.int64) + tf.astype(np.int64), t - tf


def g17(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each float ``v`` of the 1-D ``x``, as the rows of
    a ``(len(x), 48)`` byte matrix padded with ``_PAD``."""
    powers, word_table, last_place, drop, layout = _tables()
    a = np.abs(x)
    fast = (a >= _LO) & (a <= _HI)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _scaled(a, e, powers)
    # log10 can be one off next to a power of ten, as the digit count shows
    low, high = d < 10**16, d >= 10**17
    fix = low | high
    if fix.any():
        e += high
        e -= low
        d[fix], frac[fix] = _scaled(a[fix], e[fix], powers)
    fast &= np.abs(frac - 0.5) >= _BAND
    d += frac > 0.5
    carry = d == 10**17
    d[carry] = 10**16
    e += carry

    # each text's six words, as indices in the word table
    words = np.empty((6, len(x)), np.intp)
    q = d // 10**8
    r = d - q * 10**8
    h = q // 10**4
    np.floor_divide(h, 10**4, out=words[0])
    np.subtract(h, words[0] * 10**4, out=words[1])
    np.subtract(q, h * 10**4, out=words[2])
    np.floor_divide(r, 10**4, out=words[3])
    np.subtract(r, words[3] * 10**4, out=words[4])
    words[0] += _HEAD + 10 * np.signbit(x)
    np.add(e, _TAIL, out=words[5])
    last = last_place[words[1:5]] + _PLACE
    last = np.maximum(np.maximum(last[0], last[1]), np.maximum(last[2], last[3]))
    out = np.take(word_table, words.T, out=np.empty((len(x), 6), np.uint64))
    out |= drop[layout[e + _E0] + np.maximum(last, 0)]
    out = out.view(np.uint8)

    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = b"".join((b"%.17g" % v).ljust(48, _PAD) for v in x[slow].tolist())
        out[slow] = np.frombuffer(texts, np.uint8).reshape(-1, 48)
    return out


def _cells(part: np.ndarray) -> np.ndarray:
    """The padded texts of one column's block."""
    if part.dtype.kind == "f":
        return g17(part.astype(np.float64, copy=False))
    if part.dtype.kind == "b":
        return _BOOL[part.view(np.uint8)]
    texts = [str(v).encode("utf-8") for v in part.tolist()]
    width = max(map(len, texts))
    texts = b"".join(t.ljust(width, _PAD) for t in texts)
    return np.frombuffer(texts, np.uint8).reshape(len(part), width)


def _block(columns: list[np.ndarray], start: int) -> np.ndarray:
    """The padded lines of the block of rows from ``start``, each distinct
    column object formatted once."""
    cells = {}
    for c in columns:
        if id(c) not in cells:
            cells[id(c)] = _cells(c[start:start + BLOCK])
    ends = np.full((min(BLOCK, len(columns[0]) - start), len(columns)), ord(","), np.uint8)
    ends[:, -1] = ord("\n")
    return np.concatenate([a for j, c in enumerate(columns)
                           for a in (cells[id(c)], ends[:, j:j + 1])], axis=1)


def rows(columns: list[np.ndarray]) -> Iterator[bytes]:
    """The CSV lines of equal-length 1-D ``columns``, one block at a time."""
    for start in range(0, len(columns[0]) if columns else 0, BLOCK):
        yield _block(columns, start).tobytes().translate(None, _PAD)
