"""CSV text at numpy speed, each float written byte for byte as ``'%.17g' %``.

:func:`rows` turns equal-length 1-D columns into CSV lines, a block of rows
at a time. A block holds every column for at most ``CAP`` values, and each
distinct column object is formatted once in it: all of its float columns
through one :func:`g17` call, bools through a ``True``/``False`` table and
anything else through ``%s``. Each text is a row of a byte matrix, padded
with 0xFF, a byte no UTF-8 text holds, and its last padding byte becomes
the ``,`` or ``\n`` after it; the padding is then deleted. ``CAP`` is set by
two limits measured on a 2-vCPU Xeon VM: above it a temporary of
:func:`g17` passes glibc's 128 KiB mmap threshold and is faulted in afresh
at each call, and far above it the temporaries leave the L2 cache. A block
of fewer than ``SMALL`` values is formatted by Python's ``%`` instead.

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

CAP = 2240  # values a block formats: g17's (CAP, 48) byte matrices stay under 128 KiB
SMALL = 100  # a block of fewer values is formatted by Python's '%', faster there
_LO, _HI = 1e-280, 1e280  # every partial product of the scaling stays normal
_BAND = 1e-6  # a rounding fraction this close to 1/2 is left to '%.17g' %
_E0 = 283  # the tables hold E = floor(log10 |x|) for -_E0 <= E <= _E0, a row by E + _E0
_HEAD, _TAIL = 10000, 10020  # in the word table, the head of 0 and the tail of E = -_E0
_PLACE = np.array([[0], [4], [8], [12]], np.int8)  # the digit index before each group
_PAD = b"\xff"  # no UTF-8 text holds this byte
_BOOL = np.frombuffer(b"False" + _PAD + b"True" + _PAD * 2, np.uint8).reshape(2, 6)


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of ``v`` into 26-bit halves that sum to it exactly."""
    c = v * 134217729.0
    hi = c - (c - v)
    return hi, v - hi


def _powers() -> np.ndarray:
    """``10**(16 - E)``, its halves and its residual, a row by ``E + _E0``.

    The power and the residual are correctly rounded, from integer
    arithmetic only: CPython's ``float(int)`` and ``int / int`` round
    correctly, and ``ldexp`` of a normal result is exact.
    """
    table = []
    q = 10 ** (_E0 - 16)
    for _ in range(_E0 - 16):
        h = 1 / q
        num, den = h.as_integer_ratio()  # den is a power of 2
        table.append([h, math.ldexp((den - num * q) / q, 1 - den.bit_length())])
        q //= 10
    for _ in range(_E0 + 17):
        h = float(q)
        table.append([h, float(q - int(h))])
        q *= 10
    hi, lo = np.array(table).T
    return np.stack([hi, *_split(hi), lo], axis=1)[::-1].copy()


def _words() -> tuple[np.ndarray, np.ndarray]:
    """Every 4-digit group, then the head by its first digit and sign, then
    the tail by ``E + _E0``, each as one 8-byte word; and, by group, the
    place of its last digit that is not 0, or -12 for a group of zeros, which
    is at most 0 after any group's offset in ``_PLACE``.

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
    exps = np.arange(-_E0, _E0 + 1)
    tails = np.zeros((2 * _E0 + 1, 8), np.uint8)
    tails[:, 0] = ord("e")
    tails[:, 1] = np.where(exps < 0, ord("-"), ord("+"))
    tails[:, 2:5] = groups[np.abs(exps), 2::2]
    place = np.where(groups[:, ::2] > ord("0"), np.arange(1, 5, dtype=np.int8), -12)
    return (np.concatenate([groups, heads, tails]).view(np.uint64).ravel(),
            place.max(axis=1))


def _drop() -> tuple[np.ndarray, np.ndarray]:
    """The bytes each text pads, past its sign, as rows of six words, by
    ``layout + last``, with ``last`` the index of the last digit that is not
    0, or 0 if there is none; and the layout by ``E + _E0``.

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
    exps = np.arange(-_E0, _E0 + 1)
    by_e = np.where(np.abs(exps) >= 100, 22, np.where(exps < -4, 21, np.minimum(exps + 4, 21)))
    return (~keep * np.uint8(_PAD[0])).view(np.uint64).reshape(-1, 6), 17 * by_e


@cache
def _tables() -> tuple[np.ndarray, ...]:
    """The tables :func:`g17` reads, built on first use: a process that
    formats no float pays nothing for them."""
    return _powers(), *_words(), *_drop()


def _scaled(a: np.ndarray, e: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(16 - E)`` as its integer part and its fraction.

    The product ``p`` is an integer wherever it reaches 2**53, as it does
    for the right E. For an E one too high it is below 10**16, and so is
    the integer part given, which is all the caller needs to see.
    """
    h, hh, hl, lo = powers.take(e, axis=0).T
    p = a * h
    ah, al = _split(a)
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # p + err is a * h exactly
    t = err + a * lo
    tf = np.floor(t)
    return p.astype(np.int64) + tf.astype(np.int64), t - tf


def g17(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each float ``v`` of the 1-D ``x``, as the rows of
    a ``(len(x), 48)`` byte matrix padded with ``_PAD``; the last byte of
    each row is always padding."""
    powers, word_table, last_place, drop, layout = _tables()
    ax = np.abs(x)
    a = np.fmax(np.fmin(ax, _HI), _LO)  # NaN too becomes a number in the fast range
    e = (np.log10(a) + _E0).astype(np.intp)  # E + _E0, truncated as it is positive
    d, frac = _scaled(a, e, powers)
    # log10 and the sum can be one off next to a power of ten, as the digit count shows
    fix = np.flatnonzero((d - 10**16).view(np.uint64) >= 9 * 10**16)
    if fix.size:
        e[fix] += np.where(d[fix] < 10**16, -1, 1)
        d[fix], frac[fix] = _scaled(a[fix], e[fix], powers)
    slow = np.flatnonzero((a != ax) | (np.abs(frac - 0.5) < _BAND))
    d += frac > 0.5
    carry = np.flatnonzero(d == 10**17)
    if carry.size:
        d[carry] = 10**16
        e[carry] += 1

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
    last = np.maximum.reduce(last_place.take(words[1:5]) + _PLACE)
    # a take on a contiguous index is several times faster than fancy indexing
    out = word_table.take(words.T.copy())
    out |= drop.take(layout.take(e) + last, axis=0)
    out = out.view(np.uint8)

    if slow.size:
        texts = b"".join((b"%.17g" % v).ljust(48, _PAD) for v in x[slow].tolist())
        out[slow] = np.frombuffer(texts, np.uint8).reshape(-1, 48)
    return out


def _cells(part: np.ndarray) -> np.ndarray:
    """The texts of one column's block that is not float, a row each, with
    one spare padding byte after the longest."""
    if part.dtype.kind == "b":
        return _BOOL.take(part.view(np.uint8), axis=0)
    texts = [str(v).encode("utf-8") for v in part.tolist()]
    width = max(map(len, texts)) + 1
    texts = b"".join(t.ljust(width, _PAD) for t in texts)
    return np.frombuffer(texts, np.uint8).reshape(len(part), width)


def _block(columns: list[np.ndarray], start: int, stop: int) -> np.ndarray:
    """The padded lines of rows ``start`` to ``stop``, each distinct column
    object formatted once and every float of the block in one :func:`g17`.

    Each cell ends in a padding byte, which becomes its ``,`` or ``\\n``.
    """
    floats = {id(c): c for c in columns if c.dtype.kind == "f"}
    n = stop - start
    x = np.empty((n, len(floats)))
    for k, c in enumerate(floats.values()):
        x[:, k] = c[start:stop]
    cells = g17(x.ravel()).reshape(n, len(floats), 48) if floats else None
    if len(floats) == len(columns):  # distinct floats only: the cells are the lines
        cells[:, :, -1] = ord(",")
        cells[:, -1, -1] = ord("\n")
        return cells.reshape(n, -1)
    slot = {key: k for k, key in enumerate(floats)}
    others = {id(c): _cells(c[start:stop]) for c in columns if id(c) not in slot}
    parts = [cells[:, slot[id(c)]] if id(c) in slot else others[id(c)] for c in columns]
    block = np.concatenate(parts, axis=1)
    block[:, np.cumsum([p.shape[1] for p in parts]) - 1] = ord(",")
    block[:, -1] = ord("\n")
    return block


def _small(columns: list[np.ndarray], start: int, stop: int) -> bytes:
    """The lines of rows ``start`` to ``stop`` formatted by Python's ``%``."""
    line = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    values = zip(*(c[start:stop].tolist() for c in columns))
    return "".join(line % row for row in values).encode("utf-8")


def rows(columns) -> Iterator[bytes]:
    """The CSV lines of equal-length 1-D ``columns``, one block at a time.

    A block holds ``CAP // len(columns)`` rows, one at least, so that no
    :func:`g17` call formats more than ``CAP`` values unless a row holds
    more. A block of fewer than ``SMALL`` values is formatted by Python's
    ``%``, which is faster there and gives the same bytes.
    """
    columns = [np.asarray(c) for c in columns]
    if not columns:
        return
    size = len(columns[0])
    step = max(CAP // len(columns), 1)
    for start in range(0, size, step):
        stop = min(start + step, size)
        if (stop - start) * len(columns) < SMALL:
            yield _small(columns, start, stop)
        else:
            yield _block(columns, start, stop).tobytes().translate(None, _PAD)
