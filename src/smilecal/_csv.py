"""Every artifact format of the command line: the quote, report, config and
sweep files it reads and the reports and CSV tables it writes, each value
by the one rule of :func:`text`; and the one writer of every output file.

:func:`rows` turns equal-length 1-D columns into CSV lines, a block of rows
at a time. A block holds every column for at most ``CAP`` values, and each
distinct column object is formatted once in it: all of its float columns
through one :func:`g17` call, bools through a ``True``/``False`` table and
anything else through :func:`text`. Each text is a row of a byte matrix,
padded with 0xFF, a byte no UTF-8 text holds, and its last padding byte
becomes the ``,`` or ``\n`` after it; the padding is then deleted. ``CAP``
is set by two limits measured on a 2-vCPU Xeon VM: above it a temporary of
:func:`g17` passes glibc's 128 KiB mmap threshold and is faulted in afresh
at each call, and far above it the temporaries leave the L2 cache. A block
of fewer than ``SMALL`` values is formatted by :func:`text` instead.

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
import os
from collections.abc import Iterable, Iterator
from contextlib import suppress
from dataclasses import astuple, dataclass
from functools import cache
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import QuoteFormatError

# only the sweep reader builds rows, so that the commands that read no
# sweep do not import adiabatic
if TYPE_CHECKING:
    from .adiabatic import SweepRow

CAP = 2240  # values a block formats: g17's (CAP, 48) byte matrices stay under 128 KiB
SMALL = 100  # a block of fewer values is formatted value by value by text, faster there
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


def text(value) -> str:
    """The one float-to-text rule of every artifact: ``'%.17g' %`` for a
    float and ``%s`` for anything else."""
    return ("%.17g" if isinstance(value, float) else "%s") % (value,)


def _cells(part: np.ndarray) -> np.ndarray:
    """The texts of one column's block that is not float, a row each, with
    one spare padding byte after the longest."""
    if part.dtype.kind == "b":
        return _BOOL.take(part.view(np.uint8), axis=0)
    texts = [text(v).encode("utf-8") for v in part.tolist()]
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
    """The lines of rows ``start`` to ``stop``, value by value by :func:`text`."""
    values = zip(*(c[start:stop].tolist() for c in columns))
    return "".join(",".join(map(text, row)) + "\n" for row in values).encode("utf-8")


def rows(columns) -> Iterator[bytes]:
    """The CSV lines of equal-length 1-D ``columns``, one block at a time.

    A block holds ``CAP // len(columns)`` rows, one at least, so that no
    :func:`g17` call formats more than ``CAP`` values unless a row holds
    more.
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


def temp_path(path: Path) -> Path:
    """The temporary file :func:`write_whole` writes before it renames it to
    ``path``: ``NAME.tmp`` beside ``NAME``."""
    return path.with_name(path.name + ".tmp")


def write_whole(path: Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to ``path`` whole or not at all.

    The chunks go to :func:`temp_path` in ``path``'s directory, which is
    closed; then ``path`` is unlinked, if it exists, and the temporary file
    renamed to the name now free. A kill leaves ``path`` old, new or, between
    the unlink and the rename, absent beside a whole temporary file. If the
    chunks or the writing fail, or ``path`` cannot be unlinked (a directory
    in its place, say), the temporary file is deleted, ``path`` is left as it
    was and the error raised.

    Neither replacement that ext4's ``auto_da_alloc`` flushes happens here:
    no file is truncated, and the rename never lands on an existing name, so
    the new pages stay in the page cache until the kernel writes them back.
    Nothing is synced, so a power loss may lose the file. Each write makes a
    new file: a symlink or a hard link at ``path`` is replaced, not written
    through, and the mode follows the umask, not the old file's.
    """
    tmp = temp_path(path)
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        with suppress(FileNotFoundError):
            os.unlink(path)
    except BaseException:
        with suppress(OSError):  # a directory named like the temporary file stays
            os.unlink(tmp)
        raise
    os.rename(tmp, path)


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length 1-D columns under a one-line header."""
    head = (",".join(header) + "\n").encode("utf-8")
    write_whole(path, chain([head], rows(columns)))


def write_report(path: Path, items: list[tuple[str, object]]) -> None:
    """Write ``key=value`` lines to ``path`` and echo them to stdout."""
    lines = "".join(f"{key}={text(value)}\n" for key, value in items)
    write_whole(path, [lines.encode("utf-8")])
    print(lines, end="")


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of an input file, less a leading byte-order mark; any
    failure is a :class:`QuoteFormatError`."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise QuoteFormatError(f"cannot read {what} {path}: {exc}") from exc


def _content_lines(path: str, what: str) -> Iterator[tuple[int, str, str]]:
    """``(line number, raw line, stripped line)`` of each line of a file
    that is neither blank nor a ``#`` comment."""
    for i, raw in enumerate(_read_text(path, what).splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield i, raw, line


def key_value_lines(path: str, what: str) -> Iterator[tuple[int, str, str, str]]:
    """``(line number, raw line, key, value)``, both stripped, of each
    content line of a ``key=value`` file; a line without ``=`` gives its
    whole text as the key."""
    for i, raw, line in _content_lines(path, what):
        key, _, value = line.partition("=")
        yield i, raw, key.strip(), value.strip()


def read_report(path: str) -> dict:
    return {key: value for _, _, key, value in key_value_lines(path, "report")}


_COORD_KINDS = ("delta", "x", "strike")
_CONTEXT_KEYS = ("spot", "rate", "maturity")


@dataclass(frozen=True)
class QuoteFile:
    """Parsed quote file: coordinate kind, (coordinate, vol) rows, context."""

    kind: str
    rows: tuple[tuple[float, float], ...]
    context: dict


def parse_quote_file(path: str) -> QuoteFile:
    """Read a quote CSV: optional context rows, a typed header, data rows.

    Context rows ``spot,VALUE`` / ``rate,VALUE`` / ``maturity,VALUE`` may
    precede the header. The header names the coordinate kind:
    ``delta,vol`` or ``x,vol`` or ``strike,vol``. Comment lines start
    with ``#``.
    """
    kind: str | None = None
    pairs: list[tuple[float, float]] = []
    context: dict = {}
    for i, raw, line in _content_lines(path, "quote file"):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise QuoteFormatError(f"{path}: line {i}: expected two fields, got {len(fields)}")
        first, second = fields
        key = first.lower()
        if kind is None and key in _CONTEXT_KEYS:
            try:
                context[key] = float(second)
            except ValueError as exc:
                raise QuoteFormatError(f"{path}: line {i}: bad {key} value") from exc
            continue
        if key in _COORD_KINDS and second.lower() == "vol":
            if kind is not None:
                raise QuoteFormatError(f"{path}: line {i}: duplicate header")
            kind = key
            continue
        if kind is None:
            raise QuoteFormatError(
                f"{path}: line {i}: expected header 'delta,vol' | 'x,vol' | 'strike,vol'"
            )
        try:
            coord, vol = float(first), float(second)
        except ValueError as exc:
            raise QuoteFormatError(f"{path}: line {i}: bad numeric row {raw!r}") from exc
        if vol <= 0.0:
            raise QuoteFormatError(f"{path}: line {i}: vol must be positive")
        pairs.append((coord, vol))

    if kind is None:
        raise QuoteFormatError(f"{path}: missing header row")
    if len({c for c, _ in pairs}) != len(pairs):
        raise QuoteFormatError(f"{path}: duplicate coordinates")
    return QuoteFile(kind=kind, rows=tuple(pairs), context=context)


# a sweep row's columns are SweepRow's fields in order, maturity as T
_SWEEP_HEADER = ["g", "T", "n", "rho", "chi_c", "status"]
_SWEEP_HEADER_LINE = ",".join(_SWEEP_HEADER) + "\n"


def read_sweep_csv(path: str, resume: bool = False) -> list[SweepRow]:
    """The rows of a sweep CSV. Every line must parse, except that with
    ``resume`` a last row without its ``\\n``, which a kill inside
    :func:`append_sweep` leaves, is dropped and named on stdout, so its point
    is computed again; and a file that holds no more than its header, torn or
    whole, as a kill inside a new sweep's first write leaves it, has no rows."""
    from .adiabatic import SweepRow

    content = _read_text(path, "sweep file")
    if resume and _SWEEP_HEADER_LINE.startswith(content):
        if content != _SWEEP_HEADER_LINE:
            print(f"sweep: {path}: header is torn; no rows read")
        return []
    lines = content.splitlines()
    if resume and len(lines) > 1 and not content.endswith("\n"):
        print(f"sweep: {path}: line {len(lines)} has no newline; dropped as torn")
        lines.pop()
    if not lines or [f.strip() for f in lines[0].split(",")] != _SWEEP_HEADER:
        raise QuoteFormatError(f"{path}: expected header {','.join(_SWEEP_HEADER)}")
    sweep_rows = []
    for i, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        fields = line.split(",", maxsplit=5)
        if len(fields) != 6:
            raise QuoteFormatError(f"{path}: line {i}: expected 6 fields")
        try:
            sweep_rows.append(SweepRow(*map(float, fields[:5]), status=fields[5].strip()))
        except ValueError as exc:
            raise QuoteFormatError(f"{path}: line {i}: {exc}") from exc
    return sweep_rows


def resume_sweep(path: Path) -> list[SweepRow]:
    """The rows a resumed sweep reads from ``path``, none if it is absent.
    A kill between :func:`write_whole`'s unlink and rename leaves the file
    whole under :func:`temp_path`, so that rename is finished first: the
    sweep's next write must not write over the only copy of its rows."""
    tmp = temp_path(path)
    if not path.exists() and tmp.is_file():
        print(f"sweep: {path} is absent; resuming from {tmp}")
        os.rename(tmp, path)
    return read_sweep_csv(str(path), resume=True) if path.exists() else []


def write_sweep(path: Path, sweep_rows: Iterable[SweepRow]) -> None:
    """Write the sweep CSV at ``path`` whole, one line per row."""
    write_csv(path, _SWEEP_HEADER, zip(*map(astuple, sweep_rows)))


def append_sweep(path: Path, sweep_rows: Iterable[SweepRow]) -> Iterator[SweepRow]:
    """Append each row's line to the sweep CSV at ``path`` as the row comes,
    flushed, and then yield the row, so that an interrupted sweep keeps every
    row it yielded."""
    with path.open("ab") as fh:
        for row in sweep_rows:
            fh.writelines(rows([(v,) for v in astuple(row)]))
            fh.flush()
            yield row
