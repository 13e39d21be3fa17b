"""The vectorised ``%.17g`` of ``smilecal._csv`` against Python's own
``'%.17g' %``, byte for byte, on random bit patterns, every power of ten and
its neighbours, exact rounding ties and the special values, the random
ones in every artifact that writes a float too; the CSV lines of
``rows`` against a row-by-row oracle, at the block edges of every column
count up to 7, with repeated column objects, columns that are not float,
float32 input, no rows and both sides of the small-block cutoff; and no
module but ``_csv`` opening, renaming or deleting a file.
"""

import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from smilecal import _csv, density
from smilecal._csv import CAP, SMALL, g17, rows
from smilecal.adiabatic import SweepRow
from smilecal.cli import main

DBL_MAX = sys.float_info.max
TINY = sys.float_info.min  # the least normal float
STEP = CAP // 3  # rows in a block of three columns


def _texts(values: np.ndarray) -> list[bytes]:
    """``g17``'s texts, one block at a time, with the padding deleted."""
    out = []
    for start in range(0, len(values), CAP):
        out += [row.tobytes().translate(None, b"\xff")
                for row in g17(values[start:start + CAP])]
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


def test_random_bit_patterns(tmp_path, monkeypatch, capsys):
    bits = np.random.default_rng(30).integers(0, 2**64, 120_000, dtype=np.uint64,
                                               endpoint=False)
    _assert_g17(bits.view(np.float64))

    # the same floats in every artifact that writes one: a report, CSV cells
    # on the _small path and the g17 path, a sweep row's append and check's
    # printed minima; bools too, which '%.17g' alone would write as 1 and 0
    x = np.concatenate([bits[:400].view(np.float64), [0.0, -0.0, math.inf, -math.inf,
                                                      math.nan, 5e-324, -5e-324, TINY / 3]])
    want = [b"%.17g" % v for v in x.tolist()]
    flags = x > 0.0
    flag_texts = [str(f).encode() for f in flags.tolist()]

    _csv.write_report(tmp_path / "report.txt", [("x", v) for v in x.tolist()] + [("ok", True)])
    assert (tmp_path / "report.txt").read_bytes().splitlines() == (
        [b"x=" + w for w in want] + [b"ok=True"])

    step = SMALL // 2 - 1  # two columns of this many rows take the _small path
    for cut in (len(x), step):
        lines = b"".join(b"".join(rows([x[i:i + cut], flags[i:i + cut]]))
                         for i in range(0, len(x), cut)).splitlines()
        assert lines == [w + b"," + f for w, f in zip(want, flag_texts)]

    path = tmp_path / "sweep.csv"
    _csv.write_sweep(path, [])
    swept = [SweepRow(g=v, maturity=v, n=v, rho=v, chi_c=v, status="ok") for v in x.tolist()]
    assert list(_csv.append_sweep(path, swept)) == swept
    assert path.read_bytes().splitlines()[1:] == [b",".join([w] * 5) + b",ok" for w in want]

    real = density.analyze

    def minima_at_x(curve):
        points = [density.StationaryPoint(x=v, kind="minimum", p=v) for v in x.tolist()]
        return density.DensityReport(curve=real(curve).curve, minima=tuple(points),
                                     negative_regions=())

    monkeypatch.setattr(density, "analyze", minima_at_x)
    capsys.readouterr()
    main(["check", "--params", "0.15,1.6,0.07875", "--maturity", "0.5", "--grid", "201",
          "--out", str(tmp_path / "check")])
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("minimum at")]
    assert printed == [f"minimum at x={w.decode()} density={w.decode()}" for w in want]


def test_only_csv_touches_files():
    # every artifact is read and written by _csv, so no other module opens,
    # reads, renames or deletes a file
    src = Path(__file__).resolve().parents[1] / "src" / "smilecal"
    calls = []
    for path in sorted(src.glob("*.py")):
        if path.name == "_csv.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            on_os = isinstance(func, ast.Attribute) and getattr(func.value, "id", "") == "os"
            if (name in ("open", "read_text", "read_bytes", "write_text", "write_bytes",
                         "rename", "unlink") or name == "replace" and on_os):
                calls.append(f"{path.name}:{node.lineno} {ast.unparse(func)}")
    assert calls == []


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


@pytest.mark.parametrize("edge", [STEP - 1, STEP, 2 * STEP - 1, 2 * STEP])
def test_both_sides_of_the_block_edge(edge):
    # three columns, so a block holds STEP rows
    x = np.random.default_rng(edge).normal(size=2 * STEP + 1)
    flag = x > 0.0
    x[[edge - 1, edge]] = [-0.0, 1.0 + 2.0**-17]  # a fallback and a tie
    got = b"".join(rows([x, flag, x]))
    want = b"".join(b"%.17g,%s,%.17g\n" % (v, str(f).encode(), v)
                    for v, f in zip(x.tolist(), flag.tolist()))
    assert got == want


def _reference(columns) -> bytes:
    """The CSV lines value by value: ``%.17g`` for floats, else ``str``."""
    columns = [np.asarray(c) for c in columns]
    fmt = [(lambda v: b"%.17g" % v) if c.dtype.kind == "f" else (lambda v: str(v).encode())
           for c in columns]
    return b"".join(b",".join(f(v) for f, v in zip(fmt, row)) + b"\n"
                    for row in zip(*(c.tolist() for c in columns)))


@pytest.fixture
def capped(monkeypatch):
    """Wrap ``g17`` to check that no call formats more than ``CAP`` values;
    returns the list of the sizes of the calls made."""
    sizes = []

    def wrapped(x):
        assert x.ndim == 1 and len(x) <= CAP
        sizes.append(len(x))
        return g17(x)

    monkeypatch.setattr(_csv, "g17", wrapped)
    return sizes


def _hard_floats(size: int, seed: int) -> np.ndarray:
    """Normal draws with a fallback, a tie and a power of ten spread over them."""
    x = np.random.default_rng(seed).normal(size=size)
    specials = [-0.0, 1.0 + 2.0**-17, 1e16, math.nan, -math.inf, 5e-324, 0.1]
    x[np.linspace(0, size - 1, min(size, len(specials))).astype(int)] = specials[:size]
    return x


@pytest.mark.parametrize("ncols", range(1, 8))
def test_block_edges_of_each_column_count(ncols, capped):
    step = CAP // ncols
    for size in (step - 1, step, step + 1):
        columns = [_hard_floats(size, 100 * ncols + k) for k in range(ncols)]
        assert b"".join(rows(columns)) == _reference(columns)
    assert max(capped) == ncols * step


def test_repeated_column_objects(capped):
    x, a, b = (_hard_floats(2 * CAP, seed) for seed in (1, 2, 3))
    flag = a > 0.0
    for columns in ([x, a, a, b, b], [a, x, a], [x, x], [x, flag, a, flag, x]):
        assert b"".join(rows(columns)) == _reference(columns)
    # each distinct float column once per block: three of them in 2 * CAP // 5 rows
    assert capped[0] == 3 * (CAP // 5)


def test_columns_that_are_not_float(capped):
    size = 1000
    x = _hard_floats(size, 7)
    rng = np.random.default_rng(8)
    ints = rng.integers(-10**12, 10**12, size)
    flags = x > 0.0
    names = np.array([["ok", "fail", "", "é€,\N{GRINNING FACE}"][i % 4] for i in range(size)])
    for columns in ([x, flags], [flags, x], [ints, x, names], [names, flags, ints],
                    [x, ints, x, flags, names, x]):
        assert b"".join(rows(columns)) == _reference(columns)


def test_float32_input():
    x = np.random.default_rng(9).normal(size=3000).astype(np.float32)
    x[:4] = [np.float32(0.1), -0.0, np.inf, np.float32(3.4e38)]
    for columns in ([x], [x, x.astype(np.float64)]):
        assert b"".join(rows(columns)) == _reference(columns)


def test_zero_rows():
    assert b"".join(rows([])) == b""
    assert b"".join(rows([np.array([]), np.array([], dtype=bool)])) == b""


@pytest.mark.parametrize("ncols", [1, 3, 7])
def test_both_sides_of_the_small_block_cutoff(ncols, capped):
    # a block of fewer than SMALL values is formatted by Python's '%'
    first = -(-SMALL // ncols)  # the fewest rows that reach the cutoff
    for size in (first - 1, first):
        columns = [_hard_floats(size, k) for k in range(ncols)]
        if ncols > 1:
            columns[1] = columns[0] > 0.0  # a bool column too
        capped.clear()
        assert b"".join(rows(columns)) == _reference(columns)
        assert bool(capped) == (size * ncols >= SMALL)
