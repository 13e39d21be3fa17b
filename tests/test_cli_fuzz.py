"""Hostile text variants of valid quote and config files, run through
``smilecal.cli.main`` in-process: every case ends in a documented exit code
(0-5), with no exception escaping ``main`` and no ``RuntimeWarning``."""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from smilecal import MarketEnv, SmileParams, sigma_of_x, std_normal_cdf, x_to_strike
from smilecal.cli import main

SMILES = {
    "outside-box": SmileParams(g=0.12, chi=1.8, n=0.002, maturity=0.25),
    "non-adiabatic": SmileParams(g=0.1, chi=2.7, n=0.04, maturity=0.5),
    "adiabatic": SmileParams(g=0.15, chi=1.6, n=0.07875, maturity=0.5),
    "flat": SmileParams(g=0.2, chi=1.0, n=0.01, maturity=1.0),
}
SPOT, RATE = 100.0, 0.02
STRIKES = "93.0,0.12\n96.8,0.11\n100.75,0.1\n104.9,0.11\n"  # rows of the explicit examples

# tokens that replace a field of a row: non-finite, signed zero,
# subnormal, overflowing, empty and non-numeric text
TOKENS = ["nan", "NaN", "inf", "-inf", "1e309", "-0", "0", "5e-324", "1e-300", "-1",
          "1e300", "", " ", "abc", "vol", "x", "maturity"]

# valid, then hostile values of each config key; grids stay small enough
# to run fast, and chi-max at most 20, the default
CONFIG_VALUES = {
    "grid": (["201", "1001", "4001"], ["101", "100", "-5", "0", "abc", "nan", "1e3", ""]),
    "span": (["4", "10", "20"], ["3", "nan", "inf", "-5", "1e308", "abc"]),
    "step-frac": (["1e-3", "1e-4"], ["0", "-1", "nan", "inf", "1e-300", "0.9"]),
    "chi-tol": (["1e-4", "1e-6", "1e-12"], ["0", "-1", "nan", "inf", "abc"]),
    "chi-max": (["20", "5", "1.5", "1", "0.5"], ["nan", "inf", "-inf", "abc"]),
    "mode": (["formula", "numeric", "NUMERIC"], ["fold", ""]),
    "svg": (["yes", "no", "1"], ["maybe"]),
}


def _quote_lines(kind: str, params: SmileParams) -> tuple[list[str], list[str]]:
    """Context rows and the header plus data rows of a valid quote file."""
    t = params.maturity
    env = MarketEnv(spot=SPOT, rate=RATE, maturity=t)
    rows = []
    for x in params.x_min + np.linspace(-0.12, 0.12, 7):
        vol = float(sigma_of_x(params, float(x)))
        if kind == "x":
            coord = float(x)
        elif kind == "strike":
            coord = float(x_to_strike(env, float(x)))
        else:
            coord = float(std_normal_cdf((0.5 * vol * vol * t - x) / (vol * math.sqrt(t))))
        rows.append(f"{coord!r},{vol!r}")
    context = [f"maturity,{t!r}"]
    if kind == "strike":
        context += [f"spot,{SPOT!r}", f"rate,{RATE!r}"]
    return context, [f"{kind},vol", *rows]


@st.composite
def _hostile_text(draw, head: list[str], rows: list[str], sep: str = ",") -> str:
    """``head`` then ``rows`` in any order, with some of: a ``sep``-separated
    field replaced by a hostile token, a duplicate line, a trailing comma,
    blank and ``#`` lines, a dropped line, a byte-order mark and CRLF line
    ends."""
    lines = head + list(draw(st.permutations(rows)))
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(sep)
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(TOKENS))
        lines[i] = sep.join(fields)
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    if draw(st.integers(0, 7)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))] += ","
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "# a"])))
    if draw(st.integers(0, 3)) == 0:
        del lines[draw(st.integers(0, len(lines) - 1))]
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@st.composite
def _config_lines(draw) -> list[str]:
    lines = []
    for key in draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), min_size=1, max_size=4)):
        spelled = draw(st.sampled_from([key, key.upper(), key.replace("-", "_")]))
        valid, hostile = CONFIG_VALUES[key]
        value = draw(st.sampled_from(hostile if draw(st.integers(0, 3)) == 0 else valid))
        lines.append(f"{spelled} = {value}")
    if draw(st.integers(0, 9)) == 0:
        lines.append(draw(st.sampled_from(["workers=2", "grid", "=5", "out"])))
    return lines


@st.composite
def _case(draw) -> tuple[list[str], dict[str, str]]:
    """``(argv, files)``: cli arguments, which may name the files
    ``quotes.csv`` and ``run.cfg``, and the text of each file."""
    params = SMILES[draw(st.sampled_from(sorted(SMILES)))]
    files = {}
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["x", "strike", "delta"]))
        context, body = _quote_lines(kind, params)
        files["quotes.csv"] = draw(_hostile_text(context + body[:1], body[1:]))
        argv = [draw(st.sampled_from(["fit", "check", "refit"])), "quotes.csv"]
        if kind == "delta" or draw(st.integers(0, 3)) == 0:
            argv += ["--maturity", draw(st.sampled_from(["0.5", "nan", "-1", "0", "5e-324",
                                                         "1e300"]))]
    else:
        argv = [draw(st.sampled_from(["check", "density", "bl-oracle"])),
                "--params", f"{params.g!r},{params.chi!r},{params.n!r}",
                "--maturity", repr(params.maturity)]
    if "quotes.csv" not in files or draw(st.booleans()):
        files["run.cfg"] = draw(_hostile_text([], draw(_config_lines()), sep="="))
        argv += ["--config", "run.cfg"]
    return argv, files


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_case())
# a strike / spot ratio that underflows to 0, and one that overflows
@example(case=(["fit", "quotes.csv"],
               {"quotes.csv": "maturity,0.5\nspot,100\nstrike,vol\n5e-324,0.12\n" + STRIKES}))
@example(case=(["fit", "quotes.csv"],
               {"quotes.csv": "maturity,0.5\nspot,5e-324\nstrike,vol\n" + STRIKES}))
# a flat fit whose g^2 T underflows to 0, in check's formula mode
@example(case=(["check", "quotes.csv", "--maturity", "5e-324"],
               {"quotes.csv": "x,vol\n-0.14,0.2\n-0.06,0.2\n0.06,0.2\n0.1,0.2\n"}))
def test_every_case_ends_in_a_documented_exit_code(fuzz_dir, case):
    argv, files = case
    for name, text in files.items():
        (fuzz_dir / name).write_bytes(text.encode("utf-8"))
    argv = [str(fuzz_dir / a) if a in files else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always", RuntimeWarning)
        code = main([*argv, "--out", str(fuzz_dir / "out")])
    assert code in range(6), stderr.getvalue()
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
