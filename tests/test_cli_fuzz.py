"""Hostile text variants of valid quote, config, report and sweep files,
and hostile smile numbers, run through ``smilecal.cli.main`` in-process:
every case ends in a documented exit code (0-5), with no exception escaping
``main`` and no ``RuntimeWarning``. The package's one floating-point rule,
every ``np.errstate`` spelled ``all="ignore"``, is checked on the source."""

import ast
import contextlib
import io
import math
import warnings
from pathlib import Path

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

# 24 ok sweep rows (g, T, n, rho, chi_c) on the packaged critical-ratio
# surface, and five edits that once calibrated to the packaged constants
# with nan standard errors, or failed only after a RuntimeWarning or, for
# a negative T, a traceback
SURFACE = [(g, t, rho * g * g * t, rho, 1.4373 * rho**0.2787 - 0.1738 * g * t**0.5 * rho**0.4683)
           for g in (0.05, 0.1, 0.2) for rho in (3.0, 5.0, 8.0, 9.0) for t in (0.1, 2.0)]
BAD_SWEEPS = {
    "rho inf": [(*r[:3], math.inf, r[4]) if k == 5 else r for k, r in enumerate(SURFACE)],
    "rho 0": [(*r[:3], 0.0, r[4]) if k == 5 else r for k, r in enumerate(SURFACE)],
    "T -1": [(r[0], -1.0, *r[2:]) if k == 3 else r for k, r in enumerate(SURFACE)],
    "every T 0": [(g, 0.0, n, rho, c) for g, _, n, rho, c in SURFACE],
    "g and T 1e200": [(1e200 * g, 1e200 * t, n, rho, c) for g, t, n, rho, c in SURFACE],
}
SWEEP_HEADER = "g,T,n,rho,chi_c,status"


def _sweep_lines(rows) -> list[str]:
    return [",".join(map(repr, row)) + ",ok" for row in rows]


def _sweep_case(rows) -> tuple[list[str], dict[str, str]]:
    text = "\n".join([SWEEP_HEADER, *_sweep_lines(rows)]) + "\n"
    return ["calibrate", "sweep.csv"], {"sweep.csv": text}


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
    _assert_documented_exit(fuzz_dir, [str(fuzz_dir / a) if a in files else a for a in argv])


def _assert_documented_exit(fuzz_dir, argv: list[str]) -> tuple[int, str]:
    """Run ``argv``; its exit code and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always", RuntimeWarning)
        code = main([*argv, "--out", str(fuzz_dir / "out")])
    assert code in range(6), stderr.getvalue()
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return code, stderr.getvalue()


@st.composite
def _file_case(draw) -> tuple[list[str], dict[str, str]]:
    """``(argv, files)``: ``check`` or ``density`` on a hostile
    ``--params-file`` report, ``report.txt``, or ``calibrate`` on a hostile
    ``sweep.csv``."""
    if draw(st.booleans()):
        sweep = draw(_hostile_text([SWEEP_HEADER], _sweep_lines(SURFACE)))
        return ["calibrate", "sweep.csv"], {"sweep.csv": sweep}
    params = SMILES[draw(st.sampled_from(sorted(SMILES)))]
    lines = [f"{key}={getattr(params, key)!r}" for key in ("g", "chi", "n", "maturity")]
    report = draw(_hostile_text([], [*lines, "residual_rms=1e-05", "converged=True"], sep="="))
    argv = [draw(st.sampled_from(["check", "density"])), "--params-file", "report.txt",
            "--grid", "201"]
    return argv, {"report.txt": report}


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_file_case())
@example(case=_sweep_case(BAD_SWEEPS["rho inf"]))
@example(case=_sweep_case(BAD_SWEEPS["rho 0"]))
@example(case=_sweep_case(BAD_SWEEPS["every T 0"]))
@example(case=_sweep_case(BAD_SWEEPS["g and T 1e200"]))
@example(case=_sweep_case(BAD_SWEEPS["T -1"]))
def test_every_report_and_sweep_file_ends_in_a_documented_exit_code(fuzz_dir, case):
    argv, files = case
    for name, text in files.items():
        (fuzz_dir / name).write_bytes(text.encode("utf-8"))
    _assert_documented_exit(fuzz_dir, [str(fuzz_dir / a) if a in files else a for a in argv])


@pytest.mark.parametrize("bad", sorted(BAD_SWEEPS))
def test_calibrate_of_rows_out_of_range_fails(tmp_path, bad):
    # exit 3 and no report, as for any sweep whose rows do not calibrate
    argv, files = _sweep_case(BAD_SWEEPS[bad])
    (tmp_path / "sweep.csv").write_text(files["sweep.csv"], encoding="utf-8")
    code, stderr = _assert_documented_exit(tmp_path, [argv[0], str(tmp_path / "sweep.csv")])
    assert code == 3
    assert stderr.startswith("calibration failed: ")
    assert not (tmp_path / "out" / "calibration.txt").exists()


WIDE = st.floats(-300.0, 300.0).map(lambda e: repr(10.0**e))  # log-uniform, 1e-300..1e300


@st.composite
def _smile_numbers(draw) -> list[str]:
    """``check`` (either mode), ``density`` or ``bl-oracle`` argv on a
    201-point grid, with g, chi, n and T log-uniform over the float range;
    chi is either drawn so or 1 plus such a number, and ``bl-oracle`` also
    draws ``--spot``."""
    command = draw(st.sampled_from(["check", "density", "bl-oracle"]))
    chi = draw(st.one_of(WIDE, WIDE.map(lambda c: repr(1.0 + float(c)))))
    argv = [command, "--params", f"{draw(WIDE)},{chi},{draw(WIDE)}", "--maturity", draw(WIDE),
            "--grid", "201"]
    if command == "check":
        argv += ["--mode", draw(st.sampled_from(["formula", "numeric"]))]
    if command == "bl-oracle":
        argv += ["--spot", draw(WIDE)]
    return argv


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_smile_numbers())
# a spot far from the strikes overflows d1, and a strike grid whose
# strikes underflow to 0; both once warned from bs_core
@example(argv=["bl-oracle", "--params", "1.0000001,1.0000001,640.0552019112725",
               "--maturity", "846.7202085880854", "--spot", "1e200"])
@example(argv=["bl-oracle", "--params", "0.5,20,1", "--maturity", "100"])
# the curvature factor overflows or divides inf by inf, and the grid's
# width is not finite; each once warned from density
@example(argv=["density", "--params", "1e10,1e150,1e10", "--maturity", "1e10", "--grid", "201"])
@example(argv=["density", "--params", "1e300,210.54654510770922,919.5924988003864",
               "--maturity", "0.1", "--grid", "201"])
@example(argv=["check", "--params", "24.444074325898978,1e300,24.444074325898978",
               "--maturity", "721.831930458675", "--mode", "numeric", "--grid", "201"])
def test_every_smile_ends_in_a_documented_exit_code(fuzz_dir, argv):
    _assert_documented_exit(fuzz_dir, argv)


def test_every_errstate_ignores_all():
    # one rule: numpy stays silent, and the named finiteness checks decide
    src = Path(__file__).resolve().parents[1] / "src" / "smilecal"
    calls = [node for path in sorted(src.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "errstate"]
    assert calls
    for call in calls:
        assert not call.args
        assert [(k.arg, ast.literal_eval(k.value)) for k in call.keywords] == [("all", "ignore")]
