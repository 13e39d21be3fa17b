"""Command-line front end: fit, check, refit, density, sweep, calibrate, bl-oracle.

Exit codes are a stable contract:

    0  success / density passes (adiabatic)
    1  density has interior relative minima (non-adiabatic)
    2  input could not be read or parsed, or is out of domain; output
       could not be written
    3  a fit or search failed to converge / calibration not identifiable
    4  density goes negative beyond round-off
    5  the refit's final fit still has a non-unimodal density

Codes 2 and 3 follow the error families of :mod:`smilecal.errors`: a
``DomainError`` exits 2 and a ``ConvergenceError`` 3. The one exception is
``calibrate``, which prints ``calibration failed: ...`` and exits 3 when
its sweep rows are too few or span too little rho, both ``DomainError``s.

``density`` and ``bl-oracle`` are report commands: they exit 0 once their
report is written, whatever the density looks like, and put the verdict in
the report. ``check`` is the command that exits with the verdict.

All tabular output is plain CSV with a one-line header; scalar reports are
key=value text. Floats are written ``%.17g``, which round-trips every
float64 exactly; NaN and infinity are written ``nan``, ``inf`` and
``-inf``, bools ``True``/``False``. Every command is deterministic for
fixed inputs and configuration.

Settings come, in order of precedence, from flags, a ``--config`` file of
``key=value`` lines, the SMILECAL_OUT environment variable (output
directory only) and built-in defaults. Each setting is one
:class:`RunConfig` field, named by its config key with ``_`` for ``-``:
config key ``chi-max`` is field ``chi_max`` and flag ``--chi-max``. A flag
exists on the commands that read it; a config file may set any key for
any command. ``chi-tol`` is config-only; ``svg`` takes ``1/true/yes/on`` or
``0/false/no/off``. An input file that cannot be read or is not UTF-8
text, or an output directory or file that cannot be written, exits 2,
like an input that cannot be parsed, a flag the command does not take or
two smile sources given at once.

``refit`` hands the free fit and the check's ``chi_c`` to
:func:`smilecal.adiabatic.adiabatic_refit`, which keeps the fit or pins chi
0.1% below the refitted smile's own fold; a final fit that did not
converge exits 3 after its outputs are written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from functools import cache
from itertools import product
from pathlib import Path

import numpy as np

from . import _csv
from . import adiabatic as adiab
from . import density as dens
from ._svg import write_line_plot
from .bs_core import MarketEnv, strike_to_x, x_to_strike
from .errors import ConvergenceError, DomainError, IdentifiabilityError, QuoteFormatError
from .smile import (
    SmileFitResult,
    SmileParams,
    VolQuote,
    constrained_fit_smile,  # unused here; bench/tracing.py wraps this name
    fit_smile,
    sigma_of_x,
)

EXIT_OK = 0
EXIT_NON_ADIABATIC = 1
EXIT_PARSE = 2
EXIT_CONVERGENCE = 3
EXIT_NEGATIVE_DENSITY = 4
EXIT_CONSTRAINED_FAILURE = 5

ENV_OUT_DIR = "SMILECAL_OUT"

_COORD_KINDS = ("delta", "x", "strike")
_CONTEXT_KEYS = ("spot", "rate", "maturity")


@dataclass(frozen=True)
class RunConfig:
    """Run settings; each field is its config key with ``_`` for ``-``, and
    the ``dest`` of its flag where it has one."""

    grid: int = dens.STANDARD_GRID_POINTS
    span: float = dens.STANDARD_SPAN
    step_frac: float | None = None  # oracle step / strike; None -> adaptive
    chi_tol: float = adiab.ChiSearchSettings.tol
    chi_max: float = adiab.ChiSearchSettings.chi_max
    mode: str = "formula"
    out: str | None = None  # None: SMILECAL_OUT if set, else "."
    svg: bool = False

    def search_settings(self) -> adiab.ChiSearchSettings:
        return adiab.ChiSearchSettings(
            tol=self.chi_tol,
            chi_max=self.chi_max,
            grid_points=self.grid,
            span=self.span,
        )


@dataclass(frozen=True)
class QuoteFile:
    """Parsed quote file: coordinate kind, (coordinate, vol) rows, context."""

    kind: str
    rows: tuple[tuple[float, float], ...]
    context: dict


# ----------------------------------------------------------------------
# configuration and small-file I/O
# ----------------------------------------------------------------------


def _parse_bool(text: str) -> bool:
    """True for ``1/true/yes/on`` and false for ``0/false/no/off``, in any
    case; any other text, the empty one too, is a ``ValueError``."""
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected a bool, got {text!r}")
    return word in ("1", "true", "yes", "on")


# config value parser, keyed by the text of a RunConfig field's annotation
_PARSERS = {
    "int": int,
    "float": float,
    "float | None": float,
    "str": str,
    "str | None": str,
    "bool": _parse_bool,
}
_CONFIG_KEYS = {f.name.replace("_", "-"): f for f in fields(RunConfig)}


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of an input file, less a leading byte-order mark; any
    failure is a :class:`QuoteFormatError`."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise QuoteFormatError(f"cannot read {what} {path}: {exc}") from exc


def _key_value_lines(path: str, what: str) -> Iterator[tuple[int, str, str, str]]:
    """``(line number, raw line, key, value)``, both stripped, of each line
    of a ``key=value`` file that is neither blank nor a ``#`` comment; a
    line without ``=`` gives its whole text as the key."""
    for i, raw in enumerate(_read_text(path, what).splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            yield i, raw, key.strip(), value.strip()


def load_config(path: str) -> RunConfig:
    cfg = RunConfig()
    for i, raw, key, value in _key_value_lines(path, "config file"):
        if "=" not in raw:
            raise QuoteFormatError(f"{path}:{i}: expected key=value, got {raw!r}")
        key = key.lower().replace("_", "-")
        if key not in _CONFIG_KEYS:
            raise QuoteFormatError(f"{path}:{i}: unknown config key {key!r}")
        field = _CONFIG_KEYS[key]
        try:
            cfg = replace(cfg, **{field.name: _PARSERS[field.type](value)})
        except ValueError as exc:
            raise QuoteFormatError(f"{path}:{i}: bad value for {key}: {exc}") from exc
    return cfg


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    flags = {f.name: getattr(args, f.name, None) for f in fields(cfg)}
    cfg = replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    return cfg if cfg.out is not None else replace(cfg, out=os.environ.get(ENV_OUT_DIR) or ".")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_report(path: Path, items: list[tuple[str, object]]) -> None:
    """Write ``key=value`` lines to ``path`` and echo them to stdout."""
    text = "".join(f"{key}={_fmt(value)}\n" for key, value in items)
    path.write_text(text, encoding="utf-8")
    print(text, end="")


def read_report(path: str) -> dict:
    return {key: value for _, _, key, value in _key_value_lines(path, "report")}


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length 1-D columns under a one-line header.

    Floats are written ``%.17g``, bools ``True``/``False`` and anything else
    ``%s``: the bytes :func:`_fmt` gives value by value. The rows are formed
    by numpy in blocks of every column for at most ``_csv.CAP`` values, each
    column object that is passed more than once formatted once, and the
    block's floats in one call. The cap has two limits: every temporary stays
    under glibc's 128 KiB mmap threshold, and the block's temporaries stay in
    the L2 cache. A block of few values is formatted by Python's ``%``; see
    :mod:`smilecal._csv`.
    """
    with path.open("wb") as f:
        f.write((",".join(header) + "\n").encode("utf-8"))
        f.writelines(_csv.rows(columns))


def parse_quote_file(path: str) -> QuoteFile:
    """Read a quote CSV: optional context rows, a typed header, data rows.

    Context rows ``spot,VALUE`` / ``rate,VALUE`` / ``maturity,VALUE`` may
    precede the header. The header names the coordinate kind:
    ``delta,vol`` or ``x,vol`` or ``strike,vol``. Comment lines start
    with ``#``.
    """
    kind: str | None = None
    rows: list[tuple[float, float]] = []
    context: dict = {}
    for i, raw in enumerate(_read_text(path, "quote file").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
        rows.append((coord, vol))

    if kind is None:
        raise QuoteFormatError(f"{path}: missing header row")
    if len({c for c, _ in rows}) != len(rows):
        raise QuoteFormatError(f"{path}: duplicate coordinates")
    return QuoteFile(kind=kind, rows=tuple(rows), context=context)


def quotes_from_file(
    qf: QuoteFile, maturity: float, spot: float, rate: float
) -> list[VolQuote]:
    if qf.kind == "x":
        return [VolQuote(vol=v, x=c) for c, v in qf.rows]
    if qf.kind == "delta":
        # each quote validates its delta, then converts to x once
        return [VolQuote(vol=v, x=VolQuote(vol=v, delta=c).to_x(maturity)) for c, v in qf.rows]
    env = MarketEnv(spot=spot, rate=rate, maturity=maturity)
    return [VolQuote(vol=v, x=strike_to_x(env, c)) for c, v in qf.rows]


# ----------------------------------------------------------------------
# shared helpers for the commands
# ----------------------------------------------------------------------


def _market_context(args, context: dict) -> tuple[float, float]:
    """Spot and rate: the flag, else the quote file's context row, else 1 and 0."""
    spot = context.get("spot", 1.0) if args.spot is None else args.spot
    rate = context.get("rate", 0.0) if args.rate is None else args.rate
    return spot, rate


def _params_from_args(args) -> SmileParams | None:
    """Smile parameters from one source, --params G,CHI,N or a --params-file
    report; ``None`` only for a ``check`` that fits its quote file instead."""
    quotefile = getattr(args, "quotefile", None)
    given = [name for name, value in [(f"quote file {quotefile}", quotefile),
             ("--params", args.params), ("--params-file", args.params_file)] if value]
    if len(given) > 1:
        raise QuoteFormatError(f"{given[0]} and {given[1]} both give the smile; pass one")
    if args.params_file and args.maturity is not None:
        raise QuoteFormatError("--params-file and --maturity both give the maturity; pass one")
    if args.params:
        parts = args.params.split(",")
        if len(parts) != 3:
            raise QuoteFormatError("--params expects G,CHI,N")
        try:
            g, chi, n = (float(p) for p in parts)
        except ValueError as exc:
            raise QuoteFormatError(f"--params: {exc}") from exc
        if args.maturity is None:
            raise QuoteFormatError("--params also requires --maturity")
        return SmileParams(g=g, chi=chi, n=n, maturity=args.maturity)
    if args.params_file:
        report = read_report(args.params_file)
        try:
            values = {key: float(report[key]) for key in ("g", "chi", "n", "maturity")}
        except KeyError as exc:
            raise QuoteFormatError(f"{args.params_file}: missing key {exc}") from exc
        except ValueError as exc:
            raise QuoteFormatError(f"{args.params_file}: {exc}") from exc
        return SmileParams(**values)
    if args.command != "check":
        raise QuoteFormatError(f"{args.command} needs --params G,CHI,N with --maturity, or --params-file")
    if not quotefile:
        raise QuoteFormatError("check needs a quote file, --params or --params-file")
    return None


def _fit_from_quote_args(args) -> tuple[list[VolQuote], SmileFitResult]:
    qf = parse_quote_file(args.quotefile)
    maturity = qf.context.get("maturity") if args.maturity is None else args.maturity
    if maturity is None:
        raise QuoteFormatError("maturity required: pass --maturity or a maturity context row")
    quotes = quotes_from_file(qf, maturity, *_market_context(args, qf.context))
    return quotes, fit_smile(quotes, maturity)


def _fit_report_items(result, label: str = "") -> list[tuple[str, object]]:
    prefix = f"{label}_" if label else ""
    p = result.params
    return [
        (f"{prefix}g", p.g),
        (f"{prefix}chi", p.chi),
        (f"{prefix}n", p.n),
        (f"{prefix}maturity", p.maturity),
        (f"{prefix}residual_rms", result.residual_rms),
        (f"{prefix}converged", result.converged),
        (f"{prefix}constrained", result.constrained),
        (f"{prefix}iterations", result.iterations),
    ]


def _density_report(
    out: Path, cfg: RunConfig, params: SmileParams, name: str,
    items: list[tuple[str, object]],
) -> dens.DensityReport:
    """Write ``density.csv``, the report ``name`` (``items``, then the
    density's own keys) and, with ``--svg``, ``density.svg``."""
    curve = dens.density_curve(params, points=cfg.grid, span=cfg.span)
    report = dens.analyze(curve)
    write_csv(out / "density.csv", ["x", "density"], [curve.xs, curve.ps])
    write_report(out / name, items + [
        ("total_mass", report.total_mass),
        ("martingale_gap", report.martingale_gap),
        ("n_minima", len(report.minima)),
        ("n_negative_regions", len(report.negative_regions)),
        ("unimodal", report.unimodal),
    ])
    if cfg.svg:
        write_line_plot(
            out / "density.svg",
            [("density", curve.xs, curve.ps)],
            title="smile-implied return density",
            xlabel="x",
            ylabel="p(x)",
        )
    return report


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_fit(args, cfg: RunConfig, out: Path) -> int:
    quotes, result = _fit_from_quote_args(args)
    write_report(out / "fit.txt", _fit_report_items(result))
    xs = np.array([q.x for q in quotes])
    vols = np.array([q.vol for q in quotes])
    fitted = sigma_of_x(result.params, xs)
    write_csv(
        out / "fit_residuals.csv",
        ["x", "vol_observed", "vol_fitted", "residual"],
        [xs, vols, fitted, fitted - vols],
    )
    if cfg.svg:
        dense_x = np.linspace(xs.min(), xs.max(), 401)
        write_line_plot(
            out / "smile.svg",
            [
                ("observed", xs, vols),
                ("fitted", dense_x, sigma_of_x(result.params, dense_x)),
            ],
            title="volatility smile fit",
            xlabel="x",
            ylabel="vol",
        )
    if not result.converged:
        print("fit did not converge", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def cmd_check(args, cfg: RunConfig, out: Path) -> int:
    params = _params_from_args(args)
    if params is None:
        _, fit_result = _fit_from_quote_args(args)
        if not fit_result.converged:
            print("fit did not converge", file=sys.stderr)
            return EXIT_CONVERGENCE
        params = fit_result.params

    verdict = adiab.adiabatic_check(params, mode=cfg.mode, settings=cfg.search_settings())
    report = _density_report(out, cfg, params, "check.txt", [
        ("chi_opt", verdict.chi_opt),
        ("chi_c", verdict.chi_c),
        ("chi_c_source", verdict.source),
        ("adiabatic", verdict.adiabatic),
    ])
    for point in report.minima:
        print(f"minimum at x={_fmt(point.x)} density={_fmt(point.p)}")
    for lo, hi in report.negative_regions:
        print(f"negative density on [{_fmt(lo)}, {_fmt(hi)}]")
    if report.negative_regions:
        code, label = EXIT_NEGATIVE_DENSITY, "negative-density"
    elif report.minima:
        code, label = EXIT_NON_ADIABATIC, "non-adiabatic"
    else:
        code, label = EXIT_OK, "adiabatic"
    print(f"verdict={label}")
    return code


def cmd_refit(args, cfg: RunConfig, out: Path) -> int:
    settings = cfg.search_settings()
    quotes, free = _fit_from_quote_args(args)
    if not free.converged:
        print("fit did not converge", file=sys.stderr)
        return EXIT_CONVERGENCE

    verdict = adiab.adiabatic_check(free.params, mode=cfg.mode, settings=settings)
    final, final_report = adiab.adiabatic_refit(quotes, free, verdict.chi_c, settings)
    items = (
        _fit_report_items(free, "unconstrained")
        + _fit_report_items(final, "final")
        + [
            ("chi_c", verdict.chi_c),
            ("chi_c_source", verdict.source),
            ("refit_applied", final is not free),
            ("final_unimodal", final_report.unimodal),
        ]
    )
    write_report(out / "refit.txt", items)

    free_curve = dens.density_curve(free.params, points=cfg.grid, span=cfg.span)
    xs = free_curve.xs
    vol_free = sigma_of_x(free.params, xs)
    p_free = free_curve.ps
    if final is free:  # the same arrays, so write_csv formats each once
        vol_final, p_final = vol_free, p_free
    else:
        vol_final = sigma_of_x(final.params, xs)
        p_final = dens.return_density(final.params, xs)
    write_csv(
        out / "refit_comparison.csv",
        ["x", "vol_unconstrained", "vol_constrained", "density_unconstrained", "density_constrained"],
        [xs, vol_free, vol_final, p_free, p_final],
    )
    if cfg.svg:
        write_line_plot(
            out / "refit_density.svg",
            [("unconstrained", xs, p_free), ("constrained", xs, p_final)],
            title="return density before/after adiabatic constraint",
            xlabel="x",
            ylabel="p(x)",
        )
        write_line_plot(
            out / "refit_smile.svg",
            [("unconstrained", xs, vol_free), ("constrained", xs, vol_final)],
            title="smile before/after adiabatic constraint",
            xlabel="x",
            ylabel="vol",
        )
    if not final.converged:
        print("refit did not converge", file=sys.stderr)
        return EXIT_CONVERGENCE
    if not final_report.unimodal:
        print("constrained refit still non-unimodal", file=sys.stderr)
        return EXIT_CONSTRAINED_FAILURE
    return EXIT_OK


def cmd_density(args, cfg: RunConfig, out: Path) -> int:
    params = _params_from_args(args)
    _density_report(out, cfg, params, "density.txt", [])
    return EXIT_OK


# the most points a sweep lattice may have, checked before a requested axis
# or the lattice is built
_MAX_SWEEP_POINTS = 10**6


def _parse_axis(spec: str) -> tuple[float, float, int] | None:
    """The ``LO:HI:COUNT`` of a sweep axis, or ``None`` for the default axis."""
    if not spec:
        return None
    parts = spec.split(":")
    if len(parts) != 3:
        raise QuoteFormatError(f"axis spec must be LO:HI:COUNT, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise QuoteFormatError(f"bad axis spec {spec!r}: {exc}") from exc
    if not (0 < lo <= hi < np.inf) or count < 1:
        raise QuoteFormatError(f"axis spec out of range: {spec!r}")
    return lo, hi, count


_SWEEP_HEADER = ["g", "T", "n", "rho", "chi_c", "status"]


def read_sweep_csv(path: str) -> list[adiab.SweepRow]:
    lines = _read_text(path, "sweep file").splitlines()
    if not lines or [f.strip() for f in lines[0].split(",")] != _SWEEP_HEADER:
        raise QuoteFormatError(f"{path}: expected header {','.join(_SWEEP_HEADER)}")
    rows = []
    for i, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        fields = line.split(",", maxsplit=5)
        if len(fields) != 6:
            raise QuoteFormatError(f"{path}: line {i}: expected 6 fields")
        try:
            rows.append(
                adiab.SweepRow(
                    g=float(fields[0]),
                    maturity=float(fields[1]),
                    n=float(fields[2]),
                    rho=float(fields[3]),
                    chi_c=float(fields[4]),
                    status=fields[5].strip(),
                )
            )
        except ValueError as exc:
            raise QuoteFormatError(f"{path}: line {i}: {exc}") from exc
    return rows


def _row_key(g: float, rho: float, maturity: float) -> tuple[str, str, str]:
    return (format(g, ".12g"), format(rho, ".12g"), format(maturity, ".12g"))


def cmd_sweep(args, cfg: RunConfig, out: Path) -> int:
    settings = cfg.search_settings()  # bad settings exit 2 before the CSV is touched
    specs = [_parse_axis(s) for s in (args.g_range, args.rho_range, args.t_range)]
    defaults = adiab.default_sweep_axes()
    size = math.prod(len(d) if p is None else p[2] for p, d in zip(specs, defaults))
    if size > _MAX_SWEEP_POINTS:
        raise QuoteFormatError(f"sweep lattice has {size} points, more than {_MAX_SWEEP_POINTS}")
    g_axis, rho_axis, t_axis = (
        d if p is None else np.geomspace(*p) for p, d in zip(specs, defaults)
    )
    path = out / "sweep.csv"

    done: dict[tuple[str, str, str], adiab.SweepRow] = {}
    if path.exists():
        for row in read_sweep_csv(str(path)):
            if row.status == "ok":
                done[_row_key(row.g, row.rho, row.maturity)] = row

    # one row per distinct point: an axis such as 0.1:0.1:3 repeats its value
    lattice: dict[tuple[str, str, str], tuple[float, float, float]] = {}
    for g, rho, t in product(g_axis, rho_axis, t_axis):
        point = (float(g), float(rho), float(t))
        lattice.setdefault(_row_key(*point), point)
    missing = [pt for key, pt in lattice.items() if key not in done]
    print(f"sweep: {len(lattice)} rows, {len(lattice) - len(missing)} reused, "
          f"{len(missing)} to compute")

    # rows reach the file as they complete, so an interrupted sweep resumes
    # from what it finished; the final rewrite restores lattice order
    write_csv(path, _SWEEP_HEADER, zip(*map(_sweep_fields, done.values())))
    with path.open("ab") as fh:
        for row in adiab.sweep_points(missing, settings):
            fh.writelines(_csv.rows([(v,) for v in _sweep_fields(row)]))
            fh.flush()
            done[_row_key(row.g, row.rho, row.maturity)] = row

    rows = [done[key] for key in lattice]
    write_csv(path, _SWEEP_HEADER, zip(*map(_sweep_fields, rows)))
    ok = sum(1 for r in rows if r.status == "ok")
    print(f"sweep complete: {ok}/{len(rows)} rows ok -> {path}")
    if cfg.svg:
        _sweep_svg(out, rows)
    return EXIT_OK if ok >= 0.9 * len(rows) else EXIT_CONVERGENCE


def _sweep_fields(r: adiab.SweepRow) -> tuple:
    return (r.g, r.maturity, r.n, r.rho, r.chi_c, r.status)


def _sweep_svg(out: Path, rows: list[adiab.SweepRow]) -> None:
    by_gt: dict[tuple[float, float], list[adiab.SweepRow]] = {}
    for r in rows:
        if r.status == "ok":
            by_gt.setdefault((r.g, r.maturity), []).append(r)
    series = []
    for (g, t), group in sorted(by_gt.items())[:6]:
        group = sorted(group, key=lambda r: r.n)
        series.append(
            (f"g={g:.3g},T={t:.3g}", [r.n for r in group], [r.chi_c for r in group])
        )
    if series:
        write_line_plot(
            out / "boundary.svg",
            series,
            title="critical plateau ratio vs squared half-width",
            xlabel="n",
            ylabel="chi_c",
        )


def cmd_calibrate(args, cfg: RunConfig, out: Path) -> int:
    rows = read_sweep_csv(args.sweepfile)
    try:
        result = adiab.calibrate_critical_fit(rows)
    except (DomainError, IdentifiabilityError) as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    p, err = result.params, result.stderr
    items = [
        ("alpha", p.alpha),
        ("alpha_stderr", err[0]),
        ("beta", p.beta),
        ("beta_stderr", err[1]),
        ("gamma", p.gamma),
        ("gamma_stderr", err[2]),
        ("delta", p.delta),
        ("delta_stderr", err[3]),
        ("mse", result.mse),
        ("n_rows", result.n_rows),
    ]
    write_report(out / "calibration.txt", items)
    return EXIT_OK


def cmd_bl_oracle(args, cfg: RunConfig, out: Path) -> int:
    params = _params_from_args(args)
    spot, rate = _market_context(args, {})
    env = MarketEnv(spot=spot, rate=rate, maturity=params.maturity)

    curve = dens.density_curve(params, points=cfg.grid, span=cfg.span)
    strikes = x_to_strike(env, curve.xs)
    if not (strikes[0] > 0.0 and math.isfinite(strikes[-1])):
        raise DomainError(f"grid x in [{curve.xs[0]}, {curve.xs[-1]}] with rT = "
                          f"{rate * params.maturity} maps to strikes of 0 or inf")
    vol_fn = dens.smile_vol_of_strike(env, params)
    step = None if cfg.step_frac is None else strikes * cfg.step_frac
    oracle, err = dens.bl_density_oracle(env, vol_fn, strikes, step=step)
    oracle_x = oracle * strikes  # convert price-space density to x-space
    analytic = curve.ps
    denom = np.maximum(np.abs(analytic), 1e-300)
    rel = np.abs(oracle_x - analytic) / denom
    flagged = (err * strikes) > 1e-3 * np.abs(oracle_x)
    write_csv(
        out / "bl_oracle.csv",
        ["strike", "x", "density_oracle", "density_analytic", "rel_diff", "flagged"],
        [strikes, curve.xs, oracle_x, analytic, rel, flagged],
    )
    core = analytic > 1e-3 * analytic.max()
    print(f"max rel diff where density > 1e-3 of peak: {_fmt(float(rel[core].max()))}")
    print(f"flagged points: {int(flagged.sum())}")
    return EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


# each flag's argparse settings, in the order usage lists them
_FLAGS = {
    "--params": dict(help="smile parameters G,CHI,N"),
    "--params-file": dict(help="key=value file with g, chi, n, maturity"),
    "--g-range": dict(help="LO:HI:COUNT (default 0.03:0.5:6)"),
    "--rho-range": dict(help="LO:HI:COUNT (default 2.5:10:6)"),
    "--t-range": dict(help="LO:HI:COUNT (default 1/365:4:6)"),
    "--maturity": dict(type=float, help="time to maturity in years"),
    "--spot": dict(type=float, help="spot price (default 1)"),
    "--rate": dict(type=float, help="risk-free rate (default 0)"),
    "--grid": dict(type=int, help="density grid points"),
    "--span": dict(type=float, help="grid half-width in smile scales"),
    "--chi-max": dict(type=float, help="upper end of the chi search"),
    "--mode": dict(choices=("formula", "numeric"), help="how to evaluate the critical ratio"),
    "--step-frac": dict(type=float, help="oracle stencil step as a fraction of strike"),
    "--out": dict(help="output directory"),
    "--svg": dict(action="store_true", default=None, help="also render SVG plots"),
    "--config": dict(help="key=value config file"),
}
_FIT = ("--maturity", "--spot", "--rate", "--svg")
_GRID = ("--grid", "--span")
_SEARCH = (*_GRID, "--chi-max", "--mode")
_SMILE = ("--params", "--params-file", "--maturity")
# command: (help, its positional argument, "?" marking it optional, or None,
# and the flags the command reads besides --out and --config)
_COMMANDS = {
    "fit": ("fit the smile to a quote file", "quotefile", _FIT),
    "check": ("adiabatic check and density report", "quotefile?", (*_SMILE, *_FIT, *_SEARCH)),
    "refit": ("fit, check, and constrain if needed", "quotefile", (*_FIT, *_SEARCH)),
    "density": ("evaluate the implied density on the standard grid", None,
                (*_SMILE, *_GRID, "--svg")),
    "sweep": ("map the critical ratio over a parameter lattice", None,
              ("--g-range", "--rho-range", "--t-range", *_GRID, "--chi-max", "--svg")),
    "calibrate": ("fit the critical-ratio surface to a sweep CSV", "sweepfile", ()),
    "bl-oracle": ("finite-difference density vs the closed form", None,
                  (*_SMILE, "--spot", "--rate", *_GRID, "--step-frac")),
}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser refuses the arguments it does not take itself, so
    the error names the command and shows its usage, not the top level's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smilecal",
        description="volatility smile calibration with risk-neutral density validation",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, (help_text, positional, reads) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if positional:
            p.add_argument(positional.rstrip("?"), nargs="?" if positional[-1] == "?" else None)
        for flag, settings in _FLAGS.items():
            if flag in reads or flag in ("--out", "--config"):
                p.add_argument(flag, **settings)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up on each call, so a later patch of a cmd_* name takes effect
    command = globals()[f"cmd_{args.command.replace('-', '_')}"]
    try:
        cfg = resolve_config(args)
        out = Path(cfg.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise QuoteFormatError(f"cannot create output directory {out}: {exc}") from exc
        return command(args, cfg, out)
    except (DomainError, OSError) as exc:  # OSError: an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
