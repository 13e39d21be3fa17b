"""End-to-end CLI tests: quote parsing, every subcommand, exit codes,
file formats, resume behavior, config precedence, determinism.
"""

import argparse
import dataclasses
import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smilecal
from smilecal import SmileParams, adiabatic, cli, errors, sigma_of_x, std_normal_cdf
from smilecal.cli import (
    EXIT_CONSTRAINED_FAILURE,
    EXIT_CONVERGENCE,
    EXIT_NEGATIVE_DENSITY,
    EXIT_NON_ADIABATIC,
    EXIT_OK,
    EXIT_PARSE,
    main,
    parse_quote_file,
    read_report,
    read_sweep_csv,
    write_csv,
)

TRUTH = SmileParams(g=0.12, chi=1.8, n=0.002, maturity=0.25)
NON_ADIABATIC = SmileParams(g=0.1, chi=2.7, n=0.04, maturity=0.5)
# rho = 7, chi well under the critical ratio (~2.43): a clean density
ADIABATIC = SmileParams(g=0.15, chi=1.6, n=0.07875, maturity=0.5)


def _write_quotes(path, params, n_points=11, halfspan=0.15, kind="x"):
    xs = params.x_min + np.linspace(-halfspan, halfspan, n_points)
    lines = [f"maturity,{params.maturity!r}", f"{kind},vol"]
    for x in xs:
        lines.append(f"{float(x)!r},{sigma_of_x(params, float(x))!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_delta_quotes(path, params, n_points=9):
    lines = ["delta,vol"]
    for x in params.x_min + np.linspace(-0.1, 0.1, n_points):
        vol = float(sigma_of_x(params, float(x)))
        srt = vol * math.sqrt(params.maturity)
        delta = std_normal_cdf((0.5 * vol * vol * params.maturity - float(x)) / srt)
        lines.append(f"{delta!r},{vol!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestQuoteParsing:
    def test_x_quotes_with_context(self, tmp_path):
        qfile = _write_quotes(tmp_path / "q.csv", TRUTH)
        parsed = parse_quote_file(str(qfile))
        assert parsed.kind == "x"
        assert parsed.context["maturity"] == TRUTH.maturity
        assert len(parsed.rows) == 11

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("# comment\n\nx,vol\n0.0,0.2\n0.1,0.21\n", encoding="utf-8")
        assert len(parse_quote_file(str(p)).rows) == 2

    def test_missing_header(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("0.0,0.2\n", encoding="utf-8")
        with pytest.raises(Exception, match="header"):
            parse_quote_file(str(p))

    def test_bad_row_reports_line(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("x,vol\n0.0,0.2\nfoo,bar\n", encoding="utf-8")
        with pytest.raises(Exception, match="line 3"):
            parse_quote_file(str(p))

    def test_duplicate_coordinates(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("x,vol\n0.0,0.2\n0.0,0.21\n", encoding="utf-8")
        with pytest.raises(Exception, match="duplicate"):
            parse_quote_file(str(p))

    def test_nonpositive_vol(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("x,vol\n0.0,-0.2\n", encoding="utf-8")
        with pytest.raises(Exception, match="positive"):
            parse_quote_file(str(p))


class TestFit:
    def test_round_trip(self, tmp_path):
        qfile = _write_quotes(tmp_path / "q.csv", TRUTH)
        out = tmp_path / "out"
        assert main(["fit", str(qfile), "--out", str(out)]) == EXIT_OK
        report = read_report(out / "fit.txt")
        assert float(report["g"]) == pytest.approx(TRUTH.g, rel=1e-6)
        assert float(report["chi"]) == pytest.approx(TRUTH.chi, rel=1e-6)
        assert float(report["n"]) == pytest.approx(TRUTH.n, rel=1e-6)
        assert report["converged"] == "True"
        lines = (out / "fit_residuals.csv").read_text().splitlines()
        assert lines[0] == "x,vol_observed,vol_fitted,residual"
        assert len(lines) == 12

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("x,vol\n0.0,0.2\noops\n", encoding="utf-8")
        assert main(["fit", str(p), "--maturity", "0.5"]) == EXIT_PARSE
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["fit", str(tmp_path / "none.csv"), "--maturity", "1"]) == EXIT_PARSE

    def test_flat_vols(self, tmp_path):
        p = tmp_path / "flat.csv"
        p.write_text(
            "x,vol\n" + "".join(f"{x},0.2\n" for x in (-0.1, -0.03, 0.02, 0.1, 0.15)),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["fit", str(p), "--maturity", "0.5", "--out", str(out)]) == EXIT_OK
        report = read_report(out / "fit.txt")
        assert float(report["chi"]) == 1.0
        assert float(report["g"]) == 0.2

    @pytest.mark.parametrize("draw", [8, 11, 13, 22])
    def test_diverging_fit_exit_3(self, tmp_path, capsys, draw):
        # 8 random quotes on which the unconstrained fit overflows or underflows
        rng = np.random.default_rng(1)
        for _ in range(draw + 1):
            xs = np.sort(rng.uniform(-0.4, 0.4, 8))
            vols = rng.uniform(0.05, 0.6, 8)
        p = tmp_path / "q.csv"
        p.write_text("x,vol\n" + "".join(f"{x!r},{v!r}\n" for x, v in zip(xs.tolist(), vols.tolist())))
        for command in ("fit", "refit"):
            args = [command, str(p), "--maturity", "0.5", "--out", str(tmp_path / command)]
            assert main(args) == EXIT_CONVERGENCE
            assert "diverged" in capsys.readouterr().err

    def test_maturity_required(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("x,vol\n0.0,0.2\n0.1,0.22\n0.2,0.25\n-0.1,0.22\n", encoding="utf-8")
        assert main(["fit", str(p)]) == EXIT_PARSE

    def test_delta_quotes(self, tmp_path):
        p = _write_delta_quotes(tmp_path / "d.csv", TRUTH)
        out = tmp_path / "out"
        code = main(["fit", str(p), "--maturity", str(TRUTH.maturity), "--out", str(out)])
        assert code == EXIT_OK
        assert float(read_report(out / "fit.txt")["g"]) == pytest.approx(TRUTH.g, rel=1e-6)

    def test_delta_quotes_convert_once(self, tmp_path, monkeypatch):
        import smilecal.smile

        p = _write_delta_quotes(tmp_path / "d.csv", TRUTH, n_points=15)
        # reference: fit the delta quotes themselves, then convert each for
        # the residual table, as the fit command did before converting once
        t = TRUTH.maturity
        quotes = [smilecal.VolQuote(vol=v, delta=d) for d, v in parse_quote_file(str(p)).rows]
        fitted = smilecal.fit_smile(quotes, t).params
        xs = np.array([q.to_x(t) for q in quotes])
        vols = np.array([q.vol for q in quotes])
        model = sigma_of_x(fitted, xs)
        write_csv(tmp_path / "reference.csv", ["x", "vol_observed", "vol_fitted", "residual"],
                  [xs, vols, model, model - vols])

        calls = []
        real = smilecal.smile.delta_to_x

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(smilecal.smile, "delta_to_x", counting)
        out = tmp_path / "out"
        assert main(["fit", str(p), "--maturity", repr(t), "--out", str(out)]) == EXIT_OK
        assert len(calls) == 15
        assert (out / "fit_residuals.csv").read_bytes() == (
            tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize(
        "kind, coord, message",
        [
            ("x", "nan", "quote x must be finite, got nan"),
            ("x", "inf", "quote x must be finite, got inf"),
            ("strike", "nan", "strike must be positive"),
            ("strike", "inf", "quote x must be finite, got inf"),
        ],
    )
    def test_non_finite_coordinate_exit_2(self, tmp_path, capsys, kind, coord, message):
        # the fault is named where it enters, not as a fit parameter
        p = tmp_path / "q.csv"
        p.write_text(f"maturity,0.5\n{kind},vol\n0.9,0.2\n1.0,0.18\n{coord},0.2\n1.1,0.21\n",
                     encoding="utf-8")
        for command in ("fit", "check", "refit"):
            assert main([command, str(p), "--out", str(tmp_path / command)]) == EXIT_PARSE
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_subnormal_vol_exit_3(self, tmp_path, capsys, recwarn):
        p = tmp_path / "q.csv"
        p.write_text("maturity,0.5\nx,vol\n-0.1,0.2\n0.0,5e-324\n0.1,0.21\n0.2,0.25\n",
                     encoding="utf-8")
        for command in ("fit", "check", "refit"):
            assert main([command, str(p), "--out", str(tmp_path / command)]) == EXIT_CONVERGENCE
            err = capsys.readouterr().err
            assert err == "error: smile fit diverged: start chi 0.25 / 5e-324 overflows\n"
        assert not recwarn.list

    @pytest.mark.parametrize("bound, quarter", [("1e300", "5e+299"), ("1e308", "inf")])
    def test_overflowing_start_half_width_exit_3(self, tmp_path, capsys, recwarn, bound, quarter):
        # finite quotes whose span, or its square, overflows
        p = tmp_path / "q.csv"
        p.write_text(f"maturity,0.5\nx,vol\n-{bound},0.2\n0,0.18\n0.1,0.21\n{bound},0.25\n",
                     encoding="utf-8")
        for command in ("fit", "refit"):
            assert main([command, str(p), "--out", str(tmp_path / command)]) == EXIT_CONVERGENCE
            err = capsys.readouterr().err
            assert err == f"error: smile fit diverged: start n = {quarter}^2 overflows\n"
        assert not recwarn.list

    def test_overflowing_delta_conversion_exit_2(self, tmp_path, capsys, recwarn):
        p = tmp_path / "d.csv"
        p.write_text("maturity,0.5\ndelta,vol\n0.2,0.2\n0.4,1e300\n0.6,0.21\n0.8,0.25\n",
                     encoding="utf-8")
        for command in ("fit", "refit"):
            assert main([command, str(p), "--out", str(tmp_path / command)]) == EXIT_PARSE
            assert capsys.readouterr().err == "error: quote x must be finite, got inf\n"
        assert not recwarn.list

    def test_bad_delta_message_unchanged(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        p.write_text("delta,vol\n0.2,0.1\n0.4,0.1\n1.5,0.1\n0.8,0.1\n", encoding="utf-8")
        assert main(["fit", str(p), "--maturity", "0.5", "--out", str(tmp_path)]) == EXIT_PARSE
        assert capsys.readouterr().err == "error: delta must lie in (0, 1), got 1.5\n"

    def test_strike_quotes_with_context(self, tmp_path):
        spot, rate = 100.0, 0.02
        xs = TRUTH.x_min + np.linspace(-0.1, 0.1, 9)
        lines = [f"spot,{spot}", f"rate,{rate}", f"maturity,{TRUTH.maturity}", "strike,vol"]
        for x in xs:
            strike = spot * math.exp(float(x) + rate * TRUTH.maturity)
            lines.append(f"{strike!r},{sigma_of_x(TRUTH, float(x))!r}")
        p = tmp_path / "k.csv"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["fit", str(p), "--out", str(out)]) == EXIT_OK
        assert float(read_report(out / "fit.txt")["g"]) == pytest.approx(TRUTH.g, rel=1e-6)


class TestCheck:
    def test_fig1_exit_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["check", "--params", "0.1,2.7,0.04", "--maturity", "0.5", "--out", str(out)]
        )
        assert code == EXIT_NON_ADIABATIC
        stdout = capsys.readouterr().out
        assert "verdict=non-adiabatic" in stdout
        assert "minimum at x=" in stdout
        report = read_report(out / "check.txt")
        assert report["adiabatic"] == "False"
        assert int(report["n_minima"]) >= 1
        # density CSV present and loadable
        lines = (out / "density.csv").read_text().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 4002

    def test_flat_exit_0(self, tmp_path):
        code = main(
            ["check", "--params", "0.2,1.0,0.01", "--maturity", "1.0",
             "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_OK

    def test_negative_density_exit_4(self, tmp_path, capsys):
        code = main(
            ["check", "--params", "0.2,10.0,0.0001", "--maturity", "0.5",
             "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_NEGATIVE_DENSITY
        assert "negative density on" in capsys.readouterr().out

    def test_from_quotefile(self, tmp_path):
        qfile = _write_quotes(tmp_path / "q.csv", ADIABATIC, n_points=13, halfspan=0.6)
        assert main(["check", str(qfile), "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_from_params_file(self, tmp_path):
        qfile = _write_quotes(tmp_path / "q.csv", ADIABATIC, n_points=13, halfspan=0.6)
        out = tmp_path / "out"
        assert main(["fit", str(qfile), "--out", str(out)]) == EXIT_OK
        code = main(
            ["check", "--params-file", str(out / "fit.txt"), "--out", str(out)]
        )
        assert code == EXIT_OK

    def test_numeric_mode(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["check", "--params", "0.1,2.7,0.04", "--maturity", "0.5",
             "--mode", "numeric", "--out", str(out)]
        )
        assert code == EXIT_NON_ADIABATIC
        report = read_report(out / "check.txt")
        assert report["chi_c_source"] == "numeric"
        assert 1.0 < float(report["chi_c"]) < 2.7

    def test_params_need_maturity(self, tmp_path):
        assert main(["check", "--params", "0.1,2.7,0.04"]) == EXIT_PARSE

    def test_svg_written(self, tmp_path):
        out = tmp_path / "out"
        main(["check", "--params", "0.1,2.7,0.04", "--maturity", "0.5",
              "--out", str(out), "--svg"])
        svg = (out / "density.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg


class TestRefit:
    def _nonadiabatic_quotes(self, tmp_path):
        return _write_quotes(tmp_path / "q.csv", NON_ADIABATIC, n_points=15, halfspan=0.45)

    def test_constrains_to_unimodal(self, tmp_path, capsys):
        qfile = self._nonadiabatic_quotes(tmp_path)
        out = tmp_path / "out"
        assert main(["refit", str(qfile), "--out", str(out)]) == EXIT_OK
        report = read_report(out / "refit.txt")
        assert report["refit_applied"] == "True"
        assert report["final_unimodal"] == "True"
        assert float(report["unconstrained_chi"]) == pytest.approx(2.7, rel=1e-4)
        # pinned below its own fold, above the final chi 2.41684739303458 of
        # the bisected cap that the pinned fit replaced
        assert float(report["final_chi"]) > 2.41684739303458
        # comparison file carries both curves on one grid
        lines = (out / "refit_comparison.csv").read_text().splitlines()
        assert lines[0] == (
            "x,vol_unconstrained,vol_constrained,density_unconstrained,density_constrained"
        )
        assert len(lines) == 4002

    def test_constrained_density_verifiably_clean(self, tmp_path):
        from smilecal import analyze, density_curve

        qfile = self._nonadiabatic_quotes(tmp_path)
        out = tmp_path / "out"
        main(["refit", str(qfile), "--out", str(out)])
        report = read_report(out / "refit.txt")
        params = SmileParams(
            g=float(report["final_g"]),
            chi=float(report["final_chi"]),
            n=float(report["final_n"]),
            maturity=float(report["final_maturity"]),
        )
        assert analyze(density_curve(params)).unimodal

    def test_formula_refit_runs_no_numeric_search(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("chi_critical_numeric called")

        monkeypatch.setattr(adiabatic, "chi_critical_numeric", refuse)
        out = tmp_path / "out"
        code = main(["refit", str(self._nonadiabatic_quotes(tmp_path)), "--out", str(out)])
        assert code == EXIT_OK
        assert read_report(out / "refit.txt")["final_unimodal"] == "True"

    def test_adiabatic_input_unchanged(self, tmp_path):
        qfile = _write_quotes(tmp_path / "q.csv", ADIABATIC, n_points=13, halfspan=0.6)
        out = tmp_path / "out"
        assert main(["refit", str(qfile), "--out", str(out)]) == EXIT_OK
        report = read_report(out / "refit.txt")
        assert report["refit_applied"] == "False"
        assert report["final_g"] == report["unconstrained_g"]
        assert report["final_chi"] == report["unconstrained_chi"]

    def test_exit_5_when_no_bound_cleans_the_density(self, tmp_path, monkeypatch):
        # force every density verdict to show a minimum so no clamp can win
        from smilecal.density import DensityReport, StationaryPoint

        def always_bad(curve):
            return DensityReport(
                curve=curve,
                minima=(StationaryPoint(x=0.0, kind="minimum", p=0.1),),
                negative_regions=(),
            )

        monkeypatch.setattr(adiabatic, "analyze", always_bad)
        qfile = self._nonadiabatic_quotes(tmp_path)
        out = tmp_path / "out"
        assert main(["refit", str(qfile), "--out", str(out)]) == EXIT_CONSTRAINED_FAILURE
        assert read_report(out / "refit.txt")["final_unimodal"] == "False"

    def test_flat_fit_kept_below_a_formula_bound_under_one(self, tmp_path):
        # a narrow flat file: the surface gives chi_c = 0.2055 for its fit
        qfile = tmp_path / "flat.csv"
        qfile.write_text(
            "maturity,2.0\nx,vol\n-0.05,0.5\n-0.02,0.5\n0.01,0.5\n0.04,0.5\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["refit", str(qfile), "--out", str(out)]) == EXIT_OK
        report = read_report(out / "refit.txt")
        assert float(report["chi_c"]) == pytest.approx(0.2055, abs=1e-4)
        assert report["refit_applied"] == "False"
        assert report["final_chi"] == report["unconstrained_chi"] == "1"
        assert report["final_unimodal"] == "True"

    def test_one_free_fit_one_pinned_fit_and_one_verdict(self, tmp_path, monkeypatch):
        from smilecal import density, smile

        calls = {"free": 0, "pinned": 0, "verdict": 0}
        real_solve = smile._solve

        def solve(xs, vols, start, chi_fixed):
            calls["free" if chi_fixed is None else "pinned"] += 1
            return real_solve(xs, vols, start, chi_fixed)

        def counted(module):
            real = module.analyze

            def analyze(curve):
                calls["verdict"] += 1
                return real(curve)

            monkeypatch.setattr(module, "analyze", analyze)

        monkeypatch.setattr(smile, "_solve", solve)
        counted(adiabatic)
        counted(density)
        out = tmp_path / "out"
        assert main(["refit", str(self._nonadiabatic_quotes(tmp_path)), "--out", str(out)]) == 0
        assert read_report(out / "refit.txt")["refit_applied"] == "True"
        # the formula bound is below the free chi: no verdict on the free fit
        assert calls == {"free": 1, "pinned": 1, "verdict": 1}

    def test_free_fit_under_the_bound_adds_one_verdict(self, tmp_path, monkeypatch):
        # a bound of 3 is above the free chi 2.7, whose density has a minimum
        real_check, real_analyze = adiabatic.adiabatic_check, adiabatic.analyze
        verdicts = []

        def high_bound(params, mode, settings):
            return dataclasses.replace(real_check(params, mode, settings), chi_c=3.0)

        def analyze(curve):
            verdicts.append(real_analyze(curve))
            return verdicts[-1]

        monkeypatch.setattr(adiabatic, "adiabatic_check", high_bound)
        monkeypatch.setattr(adiabatic, "analyze", analyze)
        out = tmp_path / "out"
        assert main(["refit", str(self._nonadiabatic_quotes(tmp_path)), "--out", str(out)]) == 0
        assert read_report(out / "refit.txt")["refit_applied"] == "True"
        assert [v.unimodal for v in verdicts] == [False, True]

    def test_fold_too_close_to_one_exits_3(self, tmp_path, monkeypatch, capsys):
        # pinned 0.1% below a fold of 1.0005, chi would be below 1: no fit
        # to pin, a convergence failure rather than a domain error
        monkeypatch.setattr(adiabatic, "_fold_point", lambda rho, s: (-1.0, 1.0005))
        out = tmp_path / "out"
        code = main(["refit", str(self._nonadiabatic_quotes(tmp_path)), "--out", str(out)])
        assert code == EXIT_CONVERGENCE
        assert capsys.readouterr().err.startswith("error: no fold to pin chi to")

    def test_unconverged_final_fit_exits_3(self, tmp_path, monkeypatch, capsys):
        from smilecal import smile

        real_solve = smile._solve

        def unconverged(xs, vols, start, chi_fixed):
            fit = real_solve(xs, vols, start, chi_fixed)
            return fit if chi_fixed is None else dataclasses.replace(fit, converged=False)

        monkeypatch.setattr(smile, "_solve", unconverged)
        out = tmp_path / "out"
        code = main(["refit", str(self._nonadiabatic_quotes(tmp_path)), "--out", str(out)])
        assert code == EXIT_CONVERGENCE
        assert capsys.readouterr().err == "refit did not converge\n"
        report = read_report(out / "refit.txt")
        assert report["final_converged"] == "False"
        assert report["final_unimodal"] == "True"


# four x quotes whose fit capped at the numeric chi_c collapses to
# n = 6.5e-250; the free fit lies far outside the surface's calibrated box,
# where the surface gives chi_c = 0.575, and the fit pinned to its own fold
# does not collapse
COLLAPSING_QUOTES = (
    "maturity,4.0\nx,vol\n"
    "0.49772525820941405,1.5189508395823534\n"
    "4.54313625062083e-234,0.6565408442132676\n"
    "0.29490456440431667,1.4910045167370825\n"
    "1.1125369292536007e-308,2.109561358793571\n"
)


@pytest.mark.parametrize("mode", ["formula", "numeric"])
class TestCollapsingFit:
    def test_refit_pins_a_clean_fit(self, tmp_path, recwarn, mode):
        qfile = tmp_path / "q.csv"
        qfile.write_text(COLLAPSING_QUOTES, encoding="utf-8")
        quotes = cli.quotes_from_file(parse_quote_file(str(qfile)), 4.0, 1.0, 0.0)
        with pytest.raises(errors.ConvergenceError, match="smile fit diverged"):
            smilecal.constrained_fit_smile(quotes, smilecal.fit_smile(quotes, 4.0).params,
                                           lambda g, n: (1.0053515625, 0.0, 0.0))
        out = tmp_path / "out"
        assert main(["refit", str(qfile), "--mode", mode, "--out", str(out)]) == EXIT_OK
        report = read_report(out / "refit.txt")
        assert report["refit_applied"] == "True"
        assert report["final_converged"] == report["final_unimodal"] == "True"
        assert float(report["final_n"]) > 1.0
        assert not recwarn.list

    def test_check_exits_4_on_the_searched_bound(self, tmp_path, recwarn, mode):
        qfile = tmp_path / "q.csv"
        qfile.write_text(COLLAPSING_QUOTES, encoding="utf-8")
        out = tmp_path / "out"
        args = ["check", str(qfile), "--mode", mode, "--out", str(out)]
        assert main(args) == EXIT_NEGATIVE_DENSITY
        report = read_report(out / "check.txt")
        assert report["chi_c_source"] == "numeric"
        assert float(report["chi_c"]) == 1.0053515625
        assert not recwarn.list


class TestExtremeSmiles:
    # numpy overflows inside the smile and its Gaussian kernel stay silent;
    # the non-finite checks after them decide the exit
    def test_fit_with_a_huge_maturity_exits_3(self, tmp_path, capsys, recwarn):
        p = tmp_path / "q.csv"
        p.write_text("x,vol\n-0.2,0.3\n-0.1,0.25\n0,0.2\n0.1,0.24\n0.2,0.31\n",
                     encoding="utf-8")
        args = ["fit", str(p), "--maturity", "1e300", "--out", str(tmp_path / "out")]
        assert main(args) == EXIT_CONVERGENCE
        assert capsys.readouterr().err == "fit did not converge\n"
        assert not recwarn.list

    @pytest.mark.parametrize("command", ["check", "density"])
    @pytest.mark.parametrize(
        "params, maturity", [("1e-200,1.5,1e-300", "0.5"), ("1e-150,1.5,1e300", "1")]
    )
    def test_non_finite_density_exits_2(self, tmp_path, capsys, recwarn, command, params,
                                        maturity):
        args = [command, "--params", params, "--maturity", maturity,
                "--out", str(tmp_path / "out")]
        assert main(args) == EXIT_PARSE
        assert capsys.readouterr().err == "error: ps must be finite\n"
        assert not recwarn.list


class TestDensityCommand:
    def test_writes_curve_and_report(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["density", "--params", "0.15,1.6,0.07875", "--maturity", "0.5",
             "--out", str(out), "--grid", "1001"]
        )
        assert code == EXIT_OK
        lines = (out / "density.csv").read_text().splitlines()
        assert len(lines) == 1002
        report = read_report(out / "density.txt")
        assert float(report["total_mass"]) == pytest.approx(1.0, abs=1e-6)
        assert report["unimodal"] == "True"

    def test_grid_flag_changes_extent(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["density", "--params", "0.15,1.5,0.005", "--maturity", "0.5",
              "--out", str(out1), "--grid", "501", "--span", "8"])
        main(["density", "--params", "0.15,1.5,0.005", "--maturity", "0.5",
              "--out", str(out2), "--grid", "501", "--span", "12"])
        last1 = float((out1 / "density.csv").read_text().splitlines()[-1].split(",")[0])
        last2 = float((out2 / "density.csv").read_text().splitlines()[-1].split(",")[0])
        assert last2 > last1

    def test_report_command_exits_0_on_non_adiabatic_density(self, tmp_path):
        # density reports the verdict in density.txt; check exits with it
        out = tmp_path / "out"
        code = main(["density", "--params", "0.1,2.7,0.04", "--maturity", "0.5",
                     "--out", str(out)])
        assert code == EXIT_OK
        report = read_report(out / "density.txt")
        assert report["unimodal"] == "False"
        assert int(report["n_minima"]) > 0

    def test_wide_grid_gap_is_formed_without_overflow(self, tmp_path, recwarn):
        # the grid reaches x = 1559.5; right of 709.78, where exp(x) overflows,
        # every sample is 0. The gap once read nan, after two RuntimeWarnings
        out = tmp_path / "out"
        code = main(["density", "--params",
                     "2.7467483115090343,16.59588414387494,1137.849107154031",
                     "--maturity", "12.418327462781312", "--out", str(out)])
        assert code == EXIT_OK
        assert read_report(out / "density.txt")["martingale_gap"] == "1"
        assert not recwarn.list


class TestSweepAndCalibrate:
    def test_sweep_csv_round_trips(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["sweep", "--g-range", "0.05:0.3:2", "--rho-range", "3:9:2",
             "--t-range", "0.2:1.5:2", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = read_sweep_csv(str(out / "sweep.csv"))
        assert len(rows) == 8
        assert all(r.status == "ok" for r in rows)
        assert all(1.0 < r.chi_c < 20.0 for r in rows)

    def test_resume_skips_completed(self, tmp_path):
        out = tmp_path / "out"
        args = ["sweep", "--g-range", "0.05:0.3:2", "--rho-range", "3:9:2",
                "--t-range", "0.2:1.5:2", "--out", str(out)]
        assert main(args) == EXIT_OK
        path = out / "sweep.csv"
        # poison one completed row; a resume must keep it verbatim
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[4] = "9.25"
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(args) == EXIT_OK
        assert read_sweep_csv(str(path))[0].chi_c == 9.25

    def test_interrupted_sweep_keeps_finished_rows(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        args = ["sweep", "--g-range", "0.05:0.3:2", "--rho-range", "3:9:2",
                "--t-range", "0.2:1.5:2", "--out", str(out)]
        assert main(args) == EXIT_OK
        finished = (out / "sweep.csv").read_bytes()
        (out / "sweep.csv").unlink()

        k = 3
        real = adiabatic._sweep_one
        calls = []

        def interrupted(*point):
            if len(calls) == k:
                raise KeyboardInterrupt
            calls.append(point)
            return real(*point)

        monkeypatch.setattr(adiabatic, "_sweep_one", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(args)
        assert len(read_sweep_csv(str(out / "sweep.csv"))) == k

        monkeypatch.undo()
        capsys.readouterr()
        assert main(args) == EXIT_OK
        assert f"{k} reused, {8 - k} to compute" in capsys.readouterr().out
        assert (out / "sweep.csv").read_bytes() == finished

    def test_repeated_lattice_point_computed_once(self, tmp_path, monkeypatch, capsys):
        real = adiabatic._sweep_one
        calls = []

        def counted(*point):
            calls.append(point)
            return real(*point)

        monkeypatch.setattr(adiabatic, "_sweep_one", counted)
        out = tmp_path / "out"
        code = main(["sweep", "--g-range", "0.1:0.1:3", "--rho-range", "3:3:1",
                     "--t-range", "1:1:1", "--out", str(out)])
        assert code == EXIT_OK
        assert "sweep: 1 rows, 0 reused, 1 to compute" in capsys.readouterr().out
        assert len(read_sweep_csv(str(out / "sweep.csv"))) == 1
        assert len(calls) == 1

    @pytest.mark.parametrize("spec", ["0.1:inf:2", "nan:0.2:2"])
    def test_axis_bound_not_finite_exits_2(self, tmp_path, capsys, spec):
        out = tmp_path / "out"
        code = main(["sweep", "--g-range", spec, "--rho-range", "3:3:1",
                     "--t-range", "1:1:1", "--out", str(out)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == f"error: axis spec out of range: {spec!r}\n"
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "ranges, size",
        [
            (["0.1:0.5:1000000000", "3:3:1", "1:1:1"], 1000000000),
            (["0.1:0.5:101", "3:9:101", "1:2:101"], 1030301),
        ],
        ids=["axis", "lattice"],
    )
    def test_lattice_above_a_million_points_exits_2(self, tmp_path, capsys, monkeypatch,
                                                    ranges, size):
        # checked before any large axis or the lattice is built
        real = np.geomspace

        def geomspace(lo, hi, count):
            assert count <= 10**6
            return real(lo, hi, count)

        def product(*axes):
            raise AssertionError("lattice built")

        monkeypatch.setattr(np, "geomspace", geomspace)
        monkeypatch.setattr(cli, "product", product)
        out = tmp_path / "out"
        g, rho, t = ranges
        code = main(["sweep", "--g-range", g, "--rho-range", rho, "--t-range", t,
                     "--out", str(out)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: sweep lattice has {size} points, more than 1000000\n")
        assert not (out / "sweep.csv").exists()

    def test_coarse_grid_exits_2_without_rows(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["sweep", "--g-range", "0.1:0.1:1", "--rho-range", "3:3:1",
                     "--t-range", "1:1:1", "--grid", "150", "--out", str(out)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: a density curve of span 10.0 needs at least 201 samples, got 150\n")
        assert not (out / "sweep.csv").exists()

    def test_calibrate_near_packaged_constants(self, tmp_path):
        # synthesize a sweep CSV from the packaged surface plus tiny noise
        rng = np.random.default_rng(2)
        rows = []
        for g in np.geomspace(0.03, 0.5, 3):
            for rho in np.geomspace(2.5, 10.0, 3):
                for t in np.geomspace(1 / 365, 4.0, 3):
                    chi_c = (
                        1.4373 * rho**0.2787
                        - 0.1738 * math.sqrt(t) * g * rho**0.4683
                        + rng.normal(0.0, 1e-4)
                    )
                    rows.append((g, t, rho * g * g * t, rho, chi_c, "ok"))
        path = tmp_path / "sweep.csv"
        write_csv(path, ["g", "T", "n", "rho", "chi_c", "status"], zip(*rows))
        out = tmp_path / "out"
        assert main(["calibrate", str(path), "--out", str(out)]) == EXIT_OK
        report = read_report(out / "calibration.txt")
        assert float(report["alpha"]) == pytest.approx(1.4373, abs=1e-3)
        assert float(report["gamma"]) == pytest.approx(-0.1738, abs=1e-2)
        assert float(report["mse"]) < 1e-6
        assert float(report["alpha_stderr"]) > 0.0

    def test_sweep_mostly_failing_exits_3(self, tmp_path):
        # a chi ceiling below every transition makes all rows fail; they are
        # recorded in the CSV, and the command signals the batch failure
        out = tmp_path / "out"
        code = main(
            ["sweep", "--g-range", "0.05:0.3:2", "--rho-range", "3:9:2",
             "--t-range", "0.2:1.5:2", "--chi-max", "1.2", "--out", str(out)]
        )
        assert code == EXIT_CONVERGENCE
        rows = read_sweep_csv(str(out / "sweep.csv"))
        assert len(rows) == 8
        assert all(r.status.startswith("error") for r in rows)

    def test_density_csv_round_trips_exactly(self, tmp_path):
        out = tmp_path / "out"
        main(["density", "--params", "0.15,1.6,0.07875", "--maturity", "0.5",
              "--out", str(out), "--grid", "501"])
        header, *lines = (out / "density.csv").read_text().splitlines()
        assert header == "x,density"
        from smilecal import SmileParams, return_density

        params = SmileParams(g=0.15, chi=1.6, n=0.07875, maturity=0.5)
        xs, ps = np.array([line.split(",") for line in lines], dtype=float).T
        assert np.array_equal(ps, np.asarray(return_density(params, xs)))

    def test_calibrate_single_row_fails(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        write_csv(path, ["g", "T", "n", "rho", "chi_c", "status"],
                  zip(*[(0.1, 0.5, 0.04, 8.0, 2.5, "ok")]))
        assert main(["calibrate", str(path)]) == EXIT_CONVERGENCE
        assert "calibration failed" in capsys.readouterr().err


class TestBlOracleCommand:
    def test_oracle_close_to_analytic(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["bl-oracle", "--params", "0.15,1.6,0.01", "--maturity", "0.5",
             "--grid", "401", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = (out / "bl_oracle.csv").read_text().splitlines()
        assert lines[0] == "strike,x,density_oracle,density_analytic,rel_diff,flagged"
        assert len(lines) == 402
        stdout = capsys.readouterr().out
        max_rel = float(stdout.split("max rel diff where density > 1e-3 of peak: ")[1].split()[0])
        assert max_rel < 1e-4

    def test_zero_step_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["bl-oracle", "--params", "0.1,2.7,0.04", "--maturity", "0.5",
                     "--step-frac", "0", "--out", str(out)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == "error: step must be finite and positive\n"
        assert not (out / "bl_oracle.csv").exists()

    def test_coarse_grid_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["bl-oracle", "--params", "0.1,2.7,0.04", "--maturity", "0.5",
                     "--grid", "150", "--out", str(out)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: a density curve of span 10.0 needs at least 201 samples, got 150\n")
        assert not (out / "bl_oracle.csv").exists()

    def test_unresolvable_step_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["bl-oracle", "--params", "0.1,2.7,0.04", "--maturity", "0.5",
                     "--step-frac", "1e-300", "--out", str(out)])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == "error: stencil step not resolvable in floating point\n"
        assert not (out / "bl_oracle.csv").exists()


class TestConfigAndDeterminism:
    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("grid=501\nspan=8\n", encoding="utf-8")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["density", "--params", "0.15,1.5,0.005", "--maturity", "0.5",
              "--config", str(cfg), "--out", str(out1)])
        assert len((out1 / "density.csv").read_text().splitlines()) == 502
        # the flag overrides the config value
        main(["density", "--params", "0.15,1.5,0.005", "--maturity", "0.5",
              "--config", str(cfg), "--grid", "301", "--out", str(out2)])
        assert len((out2 / "density.csv").read_text().splitlines()) == 302

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("gird=501\n", encoding="utf-8")
        assert main(["density", "--params", "0.15,1.5,0.005", "--maturity", "0.5",
                     "--config", str(cfg)]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "line, expected",
        [
            ("chi-tol=0", EXIT_PARSE),  # the bisection cannot end
            ("chi-tol=nan", EXIT_PARSE),  # the bisection would not start
            ("chi-tol=1e-300", EXIT_OK),  # the bisection stops at float resolution
        ],
    )
    def test_hostile_search_settings_end(self, tmp_path, capsys, line, expected):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        code = main(["check", "--params", "0.1,2.0,0.04", "--maturity", "0.5",
                     "--mode", "numeric", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == expected
        if expected == EXIT_PARSE:
            assert "must be finite and positive" in capsys.readouterr().err

    # the scan's start and step are fixed, and sweeps run serially
    @pytest.mark.parametrize(
        "line",
        ["workers=2", "chi-start=1.02", "chi-step=0.04", "chi-step=0", "chi-step=nan"],
    )
    def test_removed_config_keys_exit_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        code = main(["check", "--params", "0.1,2.0,0.04", "--maturity", "0.5",
                     "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_PARSE
        key = line.partition("=")[0]
        assert capsys.readouterr().err == f"error: {cfg}:1: unknown config key {key!r}\n"

    def test_workers_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--workers", "2", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "\nsmilecal sweep: error: unrecognized arguments: --workers 2\n")

    @pytest.mark.parametrize("command", ["check", "density"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_grid_exit_2(self, tmp_path, capsys, command, source):
        cases = [
            ("-5", "a density curve of span 10.0 needs at least 201 samples, got -5"),
            # refused before the grid, about 0.8 TB of it, is allocated
            ("100000000000", "a density curve takes at most 1000000 samples"),
        ]
        for grid, message in cases:
            if source == "flag":
                extra = ["--grid", grid]
            else:
                cfg = tmp_path / "c.cfg"
                cfg.write_text(f"grid={grid}\n", encoding="utf-8")
                extra = ["--config", str(cfg)]
            out = tmp_path / "out"
            code = main([command, "--params", "0.1,2.7,0.04", "--maturity", "0.5",
                         "--out", str(out), *extra])
            assert code == EXIT_PARSE
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (out / "density.csv").exists()

    @pytest.mark.parametrize("command", ["density", "bl-oracle"])
    @pytest.mark.parametrize("span", ["nan", "-5", "3"])
    def test_bad_span_exit_2(self, tmp_path, capsys, command, span):
        out = tmp_path / "out"
        code = main([command, "--params", "0.1,2.7,0.04", "--maturity", "0.5",
                     "--span", span, "--out", str(out)])
        assert code == EXIT_PARSE
        message = f"span must be finite and at least 4, got {float(span)}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, monkeypatch, source):
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n", encoding="utf-8")
        argv = ["density", "--params", "0.15,1.5,0.005", "--maturity", "0.5"]
        if source == "flag":
            argv += ["--out", str(afile)]
        else:
            monkeypatch.setenv("SMILECAL_OUT", str(afile))
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr().err.startswith(
            f"error: cannot create output directory {afile}: ")

    def test_config_out_dot_beats_env(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("out=.\n", encoding="utf-8")
        monkeypatch.setenv("SMILECAL_OUT", str(tmp_path / "envdir"))
        monkeypatch.chdir(tmp_path)
        assert main(["density", "--params", "0.15,1.5,0.005", "--maturity", "0.5",
                     "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "density.csv").exists()
        assert not (tmp_path / "envdir").exists()

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("SMILECAL_OUT", str(target))
        monkeypatch.chdir(tmp_path)
        main(["density", "--params", "0.15,1.5,0.005", "--maturity", "0.5"])
        assert (target / "density.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["check", "--params", "0.1,2.7,0.04", "--maturity", "0.5",
                  "--out", str(out), "--svg"])
        for name in ("check.txt", "density.csv", "density.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    # field: (config value, what it sets, flag argv or None, what the flag sets)
    SETTINGS = {
        "grid": ("501", 501, ["--grid", "301"], 301),
        "span": ("8", 8.0, ["--span", "9"], 9.0),
        "step_frac": ("0.002", 0.002, ["--step-frac", "0.001"], 0.001),
        "chi_tol": ("1e-5", 1e-5, None, None),
        "chi_max": ("15", 15.0, ["--chi-max", "12"], 12.0),
        "mode": ("numeric", "numeric", ["--mode", "formula"], "formula"),
        "out": ("from-config", "from-config", ["--out", "from-flag"], "from-flag"),
        "svg": ("yes", True, ["--svg"], True),
    }

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(cli.RunConfig)])
    def test_setting_is_config_key_and_flag(self, tmp_path, field):
        config_value, config_sets, flag, flag_sets = self.SETTINGS[field]
        key = field.replace("_", "-")
        path = tmp_path / "c.cfg"
        path.write_text(f"{key}={config_value}\n", encoding="utf-8")
        readers = {c for c, reads in COMMAND_FLAGS.items() if f"--{key}" in reads | EVERY_COMMAND}
        assert bool(readers) == (flag is not None)
        assert flag is None or flag[0] == f"--{key}"
        assert config_sets != getattr(cli.RunConfig(), field)
        for command, sub in _subparsers().items():
            argv = [command, *POSITIONALS.get(command, ()), "--config", str(path)]

            def resolved(*extra):
                args = cli.build_parser().parse_args([*argv, *extra])
                return getattr(cli.resolve_config(args), field)

            # any command's config file sets any key; svg=yes survives a
            # command line without --svg
            assert resolved() == config_sets, command
            assert (f"--{key}" in sub._option_string_actions) == (command in readers), command
            if command in readers:
                assert resolved(*flag) == flag_sets, command  # the flag overrides the key

    def test_svg_flag_overrides_config_no(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("svg=no\n", encoding="utf-8")
        args = ["density", "--config", str(path)]
        assert cli.resolve_config(cli.build_parser().parse_args(args)).svg is False
        assert cli.resolve_config(cli.build_parser().parse_args([*args, "--svg"])).svg is True

    def test_usage_names_grid_and_out(self):
        # each usage names exactly the flags its command reads, --out and --config
        subparsers = _subparsers()
        assert subparsers.keys() == COMMAND_FLAGS.keys()
        for name, sub in subparsers.items():
            named = set(re.findall(r"\[(--[a-z-]+)", sub.format_usage()))
            assert named == COMMAND_FLAGS[name] | EVERY_COMMAND, name


_FIT_FLAGS = {"--maturity", "--spot", "--rate", "--svg"}
_SEARCH_FLAGS = {"--grid", "--span", "--chi-max", "--mode"}
# the flags each command reads, besides those of EVERY_COMMAND
COMMAND_FLAGS = {
    "fit": _FIT_FLAGS,
    "check": _FIT_FLAGS | _SEARCH_FLAGS | {"--params", "--params-file"},
    "refit": _FIT_FLAGS | _SEARCH_FLAGS,
    "density": {"--params", "--params-file", "--maturity", "--grid", "--span", "--svg"},
    "sweep": {"--g-range", "--rho-range", "--t-range", "--grid", "--span", "--chi-max", "--svg"},
    "calibrate": set(),
    "bl-oracle": {"--params", "--params-file", "--maturity", "--spot", "--rate", "--grid",
                  "--span", "--step-frac"},
}
EVERY_COMMAND = {"--out", "--config"}
# the market-context and setting flags; a command takes those it reads and
# refuses the rest
SHARED_FLAGS = ("--maturity", "--spot", "--rate", "--grid", "--span", "--chi-max", "--mode",
                "--step-frac", "--out", "--svg", "--config")
# the positional arguments a command needs to parse; no file is read
POSITIONALS = {"fit": ("q.csv",), "refit": ("q.csv",), "calibrate": ("sweep.csv",)}


class TestFlagsPerCommand:
    """A flag a command does not read exits 2 in argparse, with
    ``unrecognized arguments``; a flag it takes changes its outcome."""

    # the command of each name, run on a strike-quoted file, a sweep CSV
    # holding only its header, or the smile of Figure 1
    BASE = {
        "fit": ["fit", "{quotes}"],
        "check": ["check", "{quotes}"],
        "refit": ["refit", "{quotes}"],
        "density": ["density", "--params", "0.1,2.7,0.04", "--maturity", "0.5"],
        "sweep": ["sweep", "--g-range", "0.1:0.1:1", "--rho-range", "3:3:1", "--t-range", "1:1:1"],
        "calibrate": ["calibrate", "{sweep}"],
        "bl-oracle": ["bl-oracle", "--params", "0.1,2.7,0.04", "--maturity", "0.5"],
    }
    # each flag with a value that makes a command reading it exit 2 (a
    # hostile value), write an SVG file or change its report
    PROBES = {
        "--maturity": ["--maturity", "-1"],
        "--spot": ["--spot", "-1"],
        "--rate": ["--rate", "nan"],
        "--grid": ["--grid", "5"],
        "--span": ["--span", "nan"],
        "--chi-max": ["--chi-max", "inf"],
        "--mode": ["--mode", "numeric"],
        "--step-frac": ["--step-frac", "0"],
        "--out": ["--out", "{afile}"],
        "--svg": ["--svg"],
        "--config": ["--config", "{missing}"],
    }

    @pytest.mark.parametrize("flag", SHARED_FLAGS)
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_flag_is_read_or_refused(self, tmp_path, capsys, command, flag):
        lines = ["maturity,0.5", "strike,vol"]
        for x in ADIABATIC.x_min + np.linspace(-0.15, 0.15, 11):
            lines.append(f"{math.exp(float(x))!r},{sigma_of_x(ADIABATIC, float(x))!r}")
        paths = {"quotes": tmp_path / "k.csv", "sweep": tmp_path / "sweep.csv",
                 "afile": tmp_path / "afile", "missing": tmp_path / "missing.cfg"}
        paths["quotes"].write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths["sweep"].write_text("g,T,n,rho,chi_c,status\n", encoding="utf-8")
        paths["afile"].write_text("not a directory\n", encoding="utf-8")
        probe = [a.format(**paths) for a in self.PROBES[flag]]

        def outcome(extra, out):
            argv = [a.format(**paths) for a in self.BASE[command]]
            code = main([*argv, "--out", str(out), *extra])
            files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
            return code, files

        if flag in COMMAND_FLAGS[command] | EVERY_COMMAND:
            assert outcome(probe, tmp_path / "probe") != outcome([], tmp_path / "base")
        else:
            with pytest.raises(SystemExit) as exc:
                outcome(probe, tmp_path / "probe")
            assert exc.value.code == EXIT_PARSE
            # the command's own parser refuses it, with the command's usage
            err = capsys.readouterr().err
            assert err.startswith(f"usage: smilecal {command} [-h] ")
            assert err.endswith(f"\nsmilecal {command}: error: unrecognized arguments: "
                                f"{' '.join(probe)}\n")


def _subparsers() -> dict:
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestUnreadableInputs:
    """Every input file that cannot be read or decoded exits 2, not in a traceback."""

    READERS = {
        "quote": lambda path: ["fit", path, "--maturity", "0.5"],
        "config": lambda path: ["density", "--params", "0.15,1.5,0.005", "--maturity", "0.5",
                                "--config", path],
        "params": lambda path: ["check", "--params-file", path],
        "sweep": lambda path: ["calibrate", path],
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("fault", ["missing", "directory", "undecodable"])
    def test_exit_2(self, tmp_path, capsys, reader, fault):
        path = tmp_path / "input"
        if fault == "directory":
            path.mkdir()
        elif fault == "undecodable":
            path.write_bytes(b"g=0.1\xff\n")
        argv = self.READERS[reader](str(path))
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_params_file_value_exit_2(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("g=0.1\nchi=2.7\nn=abc\nmaturity=0.5\n", encoding="utf-8")
        assert main(["check", "--params-file", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: ")


class TestErrorLines:
    """Each input fault below ends in its exit code and its one ``error:``
    line; ``{path}`` in a line is the input file."""

    SWEEP_HEADER = "g,T,n,rho,chi_c,status\n"
    CASES = {
        "duplicate header": (["fit", "{path}", "--maturity", "0.5"],
                             "x,vol\n0.0,0.2\nx,vol\n", "{path}: line 3: duplicate header"),
        "no header": (["fit", "{path}"], "maturity,0.5\n# context only\n",
                      "{path}: missing header row"),
        "bad context value": (["fit", "{path}"], "maturity,0.5\nspot,abc\nstrike,vol\n",
                              "{path}: line 2: bad spot value"),
        "two params": (["density", "--params", "0.1,2.7", "--maturity", "0.5"], None,
                       "--params expects G,CHI,N"),
        "non-number param": (["bl-oracle", "--params", "0.1,abc,0.04", "--maturity", "0.5"],
                             None, "--params: could not convert string to float: 'abc'"),
        "params file without n": (["check", "--params-file", "{path}"],
                                  "g=0.1\nchi=2.7\nmaturity=0.5\n", "{path}: missing key 'n'"),
        "two-part axis": (["sweep", "--g-range", "0.1:0.2"], None,
                          "axis spec must be LO:HI:COUNT, got '0.1:0.2'"),
        "non-number axis": (["sweep", "--rho-range", "3:x:2"], None,
                            "bad axis spec '3:x:2': could not convert string to float: 'x'"),
        "sweep header": (["calibrate", "{path}"], "g,T,n\n",
                         "{path}: expected header g,T,n,rho,chi_c,status"),
        "sweep row width": (["calibrate", "{path}"], SWEEP_HEADER + "0.1,1,0.03,3,2.0\n",
                            "{path}: line 2: expected 6 fields"),
        "sweep number": (["calibrate", "{path}"], SWEEP_HEADER + "0.1,1,abc,3,2.0,ok\n",
                         "{path}: line 2: could not convert string to float: 'abc'"),
        "density without smile": (["density"], None,
                                  "density needs --params G,CHI,N with --maturity, "
                                  "or --params-file"),
        "bl-oracle without smile": (["bl-oracle"], None,
                                    "bl-oracle needs --params G,CHI,N with --maturity, "
                                    "or --params-file"),
        "check without smile": (["check"], None,
                                "check needs a quote file, --params or --params-file"),
        "quote file and params": (["check", "{path}", "--params", "0.1,2.7,0.04",
                                   "--maturity", "0.5"], "maturity,0.5\nx,vol\n0.0,0.2\n",
                                  "quote file {path} and --params both give the smile; pass one"),
        "quote file and params file": (["check", "{path}", "--params-file", "{path}"],
                                       "g=0.1\nchi=2.7\nn=0.04\nmaturity=0.5\n",
                                       "quote file {path} and --params-file both give the "
                                       "smile; pass one"),
        "params and params file": (["bl-oracle", "--params", "0.1,2.7,0.04", "--maturity",
                                    "0.5", "--params-file", "{path}"],
                                   "g=0.1\nchi=2.7\nn=0.04\nmaturity=0.5\n",
                                   "--params and --params-file both give the smile; pass one"),
        "maturity and params file": (["density", "--params-file", "{path}", "--maturity", "99"],
                                     "g=0.1\nchi=2.7\nn=0.04\nmaturity=0.5\n",
                                     "--params-file and --maturity both give the maturity; "
                                     "pass one"),
        # bl-oracle's strikes spot * exp(x + rT) leave the floats on the grid
        "oracle strikes underflow": (["bl-oracle", "--params", "0.5,20,1", "--maturity", "100"],
                                     None, "grid x in [-1012.5, 987.5] with rT = 0.0 maps to "
                                     "strikes of 0 or inf"),
        "oracle rate underflow": (["bl-oracle", "--params", "0.1,2.7,0.04", "--maturity", "10",
                                   "--rate=-8.783151347764393e+237"], None,
                                  "grid x in [-8.588149682454626, 8.488149682454624] with rT = "
                                  "-8.783151347764392e+238 maps to strikes of 0 or inf"),
        "oracle rate overflow": (["bl-oracle", "--params", "0.1,2.7,0.04", "--maturity", "10",
                                  "--rate=1689.2999866616678"], None,
                                 "grid x in [-8.588149682454626, 8.488149682454624] with rT = "
                                 "16892.99986661668 maps to strikes of 0 or inf"),
        "mistyped bool": (["density", "--params", "0.1,2.7,0.04", "--maturity", "0.5",
                           "--config", "{path}"], "svg=ture\n",
                          "{path}:1: bad value for svg: expected a bool, got 'ture'"),
        "empty bool": (["density", "--params", "0.1,2.7,0.04", "--maturity", "0.5",
                        "--config", "{path}"], "svg=\n",
                       "{path}:1: bad value for svg: expected a bool, got ''"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_2_with_its_error_line(self, tmp_path, capsys, case):
        argv, text, line = self.CASES[case]
        path = tmp_path / "input"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        argv = [a.format(path=path) for a in argv]
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {line.format(path=path)}\n"

    @pytest.mark.parametrize("argv, name", [
        (["fit", "{path}"], "fit.txt"),
        (["density", "--params", "0.1,2.7,0.04", "--maturity", "0.5"], "density.csv"),
        (["fit", "{path}", "--svg"], "smile.svg"),
    ])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, argv, name):
        # a directory in the place of an output file
        path = _write_quotes(tmp_path / "q.csv", TRUTH)
        blocked = tmp_path / "out" / name
        blocked.mkdir(parents=True)
        argv = [a.format(path=path) for a in argv]
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{blocked}'\n"

    def test_blank_sweep_line_is_skipped(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["sweep", "--g-range", "0.1:0.1:1", "--rho-range", "3:3:1", "--t-range", "1:1:1",
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        path = out / "sweep.csv"
        path.write_text(path.read_text().replace("\n", "\n\n", 1), encoding="utf-8")
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("sweep: 1 rows, 1 reused, 0 to compute\n")


class TestUnconvergedFreeFit:
    """A parabola ``vol = 0.2 (1 + 2 u^2)``, ``u = x + 0.02``, is the limit of
    the smile family as chi and n grow: the free fit stops unconverged at
    200 iterations, and ``check`` and ``refit`` stop there."""

    @pytest.mark.parametrize("command", ["check", "refit"])
    def test_exit_3(self, tmp_path, capsys, command):
        path = tmp_path / "q.csv"
        rows = [f"{x!r},{0.2 * (1.0 + 2.0 * (x + 0.02) ** 2)!r}"
                for x in np.linspace(-0.5, 0.5, 9).tolist()]
        path.write_text("maturity,1.0\nx,vol\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == EXIT_CONVERGENCE
        assert capsys.readouterr().err == "fit did not converge\n"


class TestSvgOutputs:
    """The SVG plots of ``fit``, ``refit`` and ``sweep`` are written, and a
    rerun writes them byte for byte."""

    @pytest.mark.parametrize("command, names", [
        ("fit", ["smile.svg"]),
        ("refit", ["refit_density.svg", "refit_smile.svg"]),
        ("sweep", ["boundary.svg"]),
    ])
    def test_rerun_is_byte_identical(self, tmp_path, command, names):
        if command == "sweep":
            argv = ["sweep", "--g-range", "0.05:0.3:2", "--rho-range", "3:9:2",
                    "--t-range", "0.2:1.5:2"]
        else:
            argv = [command, str(_write_quotes(tmp_path / "q.csv", NON_ADIABATIC, n_points=15,
                                               halfspan=0.45))]
        svgs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main([*argv, "--svg", "--out", str(out)]) == EXIT_OK
            svgs.append([(out / name).read_bytes() for name in names])
        assert svgs[0] == svgs[1]
        assert all(svg.startswith(b"<svg") and b"polyline" in svg for svg in svgs[0])


class TestByteOrderMark:
    """An input file that starts with a UTF-8 byte-order mark, with LF or
    CRLF line ends, reads as the plain file does: the same exit code,
    stdout, stderr and output bytes."""

    SWEEP = ["sweep", "--g-range", "0.1:0.1:1", "--rho-range", "3:5:2",
             "--t-range", "0.5:0.5:1"]

    def _case(self, tmp_path, capsys, reader):
        # (input path, its plain text, argv, the plain file's exit code)
        path = tmp_path / "input"
        if reader == "quote":
            text = _write_quotes(path, TRUTH).read_text(encoding="utf-8")
            return path, text, ["fit", str(path)], EXIT_OK
        params = ["--params", "0.1,2.7,0.04", "--maturity", "0.5"]
        if reader == "config":
            text = "# search settings\n\nchi-max = 5\nmode=numeric\n"
            return path, text, ["check", *params, "--config", str(path)], EXIT_NON_ADIABATIC
        if reader == "params":
            text = "g=0.1\nchi=2.7\nn=0.04\nmaturity=0.5\n"
            return path, text, ["check", "--params-file", str(path)], EXIT_NON_ADIABATIC
        # a sweep resumes from its own CSV, here with its last row to compute
        assert main([*self.SWEEP, "--out", str(tmp_path / "first")]) == EXIT_OK
        capsys.readouterr()
        text = (tmp_path / "first" / "sweep.csv").read_text(encoding="utf-8")
        return tmp_path / "out" / "sweep.csv", text[:text.rindex("\n", 0, -1) + 1], \
            self.SWEEP, EXIT_OK

    @pytest.mark.parametrize("reader", ["quote", "config", "params", "sweep"])
    def test_reads_as_the_plain_file(self, tmp_path, capsys, reader):
        path, text, argv, code = self._case(tmp_path, capsys, reader)
        out = tmp_path / "out"
        results = []
        for prefix, newline in (("", "\n"), ("\ufeff", "\n"), ("\ufeff", "\r\n")):
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            path.write_bytes((prefix + text.replace("\n", newline)).encode("utf-8"))
            result = main([*argv, "--out", str(out)])
            captured = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            results.append((result, captured.out, captured.err, files))
        assert results[0][0] == code
        assert reader != "sweep" or "1 reused, 1 to compute" in results[0][1]
        assert results[1] == results[0]
        assert results[2] == results[0]


@pytest.mark.parametrize("name", [n for n in errors.__all__ if n != "SmilecalError"])
def test_exit_code_by_error_family(tmp_path, monkeypatch, capsys, name):
    # main catches the two families only, so a new error class outside
    # both escapes as a traceback and fails here
    cls = getattr(errors, name)
    families = {errors.DomainError: EXIT_PARSE, errors.ConvergenceError: EXIT_CONVERGENCE}
    (code,) = [code for family, code in families.items() if issubclass(cls, family)]

    def raising(args, cfg, out):
        raise cls(f"{name} raised")

    monkeypatch.setattr(cli, "cmd_density", raising)
    assert main(["density", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == f"error: {name} raised\n"


_COLD_START = """
import json, sys
from smilecal.cli import main

def heavy():
    return sorted(k for k in sys.modules
                  if k.split(".")[0] == "scipy" or k == "concurrent.futures.process")

report, runs = sys.argv[1], json.loads(sys.argv[2])
codes = [main(argv) for argv in runs]
with open(report, "w") as fh:
    json.dump({"codes": codes, "loaded": heavy()}, fh)
"""


class TestColdStart:
    def test_no_command_loads_scipy_or_process_pool(self, tmp_path):
        # one fresh interpreter: no command imports scipy, the normal CDF of
        # bl-oracle and the inverse CDF of delta conversion included (both
        # are the package's own), and none imports the process pool
        xfile = _write_quotes(tmp_path / "x.csv", NON_ADIABATIC, n_points=15, halfspan=0.45)
        lines = [f"maturity,{TRUTH.maturity!r}", "delta,vol"]
        for x in TRUTH.x_min + np.linspace(-0.1, 0.1, 9):
            vol = float(sigma_of_x(TRUTH, float(x)))
            srt = vol * math.sqrt(TRUTH.maturity)
            lines.append(f"{std_normal_cdf((0.5 * srt * srt - float(x)) / srt)!r},{vol!r}")
        dfile = tmp_path / "d.csv"
        dfile.write_text("\n".join(lines) + "\n", encoding="utf-8")

        out = str(tmp_path / "out")
        runs = [
            ["check", "--params", "0.1,2.7,0.04", "--maturity", "0.5", "--out", out],
            ["density", "--params", "0.15,1.6,0.07875", "--maturity", "0.5", "--out", out],
            ["refit", str(xfile), "--out", out],
            ["sweep", "--g-range", "0.05:0.3:2", "--rho-range", "3:9:2",
             "--t-range", "0.2:1.5:2", "--out", out],
            ["fit", str(dfile), "--out", out],
            ["check", str(dfile), "--out", out],
            ["refit", str(dfile), "--out", out],
            ["bl-oracle", "--params", "0.15,1.6,0.07875", "--maturity", "0.5", "--out", out],
        ]
        env = dict(os.environ)
        src = str(Path(smilecal.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        report = tmp_path / "modules.json"
        subprocess.run(
            [sys.executable, "-c", _COLD_START, str(report), json.dumps(runs)],
            env=env, check=True, capture_output=True,
        )
        result = json.loads(report.read_text())
        assert result["codes"] == [EXIT_NON_ADIABATIC, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK,
                                   EXIT_NEGATIVE_DENSITY, EXIT_OK, EXIT_OK]
        assert result["loaded"] == []


def _reference_fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _reference_write_csv(path, header, rows) -> None:
    # the row-by-row writer the column writer replaced, kept as its oracle
    path.write_text(
        ",".join(header) + "\n"
        + "".join(",".join(_reference_fmt(v) for v in row) + "\n" for row in rows),
        encoding="utf-8",
    )


_EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
    2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 0.1, 1.0 / 3.0, 0.30000000000000004, 9007199254740993.0,
    123456789.12345679,
]


@st.composite
def _columns(draw):
    rows = draw(st.integers(0, 40))
    # "r" passes an earlier column object again, as refit does with a kept fit
    kinds = draw(st.lists(st.sampled_from("fbsr"), min_size=1, max_size=6))
    floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(width=64))
    # numpy's str arrays drop trailing NULs, not embedded ones
    texts = st.text("ab ,%s\"'é€\N{GRINNING FACE}\0", max_size=6)
    columns = []
    for kind in kinds:
        if kind == "f":
            columns.append(np.array(draw(st.lists(floats, min_size=rows, max_size=rows)),
                                    dtype=np.float64))
        elif kind == "r":
            if columns:
                columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        elif kind == "b":
            columns.append(np.array(draw(st.lists(st.booleans(), min_size=rows,
                                                  max_size=rows)), dtype=bool))
        else:
            columns.append(np.array(draw(st.lists(texts, min_size=rows, max_size=rows)),
                                    dtype=str))
    return columns


class TestCsvWriter:
    @pytest.fixture(scope="class")
    def csv_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("csv")

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(columns=_columns())
    def test_matches_row_writer(self, csv_dir, columns):
        header = [f"c{i}" for i in range(len(columns))]
        write_csv(csv_dir / "new.csv", header, columns)
        _reference_write_csv(csv_dir / "old.csv", header, zip(*columns))
        assert (csv_dir / "new.csv").read_bytes() == (csv_dir / "old.csv").read_bytes()

    def test_repeated_columns_across_blocks(self, tmp_path):
        # refit's layout when it keeps the free fit: two columns passed twice
        x, a, b = np.random.default_rng(5).normal(size=(3, 2500))
        a[[0, 1023, 1024, 2499]] = [np.nan, np.inf, -np.inf, -0.0]
        columns = [x, a, a, b, b]
        write_csv(tmp_path / "new.csv", list("xaabb"), columns)
        _reference_write_csv(tmp_path / "old.csv", list("xaabb"), zip(*columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_no_rows_writes_only_the_header(self, tmp_path):
        write_csv(tmp_path / "a.csv", ["g", "status"], zip(*[]))
        write_csv(tmp_path / "b.csv", ["x", "density"], [np.array([]), np.array([])])
        assert (tmp_path / "a.csv").read_text() == "g,status\n"
        assert (tmp_path / "b.csv").read_text() == "x,density\n"


def _run(argv, capsys) -> tuple[int, str, dict[str, bytes]]:
    code = main(argv)
    out = Path(argv[argv.index("--out") + 1])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return code, capsys.readouterr().out, files


class TestParserCache:
    DENSITY = ["density", "--params", "0.15,1.6,0.07875", "--maturity", "0.5",
               "--grid", "501", "--svg"]
    CHECK = ["check", "--params", "0.1,2.7,0.04", "--maturity", "0.5", "--mode", "numeric"]

    def test_second_command_matches_a_first_call(self, tmp_path, capsys):
        # flags of the first command must not leak into the second
        first = {}
        for name, argv in (("density", self.DENSITY), ("check", self.CHECK)):
            cli.build_parser.cache_clear()
            first[name] = _run([*argv, "--out", str(tmp_path / f"first_{name}")], capsys)
        cli.build_parser.cache_clear()
        for name, argv in (("density", self.DENSITY), ("check", self.CHECK)):
            assert _run([*argv, "--out", str(tmp_path / f"again_{name}")], capsys) == first[name]
        assert cli.build_parser.cache_info().misses == 1
        assert first["check"][0] == EXIT_NON_ADIABATIC
        assert "density.svg" not in first["check"][2]

    def test_patched_command_called_after_first_call(self, tmp_path, monkeypatch):
        assert main([*self.DENSITY, "--out", str(tmp_path)]) == EXIT_OK
        seen = []

        def patched(args, cfg, out):
            seen.append(args.command)
            return 42

        monkeypatch.setattr(cli, "cmd_density", patched)
        assert main([*self.DENSITY, "--out", str(tmp_path)]) == 42
        assert seen == ["density"]

    def test_unknown_subcommand_exits_through_argparse(self, capsys):
        for _ in range(2):  # first call and cached parser alike
            with pytest.raises(SystemExit) as exc:
                main(["nosuch"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: smilecal ")
            assert "smilecal: error: argument command: invalid choice: 'nosuch'" in err


def _load_bench_tracing(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


class TestBenchTracer:
    def test_tracer_sees_writes_and_commands(self, tmp_path, capsys, monkeypatch):
        # the benchmark's per-layer desk metrics wrap cli names from outside,
        # after the parser has been built
        tracing = _load_bench_tracing(monkeypatch)
        args = ["--params", "0.1,2.7,0.04", "--maturity", "0.5"]
        assert main(["density", *args, "--out", str(tmp_path / "warm")]) == EXIT_OK
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            assert main(["density", *args, "--out", str(tmp_path / "density")]) == EXIT_OK
            assert main(["check", *args, "--out", str(tmp_path / "check")]) == EXIT_NON_ADIABATIC
        finally:
            tracer.restore()
        names = [s.name for s in tracer.spans]
        assert names.count("cli.density") == 1
        assert names.count("cli.check") == 1
        written = sorted(s.value for s in tracer.spans if s.name == "cli.write")
        sizes = sorted(
            float(p.stat().st_size)
            for d in ("density", "check")
            for p in (tmp_path / d).iterdir()
        )
        assert written == sizes
        assert len(written) == 4
        assert not hasattr(cli.write_csv, "__wrapped__")  # restored
