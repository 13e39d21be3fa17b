"""Smile curve landmarks, analytic derivatives vs finite differences,
fit round-trips, the constrained fit, and the width-scaling regression.
"""

import math

import numpy as np
import pytest

from smilecal import (
    ConvergenceError,
    DomainError,
    ScalingFitResult,
    SmileParams,
    VolQuote,
    constrained_fit_smile,
    delta_to_x,
    fit_smile,
    scaling_fit,
    sigma_derivatives,
    sigma_of_x,
    std_normal_cdf,
)
from smilecal import smile
from smilecal._lm import levenberg_marquardt

FIG1 = SmileParams(g=0.1, chi=2.7, n=0.04, maturity=0.5)


def _random_params(rng, chi_lo=1.05, chi_hi=4.0):
    g = math.exp(rng.uniform(math.log(0.03), math.log(0.5)))
    rho = math.exp(rng.uniform(math.log(2.5), math.log(10.0)))
    t = math.exp(rng.uniform(math.log(1.0 / 365.0), math.log(4.0)))
    chi = rng.uniform(chi_lo, chi_hi)
    return SmileParams(g=g, chi=chi, n=rho * g * g * t, maturity=t)


class TestSigmaOfX:
    def test_minimum_value_and_location(self):
        assert sigma_of_x(FIG1, FIG1.x_min) == FIG1.g

    def test_plateau(self):
        far = FIG1.x_min + 1e6
        assert sigma_of_x(FIG1, far) == pytest.approx(FIG1.g * FIG1.chi, rel=1e-9)
        assert sigma_of_x(FIG1, -far) == pytest.approx(FIG1.g * FIG1.chi, rel=1e-9)

    def test_half_height_at_half_width(self):
        half = FIG1.g * (1.0 + 0.5 * (FIG1.chi - 1.0))
        for side in (+1.0, -1.0):
            x = FIG1.x_min + side * math.sqrt(FIG1.n)
            assert sigma_of_x(FIG1, x) == pytest.approx(half, rel=1e-14)

    def test_bounds_on_dense_grids(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = _random_params(rng)
            xs = p.x_min + np.linspace(-40, 40, 2001) * math.sqrt(p.n)
            sig = sigma_of_x(p, xs)
            assert np.all(sig >= p.g * (1 - 1e-15))
            assert np.all(sig <= p.g * p.chi * (1 + 1e-15))

    def test_symmetry_about_minimum(self):
        rng = np.random.default_rng(8)
        p = _random_params(rng)
        us = np.geomspace(1e-4, 50.0, 80) * math.sqrt(p.n)
        left = sigma_of_x(p, p.x_min - us)
        right = sigma_of_x(p, p.x_min + us)
        assert np.max(np.abs(left - right)) <= 1e-15 * p.g * p.chi

    def test_validation(self):
        with pytest.raises(DomainError):
            SmileParams(g=0.0, chi=2.0, n=0.01, maturity=1.0)
        with pytest.raises(DomainError):
            SmileParams(g=0.1, chi=0.9, n=0.01, maturity=1.0)
        with pytest.raises(DomainError):
            SmileParams(g=0.1, chi=2.0, n=-0.01, maturity=1.0)


class TestSigmaDerivatives:
    def test_flat_smile(self):
        p = SmileParams(g=0.17, chi=1.0, n=0.01, maturity=1.0)
        sig, d1, d2 = sigma_derivatives(p, 0.31)
        assert (sig, d1, d2) == (0.17, 0.0, 0.0)

    def test_zero_slope_at_minimum(self):
        sig, d1, d2 = sigma_derivatives(FIG1, FIG1.x_min)
        assert sig == FIG1.g
        assert d1 == 0.0
        assert d2 == pytest.approx(2.0 * FIG1.g * (FIG1.chi - 1.0) / FIG1.n, rel=1e-14)

    def test_against_five_point_stencil(self):
        # oracle: 5-point central finite differences, step scaled to the
        # smile width so the stencil stays conditioned across the whole box
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            p = _random_params(rng)
            h = 1e-3 * math.sqrt(p.n)
            u = rng.uniform(0.05, 8.0) * math.sqrt(p.n) * rng.choice([-1.0, 1.0])
            x = p.x_min + u
            sig, d1, d2 = sigma_derivatives(p, x)
            shifts = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
            vals = sigma_of_x(p, x + shifts)
            fd1 = (-vals[4] + 8 * vals[3] - 8 * vals[1] + vals[0]) / (12 * h)
            fd2 = (-vals[4] + 16 * vals[3] - 30 * vals[2] + 16 * vals[1] - vals[0]) / (
                12 * h * h
            )
            # skip the stencil's own bad spots: near-zeros of either derivative
            scale1 = p.g * (p.chi - 1.0) / math.sqrt(p.n)
            scale2 = p.g * (p.chi - 1.0) / p.n
            if abs(d1) < 1e-2 * scale1 or abs(d2) < 1e-2 * scale2:
                continue
            assert abs(fd1 - d1) / abs(d1) < 1e-6
            assert abs(fd2 - d2) / abs(d2) < 1e-6
            checked += 1


def _quotes_from(params: SmileParams, xs) -> list[VolQuote]:
    return [VolQuote(vol=float(sigma_of_x(params, float(x))), x=float(x)) for x in xs]


class TestFitSmile:
    def test_noiseless_round_trip(self):
        truth = SmileParams(g=0.12, chi=1.8, n=0.002, maturity=0.25)
        xs = truth.x_min + np.linspace(-0.15, 0.15, 11)
        result = fit_smile(_quotes_from(truth, xs), truth.maturity)
        assert result.converged
        assert result.params.g == pytest.approx(truth.g, rel=1e-6)
        assert result.params.chi == pytest.approx(truth.chi, rel=1e-6)
        assert result.params.n == pytest.approx(truth.n, rel=1e-6)
        assert result.residual_rms < 1e-12

    def test_flat_quotes(self):
        quotes = [VolQuote(vol=0.15, x=x) for x in (-0.2, -0.05, 0.03, 0.1, 0.2)]
        result = fit_smile(quotes, 0.5)
        assert result.params.g == 0.15
        assert result.params.chi == 1.0
        assert result.residual_rms == 0.0

    def test_recovery_from_any_nearby_init(self):
        truth = SmileParams(g=0.12, chi=1.8, n=0.002, maturity=0.25)
        xs = truth.x_min + np.linspace(-0.15, 0.15, 11)
        xs, vols = smile._quotes_to_arrays(_quotes_from(truth, xs), truth.maturity)
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = rng.uniform(0.5, 1.5, size=3)
            init = SmileParams(
                g=truth.g * f[0],
                chi=1.0 + (truth.chi - 1.0) * f[1],
                n=truth.n * f[2],
                maturity=truth.maturity,
            )
            result = smile._solve(xs, vols, init, None)
            assert result.params.g == pytest.approx(truth.g, rel=1e-6)
            assert result.params.chi == pytest.approx(truth.chi, rel=1e-6)
            assert result.params.n == pytest.approx(truth.n, rel=1e-6)

    def test_delta_quoted_round_trip(self):
        truth = SmileParams(g=0.15, chi=1.6, n=0.004, maturity=0.5)
        xs = truth.x_min + np.linspace(-0.2, 0.2, 9)
        quotes = []
        for x in xs:
            vol = float(sigma_of_x(truth, float(x)))
            # invert the delta -> x map at this quote's own vol
            srt = vol * math.sqrt(truth.maturity)
            delta = std_normal_cdf((0.5 * vol * vol * truth.maturity - float(x)) / srt)
            q = VolQuote(vol=vol, delta=delta)
            assert q.to_x(truth.maturity) == pytest.approx(float(x), abs=1e-12)
            quotes.append(q)
        result = fit_smile(quotes, truth.maturity)
        assert result.params.g == pytest.approx(truth.g, rel=1e-6)
        assert result.params.chi == pytest.approx(truth.chi, rel=1e-6)

    def test_determinism(self):
        truth = SmileParams(g=0.2, chi=2.1, n=0.01, maturity=1.0)
        xs = truth.x_min + np.linspace(-0.4, 0.4, 15)
        vols = sigma_of_x(truth, xs) + 0.002 * np.sin(np.arange(15))
        quotes = [VolQuote(vol=float(v), x=float(x)) for x, v in zip(xs, vols)]
        a = fit_smile(quotes, truth.maturity)
        b = fit_smile(quotes, truth.maturity)
        assert (a.params.g, a.params.chi, a.params.n) == (b.params.g, b.params.chi, b.params.n)

    def test_too_few_quotes(self):
        quotes = [VolQuote(vol=0.2, x=x) for x in (-0.1, 0.0, 0.1)]
        with pytest.raises(DomainError):
            fit_smile(quotes, 1.0)

    def test_duplicate_coordinates_rejected(self):
        quotes = [VolQuote(vol=0.2, x=x) for x in (-0.1, 0.0, 0.0, 0.1)]
        with pytest.raises(DomainError):
            fit_smile(quotes, 1.0)

    def test_quote_validation(self):
        with pytest.raises(DomainError):
            VolQuote(vol=0.2)  # neither coordinate
        with pytest.raises(DomainError):
            VolQuote(vol=0.2, x=0.1, delta=0.5)  # both
        with pytest.raises(DomainError):
            VolQuote(vol=-0.2, x=0.1)
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="quote x must be finite"):
                VolQuote(vol=0.2, x=x)

    def test_subnormal_vol_diverges_without_a_warning(self, recwarn):
        # the start's chi, highest over lowest vol, overflows
        quotes = [VolQuote(vol=v, x=x) for x, v in zip((-0.1, 0.0, 0.1, 0.2),
                                                       (0.2, 5e-324, 0.21, 0.25))]
        with pytest.raises(ConvergenceError, match="smile fit diverged"):
            fit_smile(quotes, 0.5)
        assert not recwarn.list


class TestConstrainedFit:
    truth = SmileParams(g=0.1, chi=2.7, n=0.01, maturity=0.5)

    def _quotes(self):
        xs = self.truth.x_min + np.linspace(-0.5, 0.5, 13)
        return _quotes_from(self.truth, xs)

    def test_active_constraint(self):
        free = fit_smile(self._quotes(), self.truth.maturity)
        capped = constrained_fit_smile(self._quotes(), free.params, lambda g, n: (2.0, 0.0, 0.0))
        assert capped.constrained
        assert capped.params.chi == 2.0
        assert capped.residual_rms > free.residual_rms


def _noisy_quotes(draw: int) -> list[VolQuote]:
    """Draw number ``draw`` of 8 random quotes: x in +-0.4, vol in [0.05, 0.6]."""
    rng = np.random.default_rng(1)
    for _ in range(draw + 1):
        xs = np.sort(rng.uniform(-0.4, 0.4, 8))
        vols = rng.uniform(0.05, 0.6, 8)
    return [VolQuote(vol=float(v), x=float(x)) for x, v in zip(xs, vols)]


class TestSolverStatus:
    def test_damping_stall_is_not_convergence(self):
        # cost falls towards theta = 2, but every point past theta = 1 is NaN
        def resid_jac(theta):
            t = float(theta[0])
            return np.array([t - 2.0 if t <= 1.0 else math.nan]), np.array([[1.0]])

        result = levenberg_marquardt(resid_jac, np.array([0.0]))
        assert result.theta[0] == pytest.approx(1.0)
        assert result.cost == pytest.approx(0.5)
        assert not result.converged

    @pytest.mark.parametrize("draw", [8, 11, 13, 22])
    def test_overflowing_fit_raises_convergence_error(self, draw):
        quotes = _noisy_quotes(draw)
        with pytest.raises(ConvergenceError, match="diverged"):
            fit_smile(quotes, 0.5)


class TestScalingFit:
    def test_exact_generative_model(self):
        # n = g^2 T * e^{1.95} makes ln(g^2 T) - ln(n) = -1.95 identically
        rng = np.random.default_rng(5)
        smiles = []
        for _ in range(12):
            g = rng.uniform(0.05, 0.4)
            t = rng.uniform(0.1, 3.0)
            smiles.append(
                SmileParams(g=g, chi=1.5, n=g * g * t * math.exp(1.95), maturity=t)
            )
        result = scaling_fit(smiles)
        assert result.c == pytest.approx(-1.95, abs=1e-12)
        assert result.c_stderr == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_noisy_recovery_within_three_stderr(self, seed):
        # Monte Carlo: 5% lognormal noise on the width, many smiles
        rng = np.random.default_rng(seed)
        smiles = []
        for _ in range(72):
            g = rng.uniform(0.05, 0.4)
            t = rng.uniform(1.0 / 365.0, 4.0)
            noise = math.exp(rng.normal(0.0, 0.05))
            smiles.append(
                SmileParams(g=g, chi=1.5, n=g * g * t * math.exp(1.95) * noise, maturity=t)
            )
        result = scaling_fit(smiles)
        assert result.n_smiles == 72
        assert abs(result.c - (-1.95)) <= 3.0 * result.c_stderr

    def test_needs_three(self):
        p = SmileParams(g=0.1, chi=1.5, n=0.01, maturity=1.0)
        with pytest.raises(DomainError):
            scaling_fit([p, p])

    def test_result_type(self):
        smiles = [
            SmileParams(g=0.1, chi=1.5, n=0.01 * k, maturity=1.0) for k in (1, 2, 3)
        ]
        assert isinstance(scaling_fit(smiles), ScalingFitResult)
