"""Conversion stage: wavelength mapping, saturation, filtering, efficiencies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.optimize import curve_fit

from photonflow.conversion import (
    BoundsMeasurement,
    ConversionConfig,
    FitError,
    LossBudget,
    MeasurementError,
    dfg_wavelength,
    external_efficiency,
    filter_transmission,
    fit_saturation,
    internal_efficiency_bounds,
    sample_noise_times,
    saturation_curve,
    saturation_efficiency,
    survival_probability,
)
from photonflow.core import ConfigError, PulseTrainConfig, RunSeed, Wavelength, substream
from photonflow.optics import DetectorConfig
from photonflow.pipeline import Pipeline, run_direct
from photonflow.source import EmitterConfig


def conversion(**kwargs):
    defaults = dict(
        pump_wavelength=Wavelength(2400.0),
        pump_power_mw=327.0,
        eta_max=0.417,
        p_sat_mw=327.0,
    )
    defaults.update(kwargs)
    return ConversionConfig(**defaults)


class TestDfgWavelength:
    def test_reference_point(self):
        out = dfg_wavelength(Wavelength(940.0), Wavelength(2400.0))
        assert out.nm == pytest.approx(940.0 * 2400.0 / (2400.0 - 940.0))
        assert out.nm == pytest.approx(1545.2, abs=0.01)

    def test_pump_solved_for_telecom_output(self):
        # invert the relation: which pump maps 942 nm onto 1550 nm
        lambda2 = 1.0 / (1.0 / 942.0 - 1.0 / 1550.0)
        assert lambda2 == pytest.approx(2401.5, abs=0.1)
        assert dfg_wavelength(Wavelength(942.0), Wavelength(lambda2)).nm == pytest.approx(1550.0)

    def test_infinite_pump_limit(self):
        out = dfg_wavelength(Wavelength(940.0), Wavelength(1e12))
        assert out.nm == pytest.approx(940.0, rel=1e-9)

    def test_pump_must_be_redder(self):
        with pytest.raises(ConfigError):
            dfg_wavelength(Wavelength(940.0), Wavelength(940.0))
        with pytest.raises(ConfigError):
            dfg_wavelength(Wavelength(940.0), Wavelength(800.0))

    @given(
        l1=st.floats(min_value=300.0, max_value=2000.0),
        l2_over=st.floats(min_value=1.0001, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_energy_conservation(self, l1, l2_over):
        l2 = l1 * l2_over
        l3 = dfg_wavelength(Wavelength(l1), Wavelength(l2))
        assert abs(1.0 / l3.nm + 1.0 / l2 - 1.0 / l1) <= 1e-12 * (1.0 / l1)


class TestSaturation:
    def test_peak_power_value(self):
        assert saturation_efficiency(conversion(), 327.0) == pytest.approx(0.417)

    def test_zero_power(self):
        assert saturation_efficiency(conversion(), 0.0) == 0.0

    def test_quarter_power_half_efficiency(self):
        assert saturation_efficiency(conversion(), 327.0 / 4) == pytest.approx(0.417 / 2)

    def test_bounded_and_symmetric_in_sqrt_power(self):
        cfg = conversion()
        for x in (0.1, 0.3, 0.7):
            below = cfg.p_sat_mw * (1 - x) ** 2
            above = cfg.p_sat_mw * (1 + x) ** 2
            assert saturation_efficiency(cfg, below) == pytest.approx(
                saturation_efficiency(cfg, above), rel=1e-12
            )
        for p in np.linspace(0, 2000, 200):
            assert saturation_efficiency(cfg, p) <= cfg.eta_max

    def test_eta_max_capped_by_loss_budget(self):
        with pytest.raises(ConfigError):
            conversion(eta_max=0.9)


class TestFitSaturation:
    def test_noiseless_roundtrip(self):
        cfg = conversion()
        powers = np.linspace(20, 500, 15)
        points = [(p, saturation_efficiency(cfg, p)) for p in powers]
        fit = fit_saturation(points)
        assert abs(fit.eta_max - 0.417) / 0.417 < 1e-3
        assert abs(fit.p_sat_mw - 327.0) / 327.0 < 1e-3
        assert fit.residual_rms < 1e-9

    def test_noisy_recovery_over_realizations(self):
        cfg = conversion()
        powers = np.linspace(20, 500, 15)
        eta = np.array([saturation_efficiency(cfg, p) for p in powers])
        rng = np.random.default_rng(42)
        for _ in range(100):
            noisy = eta * (1.0 + 0.01 * rng.standard_normal(eta.size))
            fit = fit_saturation(list(zip(powers, noisy)))
            assert abs(fit.eta_max - 0.417) < 0.01

    def test_matches_curve_fit_oracle(self):
        # the grid search over P_sat finds the optimum of scipy's bounded
        # least squares, and the errors follow its absolute_sigma=False default
        cfg = conversion()
        powers = np.linspace(20, 500, 15)
        eta = np.array([saturation_efficiency(cfg, p) for p in powers])
        rng = np.random.default_rng(42)
        for _ in range(100):
            noisy = eta * (1.0 + 0.01 * rng.standard_normal(eta.size))
            fit = fit_saturation(list(zip(powers, noisy)))
            popt, pcov = curve_fit(
                saturation_curve, powers, noisy,
                p0=[noisy.max(), powers[np.argmax(noisy)]],
                bounds=([1e-9, 1e-9], [1.0, 100.0 * powers.max()]),
            )
            expected = [*popt, *np.sqrt(np.diag(pcov))]
            got = [fit.eta_max, fit.p_sat_mw, fit.eta_max_err, fit.p_sat_err_mw]
            assert got == pytest.approx(expected, rel=1e-6)

    def test_measured_efficiency_above_one(self):
        # a noisy point above the bound eta_max <= 1 once made the starting
        # guess of the fit invalid and raised a bare ValueError
        cfg = conversion()
        points = [(p, saturation_efficiency(cfg, p)) for p in np.linspace(20, 500, 15)]
        points[7] = (points[7][0], 1.5)
        try:
            fit = fit_saturation(points)
        except FitError:
            return
        assert 0.0 < fit.eta_max <= 1.0

    def test_two_points_rejected(self):
        with pytest.raises(FitError):
            fit_saturation([(0.0, 0.0), (327.0, 0.417)])

    def test_degenerate_powers_rejected(self):
        with pytest.raises(FitError):
            fit_saturation([(100.0, 0.2)] * 6)

    def test_scan_must_span_maximum(self):
        cfg = conversion()
        powers = np.linspace(5, 100, 8)  # all below saturation
        with pytest.raises(FitError):
            fit_saturation([(p, saturation_efficiency(cfg, p)) for p in powers])


class TestConvertPhoton:
    def test_survival_probability_value(self):
        cfg = conversion(pump_power_mw=268.4928066597639)
        assert survival_probability(cfg, 0.0) == pytest.approx(0.408, abs=1e-4)

    def test_monte_carlo_survival_matches(self):
        cfg = conversion()
        n = 200_000
        u = substream(RunSeed(4), 0, 0).random(n)
        survived = np.count_nonzero(u < survival_probability(cfg, np.zeros(n)))
        sigma = math.sqrt(n * 0.417 * (1 - 0.417))
        assert abs(survived - 0.417 * n) < 3 * sigma

    def test_half_maximum_filter_point(self):
        cfg = conversion()
        assert filter_transmission(cfg, 57.5) == pytest.approx(0.5)

    def test_band_average_of_narrow_line(self):
        # numerical average of the filter over a 0.5 GHz-wide Gaussian line
        cfg = conversion()
        sigma = 0.5 / 2.3548
        avg, _ = integrate.quad(
            lambda d: filter_transmission(cfg, d) * stats.norm.pdf(d, scale=sigma), -30, 30
        )
        assert avg > 0.9999

    def test_preserves_time_detuning_origin(self):
        # conversion only thins the photon stream: every converted photon keeps
        # its emission time, so its tag is one of the unconverted run's tags
        plain = Pipeline(
            emitter=EmitterConfig(
                wavelength=Wavelength(940.0), lifetime_tau_ps=271.0, p_emit=0.5, p_multi=0.1,
                dephasing_linewidth_ghz=2.5,
            ),
            train=PulseTrainConfig(rep_rate_mhz=73.0, pulse_width_ps=20.0, n_pulses=20_000),
            seed=RunSeed(12),
        )
        converted = Pipeline(plain.emitter, plain.train, plain.seed, conversion=conversion())
        tags = {}
        for name, pipe in (("plain", plain), ("converted", converted)):
            result = run_direct(pipe, DetectorConfig(irf_sigma_ps=50.0))
            tags[name] = result.streams[0].tags
        assert 0 < tags["converted"].size < 0.5 * tags["plain"].size
        assert np.all(np.isin(tags["converted"], tags["plain"]))
        assert converted.output_wavelength().nm == pytest.approx(1545.2054794520548)


class TestInjectNoise:
    def test_zero_rate_empty(self):
        rng = substream(RunSeed(1), 0, 0)
        assert sample_noise_times(conversion(), (0, 10**12), rng).size == 0

    def test_poisson_counts(self):
        cfg = conversion(noise_rate_cps=1000.0)
        rng = substream(RunSeed(2), 0, 0)
        counts = [sample_noise_times(cfg, (0, 10**12), rng).size for _ in range(100)]
        mean = np.mean(counts)
        assert abs(mean - 1000.0) < 3 * math.sqrt(1000.0 / 100)
        assert abs(np.var(counts) - 1000.0) < 5 * 1000.0 * math.sqrt(2.0 / 99)

    def test_records_are_noise_tagged(self):
        cfg = conversion(noise_rate_cps=1e6, filter_center=Wavelength(1545.0))
        rng = substream(RunSeed(3), 0, 0)
        times = sample_noise_times(cfg, (0, 10**9), rng)
        assert times.size and times.dtype == np.int64
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0 and times[-1] < 10**9

    def test_window_validated(self):
        rng = substream(RunSeed(4), 0, 0)
        with pytest.raises(ConfigError):
            sample_noise_times(conversion(noise_rate_cps=10.0), (100, 100), rng)


class TestEfficiencyBounds:
    def geometry(self, p_out):
        return BoundsMeasurement(
            p_in_before_lens_mw=1.0,
            p_out_after_lens_mw=p_out,
            lens_loss=0.065,
            coupling=0.96,
            depletion_on_mw=0.05,
            depletion_off_mw=1.0,
            lambda_in=Wavelength(940.0),
            lambda_out=Wavelength(1550.0),
        )

    def test_inverted_paper_geometry(self):
        # p_out chosen so the loss-factoring estimator returns exactly 0.86
        p_out = 0.86 * (1 - 0.065) ** 2 * 0.96**2 * 940.0 / 1550.0
        bounds = internal_efficiency_bounds(self.geometry(p_out))
        assert bounds.eta_int_lower == pytest.approx(0.86)
        assert bounds.eta_int_upper == pytest.approx(0.95)

    def test_lossless_identity(self):
        m = BoundsMeasurement(
            p_in_before_lens_mw=1.0,
            p_out_after_lens_mw=940.0 / 1550.0,
            lens_loss=0.0,
            coupling=1.0,
            depletion_on_mw=0.0,
            depletion_off_mw=1.0,
            lambda_in=Wavelength(940.0),
            lambda_out=Wavelength(1550.0),
        )
        bounds = internal_efficiency_bounds(m)
        assert bounds.eta_int_lower == pytest.approx(1.0)
        assert bounds.eta_int_upper == pytest.approx(1.0)

    def test_inconsistent_measurements_rejected(self):
        with pytest.raises(MeasurementError):
            internal_efficiency_bounds(self.geometry(1.0))  # lower bound above 1
        m = self.geometry(0.1)
        with pytest.raises(MeasurementError):
            internal_efficiency_bounds(
                BoundsMeasurement(**{**m.__dict__, "depletion_on_mw": 2.0})
            )
        with pytest.raises(MeasurementError):
            # lower bound 0.86 with a contradictory upper bound below it
            p_out = 0.86 * (1 - 0.065) ** 2 * 0.96**2 * 940.0 / 1550.0
            internal_efficiency_bounds(
                BoundsMeasurement(**{**self.geometry(p_out).__dict__, "depletion_on_mw": 0.5})
            )


class TestExternalEfficiency:
    def test_power_ratio_with_wavelengths(self):
        eta = external_efficiency(1.000, 0.2529, Wavelength(940.0), Wavelength(1550.0))
        assert eta == pytest.approx(0.417, abs=1e-3)

    def test_zero_output(self):
        assert external_efficiency(1.0, 0.0, Wavelength(940.0), Wavelength(1550.0)) == 0.0

    def test_photon_rate_units(self):
        assert external_efficiency(2.21e6, 905e3) == pytest.approx(0.4095, abs=5e-4)

    def test_argument_validation(self):
        with pytest.raises(ConfigError):
            external_efficiency(0.0, 1.0)
        with pytest.raises(ConfigError):
            external_efficiency(1.0, 0.5, Wavelength(940.0), None)


class TestLossBudget:
    def test_transmission_product(self):
        budget = LossBudget(lens_in=0.1, lens_out=0.1, coupling=0.0, filter_chain=0.0, fiber_out=0.5)
        assert budget.transmission() == pytest.approx(0.9 * 0.9 * 0.5)

    def test_fraction_range(self):
        with pytest.raises(ConfigError):
            LossBudget(lens_in=1.5)
