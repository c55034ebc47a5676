"""Estimators: peak integration, purity ratio, lifetime fit, visibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from photonflow import analysis
from photonflow.analysis import (
    AnalysisError,
    VisibilityCalib,
    estimate_g2,
    estimate_visibility,
    fit_lifetime,
    integrate_peaks,
    lifetime_model_counts,
)
from photonflow.conversion import FitError
from photonflow.core import CoincidenceHistogram, ConfigError

from oracles import visibility_forward

PERIOD = 1e6 / 73.0


def flat_histogram(height, bin_width=100, max_delay=600_000):
    n = 2 * max_delay // bin_width
    return CoincidenceHistogram(
        bin_width_ps=bin_width,
        offset_ps=-max_delay + bin_width / 2,
        counts=np.full(n, height, dtype=np.int64),
    )


def peaked_histogram(peak_counts: dict, bin_width=100, max_delay=600_000):
    """Delta-like peaks at multiples of the period, given counts per peak."""
    h = flat_histogram(0, bin_width, max_delay)
    counts = h.counts.copy()
    centers = h.bin_centers()
    for k, value in peak_counts.items():
        target = round(k * PERIOD)
        idx = int(np.argmin(np.abs(centers - target)))
        counts[idx] = value
    return CoincidenceHistogram(h.bin_width_ps, h.offset_ps, counts)


class TestIntegratePeaks:
    def test_flat_histogram_window_count(self):
        # aligned grid (bin centers on multiples of the width, peaks on the
        # grid) so every window holds exactly 2*half_window/bin_width + 1 bins
        h = CoincidenceHistogram(
            bin_width_ps=100, offset_ps=-600_000, counts=np.full(12001, 3, dtype=np.int64)
        )
        peaks = integrate_peaks(h, rep_period_ps=10_000, half_window_ps=2000)
        expected = 3 * (2 * 2000 // 100 + 1)
        assert np.all(peaks.areas == expected)

    def test_gaussian_peaks_against_erf(self):
        # counts built from exact Gaussian cell integrals; window of 4 sigma
        bin_width, sigma, n_events = 10, 400.0, 1_000_000
        max_delay = 600_000
        edges = np.arange(-max_delay, max_delay + bin_width, bin_width)
        counts = np.zeros(edges.size - 1)
        for k in (-1, 0, 1):
            mu = k * PERIOD
            cell = stats.norm.cdf(edges[1:], mu, sigma) - stats.norm.cdf(edges[:-1], mu, sigma)
            counts += n_events * cell
        h = CoincidenceHistogram(bin_width, -max_delay + bin_width / 2, np.rint(counts).astype(np.int64))
        peaks = integrate_peaks(h, PERIOD, half_window_ps=int(4 * sigma))
        expected = n_events * (stats.norm.cdf(4.0) - stats.norm.cdf(-4.0))
        for k in (-1, 0, 1):
            area, _ = peaks.area_at(k * PERIOD, PERIOD)
            assert abs(area - expected) / expected < 1e-3

    def test_paper_geometry_centers(self):
        h = flat_histogram(1, max_delay=100_000)
        peaks = integrate_peaks(h, PERIOD, half_window_ps=2000)
        assert 0 in peaks.peak_centers_ps
        assert round(PERIOD) in peaks.peak_centers_ps
        assert -round(2 * PERIOD) + 1 in peaks.peak_centers_ps or -round(2 * PERIOD) in peaks.peak_centers_ps

    def test_overlap_rejected(self):
        with pytest.raises(ConfigError):
            integrate_peaks(flat_histogram(1), PERIOD, half_window_ps=int(PERIOD))


class TestEstimateG2:
    def test_papers_counting_example(self):
        h = peaked_histogram({0: 200, 1: 10_000, -1: 10_000, 2: 10_000})
        peaks = integrate_peaks(h, PERIOD, 2000)
        result = estimate_g2(peaks, PERIOD, PERIOD)
        assert result.value == pytest.approx(0.020)
        assert result.sigma == pytest.approx(0.020 * math.sqrt(1 / 200 + 1 / 10_000), rel=1e-6)

    def test_empty_central_peak(self):
        h = peaked_histogram({0: 0, 1: 5000})
        peaks = integrate_peaks(h, PERIOD, 2000)
        result = estimate_g2(peaks, PERIOD, PERIOD)
        assert result.value == 0.0

    def test_zero_reference_rejected(self):
        h = peaked_histogram({0: 10, 1: 0})
        peaks = integrate_peaks(h, PERIOD, 2000)
        with pytest.raises(AnalysisError):
            estimate_g2(peaks, PERIOD, PERIOD)

    def test_missing_reference_rejected(self):
        h = peaked_histogram({0: 10, 1: 100}, max_delay=50_000)
        peaks = integrate_peaks(h, PERIOD, 2000)
        with pytest.raises(AnalysisError):
            estimate_g2(peaks, 40_000_000, PERIOD)

    def test_reference_must_not_be_central(self):
        h = peaked_histogram({0: 10, 1: 100})
        peaks = integrate_peaks(h, PERIOD, 2000)
        with pytest.raises(AnalysisError):
            estimate_g2(peaks, 0.0, PERIOD)


def synthetic_decay(tau, irf_sigma, n_counts, bin_width=8, baseline=2.0, seed=17):
    """Poisson data from the wrapped exponential-IRF model (test-owned oracle)."""
    n_bins = int(math.ceil(PERIOD / bin_width))
    span = n_bins * bin_width
    grid = -span / 2 + bin_width / 2 + bin_width * np.arange(n_bins)
    irf_cell = stats.norm.cdf(grid + bin_width / 2, 0, irf_sigma) - stats.norm.cdf(
        grid - bin_width / 2, 0, irf_sigma
    )
    irf_counts = np.rint(irf_cell * n_counts).astype(np.int64)

    t = np.arange(n_bins) * bin_width
    kernel = np.exp(-t / tau)
    kernel /= kernel.sum()
    model = np.real(np.fft.ifft(np.fft.fft(irf_cell / irf_cell.sum()) * np.fft.fft(kernel)))
    rng = np.random.default_rng(seed)
    data = rng.poisson(np.maximum(model * n_counts + baseline, 0.0))  # FFT round-off can dip below 0
    offset = -span / 2 + bin_width / 2
    return (
        CoincidenceHistogram(bin_width, offset, data),
        CoincidenceHistogram(bin_width, offset, irf_counts),
    )


class TestFitLifetime:
    def test_recovers_tau_with_wide_irf(self):
        decay, irf = synthetic_decay(tau=271.0, irf_sigma=180.0, n_counts=1_000_000)
        fit = fit_lifetime(decay, irf)
        assert abs(fit.tau_ps - 271.0) < 5.0
        assert abs(fit.tau_ps - 271.0) < 4 * fit.tau_err_ps
        assert fit.irf_sigma_used_ps == pytest.approx(180.0, rel=0.02)

    def test_delta_irf_reduces_to_pure_exponential(self):
        bin_width = 8
        n_bins = int(math.ceil(PERIOD / bin_width))
        span = n_bins * bin_width
        offset = -span / 2 + bin_width / 2
        grid = offset + bin_width * np.arange(n_bins)
        irf_counts = np.zeros(n_bins, dtype=np.int64)
        irf_counts[np.argmin(np.abs(grid))] = 1_000_000
        t = np.arange(n_bins) * bin_width
        kernel = np.exp(-t / 250.0)
        kernel /= kernel.sum()
        zero_bin = int(np.argmin(np.abs(grid)))
        decay_counts = np.rint(1e6 * np.roll(kernel, zero_bin) * 1000).astype(np.int64)
        fit = fit_lifetime(
            CoincidenceHistogram(bin_width, offset, decay_counts),
            CoincidenceHistogram(bin_width, offset, irf_counts),
        )
        assert abs(fit.tau_ps - 250.0) < 0.1
        assert fit.residual_rms < 1.0

    def test_invariant_to_irf_time_origin(self):
        decay, irf = synthetic_decay(tau=271.0, irf_sigma=120.0, n_counts=500_000)
        shifted = CoincidenceHistogram(irf.bin_width_ps, irf.offset_ps, np.roll(irf.counts, 40))
        fit0 = fit_lifetime(decay, irf)
        fit1 = fit_lifetime(decay, shifted)
        assert abs(fit1.tau_ps - fit0.tau_ps) < 3 * math.hypot(fit0.tau_err_ps, fit1.tau_err_ps)
        # an IRF recorded 40 bins later is absorbed by an offset 40 bins earlier
        assert fit0.t0_ps - fit1.t0_ps == pytest.approx(40 * irf.bin_width_ps, abs=2.0)

    def test_model_counts_match_data_scale(self):
        decay, irf = synthetic_decay(tau=271.0, irf_sigma=180.0, n_counts=300_000)
        fit = fit_lifetime(decay, irf)
        curve = lifetime_model_counts(fit, irf)
        assert curve.sum() == pytest.approx(decay.counts.sum(), rel=0.01)

    def test_unbiased_at_low_counts(self):
        # 8 ps bins leave the tail with few counts per bin, where weights
        # taken from the counts bias tau low; the Poisson fit must not
        taus, errs = [], []
        for seed in range(2000, 2040):
            decay, irf = synthetic_decay(tau=271.0, irf_sigma=180.0, n_counts=250_000, seed=seed)
            fit = fit_lifetime(decay, irf)
            taus.append(fit.tau_ps)
            errs.append(fit.tau_err_ps)
        taus = np.array(taus)
        standard_error = taus.std(ddof=1) / math.sqrt(taus.size)
        assert abs(taus.mean() - 271.0) <= 3 * standard_error
        pulls = (taus - 271.0) / np.array(errs)
        assert 0.8 <= pulls.std(ddof=1) <= 1.25

    def test_zero_baseline_optimum_in_few_evaluations(self, monkeypatch):
        # No baseline and one count 17 lifetimes into the tail, where the
        # model holds about 1e-3: the best baseline is 0.  Steps that go 90 %
        # of the way to that bound shrink it geometrically (about 400 model
        # evaluations); fixing it at 0 takes about 40.
        decay, irf = synthetic_decay(tau=271.0, irf_sigma=40.0, n_counts=1_000_000, baseline=0.0, seed=1)
        counts = decay.counts.copy()
        counts[np.argmin(np.abs(decay.bin_centers() - 4700.0))] += 1
        decay = CoincidenceHistogram(decay.bin_width_ps, decay.offset_ps, counts)
        model = analysis._eval_lifetime_model
        evaluations = []

        def counted(*args):
            evaluations.append(1)
            return model(*args)

        monkeypatch.setattr(analysis, "_eval_lifetime_model", counted)
        fit = fit_lifetime(decay, irf)
        assert len(evaluations) <= 100
        assert fit.baseline == 0.0

        # the optimum at zero baseline, with the amplitude profiled out
        data = counts.astype(float)
        seen = data > 0
        spectrum = np.fft.rfft(irf.counts / irf.total())
        bw = float(decay.bin_width_ps)

        def deviance(x):
            shape = model(spectrum, decay.bin_centers(), bw * decay.n_bins, bw, np.array([1.0, *x, 0.0]))
            m = shape * data.sum() / shape.sum()
            return 2 * (m.sum() - data[seen] @ np.log(m[seen])) if np.all(m[seen] > 0) else np.inf

        best = optimize.minimize(
            deviance, [271.0, 0.0], method="Nelder-Mead", options=dict(xatol=1e-9, fatol=1e-12, maxiter=5000)
        )
        assert fit.tau_ps == pytest.approx(best.x[0], rel=1e-6)

    def test_degenerate_histograms_raise_fit_error(self):
        # a flat decay over a flat IRF fixes neither tau nor t0
        flat = CoincidenceHistogram(8, -6848.0, np.full(1713, 5, dtype=np.int64))
        with pytest.raises(FitError):
            fit_lifetime(flat, flat)

    def test_binning_mismatch_rejected(self):
        decay, irf = synthetic_decay(271.0, 100.0, 10_000)
        other = CoincidenceHistogram(irf.bin_width_ps * 2, irf.offset_ps, irf.counts[::2].copy())
        with pytest.raises(ConfigError):
            fit_lifetime(decay, other)


def integrate_both(*histograms):
    return [integrate_peaks(h, PERIOD, 2000) for h in histograms]


def visibility_histograms(a_perp, a_par, norm=200_000):
    h_co = peaked_histogram({0: int(round(a_par * norm)), 36: norm, 37: norm, -36: norm})
    h_cross = peaked_histogram({0: int(round(a_perp * norm)), 36: norm, 37: norm, -36: norm})
    return h_co, h_cross


class TestEstimateVisibility:
    def test_raw_visibility_from_reported_areas(self):
        h_co, h_cross = visibility_histograms(a_perp=1.0, a_par=0.108)
        result = estimate_visibility(*integrate_both(h_co, h_cross), 500_000, VisibilityCalib(), PERIOD)
        assert result.v_raw == pytest.approx(0.892, abs=1e-6)

    def test_equal_areas_give_zero(self):
        h_co, h_cross = visibility_histograms(a_perp=0.5, a_par=0.5)
        result = estimate_visibility(*integrate_both(h_co, h_cross), 500_000, VisibilityCalib(), PERIOD)
        assert result.v_raw == pytest.approx(0.0, abs=1e-9)

    def test_rescaling_invariance(self):
        calib = VisibilityCalib(g2=0.02, epsilon=0.01)
        h_co, h_cross = visibility_histograms(a_perp=0.51, a_par=0.06, norm=100_000)
        base = estimate_visibility(*integrate_both(h_co, h_cross), 500_000, calib, PERIOD)
        h_co4 = CoincidenceHistogram(h_co.bin_width_ps, h_co.offset_ps, h_co.counts * 4)
        h_cross4 = CoincidenceHistogram(h_cross.bin_width_ps, h_cross.offset_ps, h_cross.counts * 4)
        scaled = estimate_visibility(*integrate_both(h_co4, h_cross4), 500_000, calib, PERIOD)
        assert scaled.v_raw == pytest.approx(base.v_raw, rel=1e-12)
        assert scaled.v_corr == pytest.approx(base.v_corr, rel=1e-12)

    @given(
        m=st.floats(min_value=0.3, max_value=1.0),
        g2=st.floats(min_value=0.0, max_value=0.05),
        r2=st.floats(min_value=0.4, max_value=0.6),
        eps=st.floats(min_value=0.0, max_value=0.1),
    )
    @settings(max_examples=40, deadline=None)
    def test_inversion_recovers_model_truth(self, m, g2, r2, eps):
        calib = VisibilityCalib(r2=r2, t2=1.0 - r2, epsilon=eps, g2=g2)
        a_perp, a_par = visibility_forward(calib.model(), m, g2, eps)
        scale = 10**7  # large counts so integer rounding is negligible
        h_co, h_cross = visibility_histograms(a_perp, a_par, norm=scale)
        result = estimate_visibility(*integrate_both(h_co, h_cross), 500_000, calib, PERIOD)
        assert result.v_corr == pytest.approx(m, abs=1e-4)

    def test_out_of_range_correction_is_flagged(self):
        h_co, h_cross = visibility_histograms(a_perp=0.5, a_par=0.0)
        calib = VisibilityCalib(epsilon=0.4)  # wildly wrong mode matching
        result = estimate_visibility(*integrate_both(h_co, h_cross), 500_000, calib, PERIOD)
        assert result.flagged
        assert result.v_corr > 1.05

    def test_zero_norm_area_rejected(self):
        h_co = peaked_histogram({0: 10})
        h_cross = peaked_histogram({0: 10, 36: 100, 37: 100})
        with pytest.raises(AnalysisError):
            estimate_visibility(*integrate_both(h_co, h_cross), 500_000, VisibilityCalib(), PERIOD)
