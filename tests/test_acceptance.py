"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); the asserts
carry the same numbers.  Closed-loop criteria run the shipped reference
profiles end to end through the same code paths as the command line.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from photonflow import cli
from photonflow.analysis import estimate_g2, integrate_peaks
from photonflow.config import load_config
from photonflow.conversion import (
    ConversionConfig,
    dfg_wavelength,
    fit_saturation,
    saturation_efficiency,
)
from photonflow.core import RunSeed, TagStream, Wavelength, substream
from photonflow.correlate import cross_correlate
from photonflow.io import read_report
from photonflow.pipeline import run_direct, run_hbt
from photonflow.source import expected_pair_overlap

from oracles import hom_pair_central

PROFILES = Path(__file__).resolve().parent.parent / "profiles"


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}  {detail}")


def run_profile(name: str, tmp_path, fmt: str = "csv"):
    cfg = load_config(PROFILES / name)
    art = cli._Artifacts(tmp_path / name.replace(".cfg", ""), fmt)
    report, flagged = cli._RUNNERS[cfg.experiment](cfg, art)
    assert not flagged
    return cfg, report


def test_criterion_01_energy_conservation():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    l1 = rng.uniform(300.0, 2000.0, 10_000)
    l2 = l1 * rng.uniform(1.001, 50.0, 10_000)
    worst = 0.0
    for a, b in zip(l1, l2):
        l3 = dfg_wavelength(Wavelength(a), Wavelength(b))
        residual = abs(1.0 / l3.nm + 1.0 / b - 1.0 / a) / (1.0 / a)
        worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    verdict(1, ok, f"max relative residual {worst:.2e} over 1e4 points in {elapsed:.2f} s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_02_saturation_fit_recovery():
    start = time.perf_counter()
    truth = ConversionConfig(
        pump_wavelength=Wavelength(2400.0), pump_power_mw=327.0, eta_max=0.417, p_sat_mw=327.0
    )
    powers = np.linspace(20.0, 500.0, 15)
    eta = np.array([saturation_efficiency(truth, p) for p in powers])
    noisy = eta * (1.0 + 0.01 * substream(RunSeed(2), 0, 0).standard_normal(eta.size))
    fit = fit_saturation(list(zip(powers, noisy)))
    elapsed = time.perf_counter() - start
    ok = abs(fit.eta_max - 0.417) <= 0.01 and abs(fit.p_sat_mw - 327.0) / 327.0 <= 0.05
    verdict(
        2,
        ok and elapsed < 1.0,
        f"eta_max {fit.eta_max:.4f} (target 0.417 +- 0.01), "
        f"p_sat {fit.p_sat_mw:.1f} mW (target 327 +- 5%) in {elapsed:.2f} s",
    )
    assert abs(fit.eta_max - 0.417) <= 0.01
    assert abs(fit.p_sat_mw - 327.0) / 327.0 <= 0.05
    assert elapsed < 1.0


def test_criterion_03_photon_rate_efficiency():
    start = time.perf_counter()
    cfg = load_config(PROFILES / "rate_1550.cfg")
    result = run_direct(cfg.pipeline(), cfg.det1, workers=cfg.workers)
    st = result.stats
    eta = st.converted / st.emitted
    rate_in = st.emitted / (cfg.train.duration_ps * 1e-12)
    elapsed = time.perf_counter() - start
    ok = abs(eta - 0.408) <= 0.004
    verdict(
        3,
        ok,
        f"N_out/N_in {eta:.4f} (target 0.408 +- 0.004), input rate {rate_in/1e6:.3f} Mcps, "
        f"{elapsed:.1f} s for 1e7 pulses",
    )
    assert st.emitted > 0
    assert abs(eta - 0.408) <= 0.004
    assert elapsed < 60.0


def test_criterion_04_lifetime_closed_loop(tmp_path):
    _, report_930 = run_profile("lifetime_930.cfg", tmp_path)
    _, report_1550 = run_profile("lifetime_1550.cfg", tmp_path)
    tau_930, err_930 = report_930["tau_ps"], report_930["tau_ps_err"]
    tau_1550, err_1550 = report_1550["tau_ps"], report_1550["tau_ps_err"]
    counts_930 = report_930["tags_ch0"]
    counts_1550 = report_1550["tags_ch0"]
    joint = math.hypot(err_930, err_1550)
    ok = (
        abs(tau_930 - 271.0) <= 16.0
        and abs(tau_1550 - 271.0) <= 4.0
        and abs(tau_930 - tau_1550) <= joint
    )
    verdict(
        4,
        ok,
        f"tau(180ps IRF) {tau_930:.2f} +- {err_930:.2f} (truth 271 +- 16), "
        f"tau(40ps IRF) {tau_1550:.2f} +- {err_1550:.2f} (+- 4), "
        f"|diff| {abs(tau_930 - tau_1550):.2f} <= {joint:.2f}, "
        f"counts {counts_930}/{counts_1550}",
    )
    assert counts_930 >= 1_000_000
    assert counts_1550 >= 1_000_000
    assert abs(tau_930 - 271.0) <= 16.0
    assert abs(tau_1550 - 271.0) <= 4.0
    assert abs(tau_930 - tau_1550) <= joint


def test_criterion_05_purity_closed_loop(tmp_path):
    start = time.perf_counter()
    _, report_930 = run_profile("hbt_930.cfg", tmp_path)
    elapsed_930 = time.perf_counter() - start
    start = time.perf_counter()
    _, report_1550 = run_profile("hbt_1550.cfg", tmp_path)
    elapsed_1550 = time.perf_counter() - start
    g2_930, g2_1550 = report_930["g2"], report_1550["g2"]
    ok = abs(g2_930 - 0.020) <= 0.003 and abs(g2_1550 - 0.024) <= 0.002
    verdict(
        5,
        ok,
        f"g2(930 settings) {g2_930:.4f} (target 0.020 +- 0.003), "
        f"g2(1550 settings) {g2_1550:.4f} (target 0.024 +- 0.002), "
        f"{elapsed_930:.0f}/{elapsed_1550:.0f} s per 1e7 pulses",
    )
    assert abs(g2_930 - 0.020) <= 0.003
    assert abs(g2_1550 - 0.024) <= 0.002
    assert max(elapsed_930, elapsed_1550) < 300.0


def test_criterion_06_indistinguishability_closed_loop(tmp_path):
    results = {}
    for name, v_raw_target in (("hom_930.cfg", 0.892), ("hom_1550.cfg", 0.888)):
        cfg, report = run_profile(name, tmp_path)
        truth = expected_pair_overlap(cfg.emitter, cfg.train)
        results[name] = (report, truth, v_raw_target)
    ok = True
    details = []
    for name, (report, truth, v_raw_target) in results.items():
        dv = abs(report["v_raw"] - v_raw_target)
        dm = abs(report["v_corr"] - truth)
        ok &= dv <= 0.01 and dm <= 0.02
        details.append(
            f"{name}: v_raw {report['v_raw']:.4f} (target {v_raw_target} +- 0.01), "
            f"v_corr {report['v_corr']:.4f} vs overlap {truth:.4f} (+- 0.02)"
        )
    verdict(6, ok, "; ".join(details))
    for name, (report, truth, v_raw_target) in results.items():
        assert abs(report["v_raw"] - v_raw_target) <= 0.01, name
        assert abs(report["v_corr"] - truth) <= 0.02, name


def brute_force_histogram(a, b, max_delay, bin_width):
    n_bins = 2 * max_delay // bin_width
    counts = np.zeros(n_bins, dtype=np.int64)
    for start in range(0, a.size, 128):
        delays = b[None, :] - a[start : start + 128, None]
        delays = delays[(delays >= -max_delay) & (delays < max_delay)]
        counts += np.bincount((delays + max_delay) // bin_width, minlength=n_bins)
    return counts


def test_criterion_07_correlator_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    checked = 0
    for i in range(200):
        high = 3000 if i % 4 else 10_000  # include full-size instances
        n, m = rng.integers(16, high, size=2)
        span = int(rng.choice([10**5, 10**6, 10**7]))
        a = np.sort(rng.integers(0, span, n))
        b = np.sort(rng.integers(0, span, m))
        bin_width = int(rng.choice([1, 10, 100]))
        max_delay = bin_width * int(rng.integers(10, 200))
        got = cross_correlate(
            TagStream(0, a), TagStream(1, b), max_delay, bin_width
        )
        expected = brute_force_histogram(a, b, max_delay, bin_width)
        assert np.array_equal(got.counts, expected), f"instance {i}"
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 200 and elapsed < 30.0
    verdict(7, ok, f"{checked}/200 random instances exactly equal in {elapsed:.1f} s")
    assert checked == 200
    assert elapsed < 30.0


# false-alarm rates on the whole grid: the largest pull's is that of one
# two-sided 3-sigma comparison; the chi-squared test's is one-sided, since a
# bias only raises it
GRID_FALSE_ALARM = 0.0027
CHI2_FALSE_ALARM = 0.00135


def test_criterion_08_hom_enumeration_grid():
    # Every grid point's pull is drawn from N(0, 1), so bounding each of 162 at
    # 3 sigma fails a correct oracle in about one run of three.  The largest
    # pull is bounded at the grid's Bonferroni bound instead (about 4.3
    # sigma), and a chi-squared test on the squared pulls catches a bias too
    # small to push any single point past it.
    start = time.perf_counter()
    rng = substream(RunSeed(28), 0, 0)
    n = 1_000_000
    r1 = t1 = 0.5
    pulls, chi2, dof = [], 0.0, 0
    for r2 in (0.3, 0.5, 0.6):
        for t2 in (0.25, 0.35, 0.4):
            for eps in (0.0, 0.05, 0.1):
                for m in (0.0, 0.5, 0.95):
                    u = rng.random((5, n))
                    meet = (u[0] < r1) & (u[1] < t1)
                    s = r2 + t2
                    both = meet & (u[2] < s) & (u[3] < s)
                    rr, tt = r2 / s, t2 / s
                    z, p = [], []
                    for m_eff in ((1 - eps) ** 2 * m, 0.0):  # co, cross
                        p_bunch = (1.0 + m_eff) * rr * tt
                        split = both & (u[4] >= 2 * p_bunch)
                        counted = int(split.sum())
                        p.append(hom_pair_central(r1, t1, r2, t2, m_eff))
                        z.append((counted - n * p[-1]) / math.sqrt(n * p[-1] * (1 - p[-1])))
                    pulls += z
                    # co and cross count the same pairs, and a co split is a
                    # cross split, so the two pulls correlate; their
                    # Mahalanobis distance adds 2 degrees of freedom, or 1
                    # when the counts are the same (m_eff 0 in both)
                    if p[0] == p[1]:
                        chi2, dof = chi2 + z[0] ** 2, dof + 1
                    else:
                        rho = math.sqrt(p[0] * (1 - p[1]) / (p[1] * (1 - p[0])))
                        chi2 += (z[0] ** 2 - 2 * rho * z[0] * z[1] + z[1] ** 2) / (1 - rho**2)
                        dof += 2
    elapsed = time.perf_counter() - start
    bound = stats.norm.isf(GRID_FALSE_ALARM / (2 * len(pulls)))
    worst_pull = max(abs(z) for z in pulls)
    p_chi2 = stats.chi2.sf(chi2, dof)
    ok = len(pulls) == 162 and worst_pull < bound and p_chi2 > CHI2_FALSE_ALARM
    verdict(
        8,
        ok,
        f"{len(pulls)} grid comparisons at 1e6 pulse pairs, worst pull {worst_pull:.2f} sigma "
        f"(bound {bound:.2f}), chi2 {chi2:.1f} on {dof} dof (p = {p_chi2:.3f}) in {elapsed:.1f} s",
    )
    assert len(pulls) == 162
    assert worst_pull < bound
    assert p_chi2 > CHI2_FALSE_ALARM


def test_criterion_09_poissonian_sanity():
    from photonflow.optics import BeamSplitter, DetectorConfig
    from photonflow.pipeline import Pipeline
    from photonflow.core import PulseTrainConfig
    from photonflow.source import EmitterConfig

    conv = ConversionConfig(
        pump_wavelength=Wavelength(2400.0),
        pump_power_mw=327.0,
        eta_max=0.417,
        p_sat_mw=327.0,
        noise_rate_cps=1e7,
    )
    pipe = Pipeline(
        emitter=EmitterConfig(wavelength=Wavelength(945.0), lifetime_tau_ps=271.0, p_emit=0.0),
        train=PulseTrainConfig(rep_rate_mhz=73.0, pulse_width_ps=20.0, n_pulses=7_400_000),
        seed=RunSeed(909),
        conversion=conv,
    )
    det = DetectorConfig(efficiency=1.0, irf_sigma_ps=0.0, dead_time_ps=0, dark_rate_cps=0.0)
    # 1e7 cps over 7.4 M pulses at 73 MHz: 1 013 699 expected tags, 13.6 sd above the bound
    result = run_hbt(pipe, BeamSplitter(), det, det)
    total_tags = sum(len(s) for s in result.streams)
    period = pipe.train.period_ps
    hist = cross_correlate(result.streams[0], result.streams[1], 100_000, 100)
    # continuous-wave light has no peaks; wide windows just collect more counts
    peaks = integrate_peaks(hist, period, 6000)
    g2 = estimate_g2(peaks, period, period)
    ok = total_tags >= 1_000_000 and abs(g2.value - 1.0) <= 0.02
    verdict(9, ok, f"noise-only g2 {g2.value:.3f} +- {g2.sigma:.3f} at {total_tags} tags")
    assert total_tags >= 1_000_000
    assert abs(g2.value - 1.0) <= 0.02


def test_criterion_10_worker_determinism(tmp_path):
    profile = PROFILES / "hbt_1550.cfg"
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    assert cli.main(["run", str(profile), "--workers", "1", "--output", str(out1), "--format", "csv"]) == 0
    assert cli.main(["run", str(profile), "--workers", "8", "--output", str(out8), "--format", "csv"]) == 0
    identical = []
    for name in ("tags_ch0.pftg", "tags_ch1.pftg", "report.txt", "correlation.csv"):
        identical.append((out1 / name).read_bytes() == (out8 / name).read_bytes())
    report = read_report(out1 / "report.txt")
    ok = all(identical)
    verdict(
        10,
        ok,
        f"1 vs 8 workers byte-identical on streams and report (g2 {report['g2']:.4f})",
    )
    assert all(identical)
